"""Shared test fixtures."""

import math

import numpy as np
import pytest

from chemohapto import Grid


class _RefGrid(Grid):
    """Grid with norm and grad_magnitude verbatim as they stood before they
    skipped lanes whose result is known; the kernels and the C_GN estimate
    must reproduce them bit for bit."""

    def norm(self, f: np.ndarray, p: float) -> float:
        """L^p norm under midpoint quadrature; p = inf gives max |f|."""
        self.check_shape(f)
        if p == math.inf:
            return float(np.max(np.abs(f)))
        if p < 1:
            raise ValueError(f"norm order p must be >= 1 or inf, got {p}")
        return float((np.abs(f) ** p).sum() * self.cell_area) ** (1.0 / p)

    def grad_magnitude(self, f: np.ndarray) -> np.ndarray:
        """Cell gradient magnitude from squared face differences.

        Per cell and axis the two adjacent face differences are averaged
        in the square; boundary-normal differences are zero.
        """
        self.check_shape(f)
        dx, dy = self.face_diff(f)
        dx *= dx
        dy *= dy
        gx2 = np.zeros((self.nx, self.ny))
        gx2[:-1, :] += dx
        gx2[1:, :] += dx
        gx2 *= 0.5
        gy2 = np.zeros((self.nx, self.ny))
        gy2[:, :-1] += dy
        gy2[:, 1:] += dy
        gy2 *= 0.5
        return np.sqrt(gx2 + gy2)


@pytest.fixture(scope="session")
def ref_grid():
    """The Grid subclass with the old kernels, called like Grid."""
    return _RefGrid


def _ref_f(kin, s, w):
    """Kinetics.f verbatim as it stood before it skipped the damping of
    cells with s <= 0, with self renamed kin; the source must reproduce it
    bit for bit."""
    s = np.asarray(s, dtype=float)
    w = np.asarray(w, dtype=float)
    if kin.r:
        bracket = kin.a - kin.lam * s - w if kin.lam else kin.a - w
        out = (s if kin.r == 1.0 else kin.r * s) * bracket   # 1*s == s
    else:
        out = np.zeros(np.broadcast(s, w).shape)
    if kin.c:
        safe = np.maximum(s, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            damp = kin._damping(safe)
        out = out - np.where(s > 0.0, damp, 0.0)
    return float(out) if np.ndim(out) == 0 else out


@pytest.fixture(scope="session")
def ref_f():
    """The old source evaluation, called as ref_f(kinetics, s, w)."""
    return _ref_f


@pytest.fixture
def no_least_squares(monkeypatch):
    """numpy's least-squares routines replaced by ones that fail the test
    when called: no command may load LAPACK."""
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK least-squares routine was called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
