"""Time integration of the cell / chemical / matrix system.

    u_t = Lap u - chi div(u grad v) - xi div(u grad w) + f(u, w)
    tau v_t = Lap v + u - v        (elliptic chemical when tau = 0)
    w_t = -v w

with zero-flux walls.  One step applies, in order: the chemical update
(elliptic solve or implicit Euler), the exact exponential matrix decay
with frozen chemical, explicit donor-cell transport of u under a CFL
bound, an implicit Euler diffusion solve, the explicit reaction, and a
clip at zero whose removed mass is logged.  Both linear solves run
conjugate gradients preconditioned by the exact cosine-transform
diagonalization of the Neumann Laplacian, so they converge in one or two
iterations and the zero mode (total mass) passes through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft

from .grid import Grid
from .kinetics import Kinetics
from . import diagnostics


class InitialDataError(ValueError):
    pass


@dataclass
class ModelParams:
    """Sensitivities and chemical relaxation time.

    chi and xi may be zero (pure diffusion runs); tau = 0 switches the
    chemical equation to its elliptic limit.
    """

    chi: float
    xi: float
    tau: float
    kinetics: Kinetics

    def __post_init__(self):
        if not (self.chi >= 0 and math.isfinite(self.chi)):
            raise ValueError(f"chi must be finite and >= 0, got {self.chi}")
        if not (self.xi >= 0 and math.isfinite(self.xi)):
            raise ValueError(f"xi must be finite and >= 0, got {self.xi}")
        if not (self.tau >= 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if not isinstance(self.kinetics, Kinetics):
            raise ValueError("kinetics must be a Kinetics instance")


@dataclass
class Numerics:
    """Knobs of the discrete scheme; defaults match the documented contract."""

    elliptic_tol: float = 1e-10
    max_iter: Optional[int] = None     # default 10 * (nx + ny)
    cfl_safety: float = 0.4
    dt_max: float = 1e-2
    overflow_guard: float = 1e12
    eps_u: float = 1e-30
    g_order: int = 1


@dataclass
class InitialData:
    """Initial fields plus the matrix gradient-compatibility constant A.

    The constant certifies |grad w0|^2 <= A * w0 at faces, which is what
    the pointwise matrix curvature bound consumes.  v0 may be None when
    tau = 0; the elliptic limit ignores it.
    """

    u0: np.ndarray
    w0: np.ndarray
    v0: Optional[np.ndarray] = None
    A: float = 0.0

    def validate(self, grid: Grid, tau: float, grad_tol: float = 1e-9) -> None:
        try:
            grid.check_shape(self.u0)
            grid.check_shape(self.w0)
        except ValueError as exc:
            raise InitialDataError(str(exc)) from None
        if not np.all(np.isfinite(self.u0)):
            raise InitialDataError("u0 contains non-finite values")
        if not np.all(np.isfinite(self.w0)):
            raise InitialDataError("w0 contains non-finite values")
        if np.min(self.u0) < 0:
            raise InitialDataError(f"u0 must be nonnegative, min is {np.min(self.u0)}")
        if not np.any(self.u0 > 0):
            raise InitialDataError("u0 must not be identically zero")
        if np.min(self.w0) < 0:
            raise InitialDataError(f"w0 must be nonnegative, min is {np.min(self.w0)}")
        if tau > 0:
            if self.v0 is None:
                raise InitialDataError("v0 is required when tau > 0")
            grid.check_shape(self.v0)
            if not np.all(np.isfinite(self.v0)):
                raise InitialDataError("v0 contains non-finite values")
            if np.min(self.v0) < 0:
                raise InitialDataError(f"v0 must be nonnegative, min is {np.min(self.v0)}")
        if not (self.A >= 0 and math.isfinite(self.A)):
            raise InitialDataError(f"A must be finite and >= 0, got {self.A}")
        dx, dy = grid.face_diff(self.w0)
        wx = 0.5 * (self.w0[:-1, :] + self.w0[1:, :])
        wy = 0.5 * (self.w0[:, :-1] + self.w0[:, 1:])
        worst = 0.0
        if dx.size:
            worst = max(worst, float(np.max(dx ** 2 - self.A * wx)))
        if dy.size:
            worst = max(worst, float(np.max(dy ** 2 - self.A * wy)))
        if worst > grad_tol:
            raise InitialDataError(
                f"|grad w0|^2 <= A*w0 fails at some face by {worst:.3e} (A={self.A})"
            )


def compatibility_constant(grid: Grid, w0: np.ndarray, floor: float = 1e-14) -> float:
    """Smallest A with |grad w0|^2 <= A * w0 at faces, with a little slack.

    Faces where the mean of w0 vanishes must carry zero difference,
    otherwise no finite A exists and a ValueError is raised.
    """
    dx, dy = grid.face_diff(w0)
    ratios = [0.0]
    for d, wm in ((dx, 0.5 * (w0[:-1, :] + w0[1:, :])), (dy, 0.5 * (w0[:, :-1] + w0[:, 1:]))):
        if d.size == 0:
            continue
        g2 = d ** 2
        bad = (wm <= floor) & (g2 > floor)
        if np.any(bad):
            raise ValueError("w0 has a gradient on a face where w0 vanishes; no finite A works")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(wm > floor, g2 / np.maximum(wm, floor), 0.0)
        ratios.append(float(np.max(ratio)))
    return max(ratios) * (1.0 + 1e-12)


@dataclass
class DerivedConstants:
    """Constants fixed by the initial data that the bounds consume."""

    kappa: float
    w0_max: float

    @classmethod
    def from_ic(cls, grid: Grid, ic: InitialData) -> "DerivedConstants":
        kappa = (
            grid.norm(grid.laplacian_neumann(ic.w0), math.inf)
            + 4.0 * ic.A
            + grid.norm(ic.w0, math.inf) / math.e
        )
        return cls(kappa=kappa, w0_max=float(np.max(ic.w0)))


@dataclass
class State:
    """Trajectory point; status flips to 'diverged' when the sup norm of u
    passes the overflow guard or any field stops being finite."""

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    status: str = "ok"
    clipped_mass: float = 0.0


# ----------------------------------------------------------------------
# spectral diagonalization and conjugate gradients


class _NeumannSpectral:
    """Cosine-transform diagonalization of the mirror-Neumann Laplacian."""

    def __init__(self, grid: Grid):
        kx = np.arange(grid.nx)
        ky = np.arange(grid.ny)
        lx = (2.0 - 2.0 * np.cos(math.pi * kx / grid.nx)) / grid.hx ** 2
        ly = (2.0 - 2.0 * np.cos(math.pi * ky / grid.ny)) / grid.hy ** 2
        self.lam = lx[:, None] + ly[None, :]

    def solve(self, b: np.ndarray, c0: float, diff: float) -> np.ndarray:
        """Exact solve of (c0 I - diff * Lap) x = b; c0 > 0, diff >= 0."""
        coef = scipy.fft.dctn(b, type=2, norm="ortho")
        coef /= (c0 + diff * self.lam)
        return scipy.fft.idctn(coef, type=2, norm="ortho")


def _spectral(grid: Grid) -> _NeumannSpectral:
    sp = getattr(grid, "_neumann_spectral", None)
    if sp is None:
        sp = _NeumannSpectral(grid)
        grid._neumann_spectral = sp
    return sp


def _cg_helmholtz(grid: Grid, b: np.ndarray, c0: float, diff: float,
                  tol: float, max_iter: Optional[int]) -> np.ndarray:
    """Conjugate gradients on (c0 I - diff*Lap) x = b, preconditioned by the
    exact spectral inverse.  Residual target ||r||_2 <= tol * ||b||_2.

    The preconditioner is the whole inverse, so the start iterate already
    meets the target up to rounding and the loop exists to enforce the
    residual contract (and to recover it if rounding ever degrades).
    """
    if max_iter is None:
        max_iter = 10 * (grid.nx + grid.ny)
    sp = _spectral(grid)

    def apply_A(x):
        return c0 * x - diff * grid.laplacian_neumann(x)

    target = tol * math.sqrt(float(np.vdot(b, b)))
    x = sp.solve(b, c0, diff)
    r = b - apply_A(x)
    rn = math.sqrt(float(np.vdot(r, r)))
    if rn <= target:
        return x
    z = sp.solve(r, c0, diff)
    p = z
    rz = float(np.vdot(r, z))
    for _ in range(max_iter):
        Ap = apply_A(p)
        alpha = rz / float(np.vdot(p, Ap))
        x = x + alpha * p
        r = r - alpha * Ap
        rn = math.sqrt(float(np.vdot(r, r)))
        if rn <= target:
            return x
        z = sp.solve(r, c0, diff)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(
        f"conjugate gradients failed to reach tol={tol} within {max_iter} iterations"
    )


def solve_elliptic_v(grid: Grid, u: np.ndarray, tol: float = 1e-10,
                     max_iter: Optional[int] = None) -> np.ndarray:
    """Chemical field of the elliptic limit: (I - Lap) v = u."""
    grid.check_shape(u)
    return _cg_helmholtz(grid, u, 1.0, 1.0, tol, max_iter)


# ----------------------------------------------------------------------
# stepping


def dt_cfl(grid: Grid, params: ModelParams, v: np.ndarray, w: np.ndarray,
           dt_max: float, safety: float = 0.4) -> float:
    """Transport stability bound safety * min(h) / max face speed."""
    vx, vy = grid.face_diff(v)
    wx, wy = grid.face_diff(w)
    speed = 0.0
    if vx.size:
        speed = max(speed, float(np.max(params.chi * np.abs(vx) + params.xi * np.abs(wx))))
    if vy.size:
        speed = max(speed, float(np.max(params.chi * np.abs(vy) + params.xi * np.abs(wy))))
    if speed <= 1e-300:
        return dt_max
    return min(dt_max, safety * min(grid.hx, grid.hy) / speed)


def _update_v(grid: Grid, params: ModelParams, u: np.ndarray, v: np.ndarray,
              dt: float, num: Numerics) -> np.ndarray:
    if params.tau == 0.0:
        return _cg_helmholtz(grid, u, 1.0, 1.0, num.elliptic_tol, num.max_iter)
    # implicit Euler: (tau/dt + 1 - Lap) v_new = (tau/dt) v + u
    c0 = params.tau / dt + 1.0
    rhs = (params.tau / dt) * v + u
    return _cg_helmholtz(grid, rhs, c0, 1.0, num.elliptic_tol, num.max_iter)


def step(grid: Grid, state: State, params: ModelParams, dt: float,
         num: Numerics = Numerics()) -> State:
    """One split step of length dt from a valid state.

    Requires dt <= dt_cfl(...) for the positivity-friendly transport;
    the caller (run) guarantees this.  The returned state carries the
    mass removed by the terminal clip at zero.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    u, v, w = state.u, state.v, state.w

    v_new = _update_v(grid, params, u, v, dt, num)
    # exact decay w -> w * exp(-dt * v) with v frozen over the step;
    # the max with 0 guards the monotone decrease against solver rounding
    v_frozen = v_new if params.tau == 0.0 else 0.5 * (v + v_new)
    w_new = w * np.exp(-dt * np.maximum(v_frozen, 0.0))

    u_star = u - dt * (
        params.chi * grid.taxis_divergence(u, v_new)
        + params.xi * grid.taxis_divergence(u, w_new)
    )
    u_dd = _cg_helmholtz(grid, u_star, 1.0, dt, num.elliptic_tol, num.max_iter)
    if params.kinetics.is_zero:
        u_rx = u_dd
    else:
        u_rx = u_dd + dt * params.kinetics.f(np.maximum(u_dd, 0.0), w_new)
    clipped = grid.integrate(np.maximum(-u_rx, 0.0))
    u_new = np.maximum(u_rx, 0.0)

    status = "ok"
    if (
        not np.all(np.isfinite(u_new))
        or not np.all(np.isfinite(v_new))
        or not np.all(np.isfinite(w_new))
        or np.max(u_new) > num.overflow_guard
    ):
        status = "diverged"
    return State(t=state.t + dt, u=u_new, v=v_new, w=w_new, status=status,
                 clipped_mass=clipped)


def initial_state(grid: Grid, params: ModelParams, ic: InitialData,
                  num: Numerics = Numerics()) -> State:
    """Validated state at t = 0; solves the elliptic chemical when tau = 0."""
    ic.validate(grid, params.tau)
    if params.tau == 0.0:
        v = _cg_helmholtz(grid, ic.u0, 1.0, 1.0, num.elliptic_tol, num.max_iter)
    else:
        v = ic.v0.copy()
    return State(t=0.0, u=ic.u0.copy(), v=v, w=ic.w0.copy())


@dataclass
class RunResult:
    records: list = field(default_factory=list)
    final: Optional[State] = None
    status: str = "ok"
    diverged_t: Optional[float] = None
    steps: int = 0
    clipped_mass: float = 0.0     # total removed by the clip, over every step


def run(grid: Grid, params: ModelParams, ic: InitialData, t_end: float,
        num: Numerics = Numerics(), observe_interval: Optional[float] = None) -> RunResult:
    """Integrate to t_end with adaptive CFL-bounded steps.

    Diagnostics records are appended at t = 0, then whenever the time
    passes the next observation mark, and at the final time; a diverged
    state exits early with its record included.  The mass removed by the
    clip at zero is summed over every step, observed or not.
    """
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if observe_interval is None:
        observe_interval = t_end / 128.0
    if observe_interval <= 0:
        raise ValueError(f"observe_interval must be positive, got {observe_interval}")

    consts = DerivedConstants.from_ic(grid, ic)
    state = initial_state(grid, params, ic, num)
    result = RunResult()
    result.records.append(
        diagnostics.make_record(grid, params, state, consts, num, residual=0.0, dt=0.0)
    )
    next_obs = observe_interval
    tiny = 1e-12 * t_end
    while state.t < t_end - tiny:
        dt = dt_cfl(grid, params, state.v, state.w, num.dt_max, num.cfl_safety)
        dt = min(dt, t_end - state.t)
        prev = state
        state = step(grid, state, params, dt, num)
        result.steps += 1
        result.clipped_mass += state.clipped_mass
        observe = state.t >= next_obs - tiny or state.t >= t_end - tiny
        if state.status != "ok":
            observe = True
        if observe:
            residual = diagnostics.identity_residual(
                grid, params.chi, params.xi, params.kinetics,
                prev.u, state.u, prev.v, state.v, prev.w, state.w, dt,
                eps_u=num.eps_u,
            )
            result.records.append(
                diagnostics.make_record(grid, params, state, consts, num,
                                        residual=residual, dt=dt)
            )
            while next_obs <= state.t + tiny:
                next_obs += observe_interval
        if state.status != "ok":
            result.status = "diverged"
            result.diverged_t = state.t
            break
    result.final = state
    return result
