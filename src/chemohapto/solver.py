"""Time integration of the cell / chemical / matrix system.

    u_t = Lap u - chi div(u grad v) - xi div(u grad w) + f(u, w)
    tau v_t = Lap v + u - v        (elliptic chemical when tau = 0)
    w_t = -v w

with zero-flux walls.  One step applies, in order: the chemical update
(elliptic solve or implicit Euler), the exact exponential matrix decay
with frozen chemical, explicit donor-cell transport of u under a CFL
bound, an implicit Euler diffusion solve, the explicit reaction, and a
clip at zero whose removed mass is logged.  Both linear solves are direct
solves in the cosine basis that diagonalizes the Neumann Laplacian, so
the zero mode (total mass) passes through unchanged; every solve checks
its residual and raises when it misses the target.  The step takes the
face differences of the new chemical and matrix fields once, for both
transport terms and for the largest face speed, which it stores on the
returned state: the CFL bound of the next step comes from that speed.
"""

from __future__ import annotations

import functools
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
    """Knobs of the discrete scheme; defaults match the documented contract.

    elliptic_tol is the relative residual each linear solve must meet.  A
    value below the rounding floor of evaluating the residual (see
    _cg_helmholtz) is raised to that floor without a warning.  For the
    elliptic chemical solve on the unit square the floor passes the
    default 1e-10 between 256^2 and 512^2 and is 7e-10 to 2e-9 of ||b||
    at 1024^2; the diffusion solve's floor stays far below it.
    """

    elliptic_tol: float = 1e-10
    cfl_safety: float = 0.4
    dt_max: float = 1e-2
    overflow_guard: float = 1e12
    g_order: int = 1


@dataclass
class InitialData:
    """Initial fields; w0 must admit a finite A with |grad w0|^2 <= A * w0 at
    faces (compatibility_constant), as the matrix curvature bound needs.
    v0 None means start at the elliptic equilibrium of u0; tau = 0 always
    does, and ignores v0.
    """

    u0: np.ndarray
    w0: np.ndarray
    v0: Optional[np.ndarray] = None

    def validate(self, grid: Grid, tau: float) -> None:
        try:
            grid.check_shape(self.u0)
            grid.check_shape(self.w0)
            if tau > 0 and self.v0 is not None:
                grid.check_shape(self.v0)
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
        if tau > 0 and self.v0 is not None:
            if not np.all(np.isfinite(self.v0)):
                raise InitialDataError("v0 contains non-finite values")
            if np.min(self.v0) < 0:
                raise InitialDataError(f"v0 must be nonnegative, min is {np.min(self.v0)}")
        try:
            compatibility_constant(grid, self.w0)
        except ValueError as exc:
            raise InitialDataError(str(exc)) from None


def compatibility_constant(grid: Grid, w0: np.ndarray) -> float:
    """Smallest A with |grad w0|^2 <= A * w0 at faces, with a little slack.

    Faces where the mean of w0 vanishes (is at most 1e-14) must carry zero
    difference, otherwise no finite A exists and a ValueError is raised.
    """
    floor = 1e-14
    dx, dy = grid.face_diff(w0)
    ratios = [0.0]
    for d, wm in ((dx, 0.5 * (w0[:-1, :] + w0[1:, :])), (dy, 0.5 * (w0[:, :-1] + w0[:, 1:]))):
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
            + 4.0 * compatibility_constant(grid, ic.w0)
            + grid.norm(ic.w0, math.inf) / math.e
        )
        return cls(kappa=kappa, w0_max=float(np.max(ic.w0)))


@dataclass
class State:
    """Trajectory point; status flips to 'diverged' when the sup norm of u
    passes the overflow guard or any field stops being finite.

    face_speed is the largest taxis face speed of (v, w), as dt_cfl
    computes it; step fills it in, and None means not yet computed.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    status: str = "ok"
    clipped_mass: float = 0.0
    face_speed: Optional[float] = None


# ----------------------------------------------------------------------
# spectral solve


@functools.lru_cache(maxsize=8)
def _neumann_eigenvalues(nx: int, ny: int, hx: float, hy: float) -> np.ndarray:
    """Eigenvalues of the mirror-Neumann -Lap on the cosine modes (read-only)."""
    lx = (2.0 - 2.0 * np.cos(math.pi * np.arange(nx) / nx)) / hx ** 2
    ly = (2.0 - 2.0 * np.cos(math.pi * np.arange(ny) / ny)) / hy ** 2
    lam = lx[:, None] + ly[None, :]
    lam.flags.writeable = False
    return lam


def _norm2(a: np.ndarray) -> float:
    # einsum keeps the reduction off BLAS, whose worker threads would
    # compete with the caller's
    return math.sqrt(float(np.einsum("ij,ij->", a, a)))


def _cg_helmholtz(grid: Grid, b: np.ndarray, c0: float, diff: float,
                  tol: float) -> np.ndarray:
    """Direct spectral solve of (c0 I - diff*Lap) x = b with a residual guard;
    c0 > 0, diff >= 0.

    The cosine transform diagonalizes the operator exactly, so one solve is
    the whole method and no iteration runs.  The name stays because the
    benchmark's tracer times the Helmholtz layer under it.  Every call
    evaluates the residual r and raises RuntimeError unless

        ||r||_2 <= max(tol * ||b||_2, eps * (c0 + diff * lam_max) * ||x||_2),

    where the second term is the rounding floor of evaluating r itself
    (lam_max is the largest eigenvalue of -Lap); a tol below that floor
    cannot be certified by any solver.  A non-finite residual also raises.
    """
    lam = _neumann_eigenvalues(grid.nx, grid.ny, grid.hx, grid.hy)
    coef = scipy.fft.dctn(b, type=2, norm="ortho")
    coef /= (c0 + diff * lam)
    x = scipy.fft.idctn(coef, type=2, norm="ortho")
    r = grid.laplacian_neumann(x)
    r *= diff
    np.subtract(c0 * x, r, out=r)
    np.subtract(b, r, out=r)       # r = b - (c0 x - diff Lap x)
    rn = _norm2(r)
    floor = np.finfo(float).eps * (c0 + diff * float(lam[-1, -1])) * _norm2(x)
    target = max(tol * _norm2(b), floor)
    if not rn <= target:
        raise RuntimeError(
            f"spectral Helmholtz solve missed the residual target: "
            f"||r|| = {rn:.3e} > {target:.3e} (tol={tol})"
        )
    return x


def solve_elliptic_v(grid: Grid, u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Chemical field of the elliptic limit: (I - Lap) v = u."""
    grid.check_shape(u)
    return _cg_helmholtz(grid, u, 1.0, 1.0, tol)


# ----------------------------------------------------------------------
# stepping


def _face_speed(params: ModelParams, vx: np.ndarray, vy: np.ndarray,
                wx: np.ndarray, wy: np.ndarray) -> float:
    # largest chi |dv/dn| + xi |dw/dn| over interior faces, from face_diff;
    # overwrites its arguments, which callers no longer need
    speed = 0.0
    for dv, dw in ((vx, wx), (vy, wy)):
        np.abs(dv, out=dv)
        dv *= params.chi
        np.abs(dw, out=dw)
        dw *= params.xi
        dv += dw
        speed = max(speed, float(np.max(dv)))
    return speed


def _dt_from_speed(grid: Grid, speed: float, dt_max: float, safety: float) -> float:
    if speed <= 1e-300:
        return dt_max
    return min(dt_max, safety * min(grid.hx, grid.hy) / speed)


def dt_cfl(grid: Grid, params: ModelParams, v: np.ndarray, w: np.ndarray,
           dt_max: float, safety: float = 0.4) -> float:
    """Transport stability bound safety * min(h) / max face speed."""
    speed = _face_speed(params, *grid.face_diff(v), *grid.face_diff(w))
    return _dt_from_speed(grid, speed, dt_max, safety)


def step(grid: Grid, state: State, params: ModelParams, dt: float,
         num: Numerics = Numerics()) -> State:
    """One split step of length dt from a valid state.

    Requires dt <= dt_cfl(...) for the positivity-friendly transport;
    the caller (run) guarantees this.  The returned state carries the
    mass removed by the terminal clip at zero and the face speed of its
    (v, w), taken from the face differences the transport already used.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    u, v, w = state.u, state.v, state.w

    if params.tau == 0.0:
        v_new = v_frozen = _cg_helmholtz(grid, u, 1.0, 1.0, num.elliptic_tol)
    else:
        # implicit Euler: (tau/dt + 1 - Lap) v_new = (tau/dt) v + u
        v_new = _cg_helmholtz(grid, (params.tau / dt) * v + u, params.tau / dt + 1.0,
                              1.0, num.elliptic_tol)
        v_frozen = 0.5 * (v + v_new)
    # exact decay w -> w * exp(-dt * v) with v frozen over the step;
    # the max with 0 guards the monotone decrease against solver rounding
    w_new = np.maximum(v_frozen, 0.0)
    w_new *= -dt
    np.exp(w_new, out=w_new)
    w_new *= w

    # one face_diff of each field serves both transport terms and the face
    # speed of the next CFL bound; the face arrays go before the solve
    vx, vy = grid.face_diff(v_new)
    wx, wy = grid.face_diff(w_new)
    taxis = (params.chi * grid.taxis_divergence(u, v_new, faces=(vx, vy))
             + params.xi * grid.taxis_divergence(u, w_new, faces=(wx, wy)))
    taxis *= dt
    u_star = np.subtract(u, taxis, out=taxis)
    face_speed = _face_speed(params, vx, vy, wx, wy)
    del vx, vy, wx, wy
    u_dd = _cg_helmholtz(grid, u_star, 1.0, dt, num.elliptic_tol)
    if params.kinetics.is_zero:
        u_rx = u_dd
    else:
        u_rx = u_dd + dt * params.kinetics.f(np.maximum(u_dd, 0.0), w_new)
    removed = np.negative(u_rx)
    clipped = grid.integrate(np.maximum(removed, 0.0, out=removed))
    u_new = np.maximum(u_rx, 0.0, out=u_rx)

    status = "ok"
    if (
        not np.all(np.isfinite(u_new))
        or not np.all(np.isfinite(v_new))
        or not np.all(np.isfinite(w_new))
        or np.max(u_new) > num.overflow_guard
    ):
        status = "diverged"
    return State(t=state.t + dt, u=u_new, v=v_new, w=w_new, status=status,
                 clipped_mass=clipped, face_speed=face_speed)


def initial_state(grid: Grid, params: ModelParams, ic: InitialData,
                  num: Numerics = Numerics()) -> State:
    """Validated state at t = 0.  The chemical is a copy of ic.v0, or the
    elliptic solve (I - Lap) v = u0 when tau = 0 or v0 is None; a solved v
    is output, not input, so rounding may leave it slightly below zero."""
    ic.validate(grid, params.tau)
    if params.tau == 0.0 or ic.v0 is None:
        v = solve_elliptic_v(grid, ic.u0, num.elliptic_tol)
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
    tiny = 1e-12 * t_end          # the run's time resolution
    if not observe_interval >= tiny:
        raise ValueError(f"observe_interval must be at least 1e-12 * t_end = {tiny:.3g}, "
                         f"got {observe_interval}")

    state = initial_state(grid, params, ic, num)
    consts = DerivedConstants.from_ic(grid, ic)
    result = RunResult()
    result.records.append(
        diagnostics.make_record(grid, params, state, consts, num, residual=0.0, dt=0.0)
    )
    next_obs = observe_interval
    while state.t < t_end - tiny:
        if state.face_speed is None:
            dt = dt_cfl(grid, params, state.v, state.w, num.dt_max, num.cfl_safety)
        else:
            dt = _dt_from_speed(grid, state.face_speed, num.dt_max, num.cfl_safety)
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
            )
            result.records.append(
                diagnostics.make_record(grid, params, state, consts, num,
                                        residual=residual, dt=dt)
            )
            next_obs = observe_interval * (math.floor((state.t + tiny) / observe_interval) + 1)
        if state.status != "ok":
            result.status = "diverged"
            result.diverged_t = state.t
            break
    result.final = state
    return result
