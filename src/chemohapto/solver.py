"""Time integration of the cell / chemical / matrix system.

    u_t = Lap u - div(u grad(chi v + xi w)) + f(u, w)
    tau v_t = Lap v + u - v        (elliptic chemical when tau = 0)
    w_t = -v w

with zero-flux walls.  One step applies, in order: the chemical update
(elliptic solve or implicit Euler), the exact exponential matrix decay
with frozen chemical, explicit donor-cell transport of u under a CFL
bound, an implicit Euler diffusion solve, the explicit reaction, and a
clip at zero whose removed mass is logged.  Both linear solves are direct
solves in the cosine basis that diagonalizes the Neumann Laplacian, so
the zero mode (total mass) passes through unchanged; every solve checks
its residual and raises when it misses the target or is not finite.  A
non-finite u, v or w reaches one of those solves, so a returned step has
finite v and w, and its divergence test reads only u: the state is
flagged when max u is not <= the overflow guard.  The cells move with
one velocity, the gradient of the taxis potential chi v + xi w, which
ModelParams.taxis_potential forms for the step, dt_cfl and the energy
identity alike.  The step takes the face differences of that potential
once, passes them to the donor-cell transport as its face drift, and
takes from them the uncapped CFL bound, which it stores on the returned
state with its own length: the next step's dt is that bound capped by
dt_max and the time left.
A step from an extinct carrier (u == 0 in every cell) skips the work whose
result is known exactly: the donor-cell flux of u == 0 is 0, the diffusion
solve and the elliptic chemical solve of 0 are 0, and the source is +-0 at
u == 0, so u stays +0.0 and the clip removes nothing; it checks the face
drift for finiteness instead, and raises where the full step's diffusion
solve would have met 0 * a = nan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import Grid
from .kinetics import Kinetics, _positive
from . import diagnostics


class InitialDataError(ValueError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Sensitivities and chemical relaxation time.

    chi and xi may be zero (pure diffusion runs); tau = 0 switches the
    chemical equation to its elliptic limit.  Frozen, so the check made
    when it is built holds for its life.
    """

    chi: float
    xi: float
    tau: float
    kinetics: Kinetics

    def __post_init__(self):
        for name in ("chi", "xi", "tau"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not isinstance(self.kinetics, Kinetics):
            raise ValueError("kinetics must be a Kinetics instance")

    def taxis_potential(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """chi v + xi w, whose gradient is the one velocity of the taxis
        flux: the step's transport and CFL bound and the energy identity's
        drift term all read it from here."""
        phi = self.chi * v
        phi += self.xi * w
        return phi


# relative residual of every solve of a step, or the rounding floor of
# evaluating it (see _cg_helmholtz) where that is larger: on the unit square
# the chemical solve's floor passes 1e-10 between 256^2 and 512^2 and is
# 7e-10 to 2e-9 of ||b|| at 1024^2; the diffusion solve's stays far below
ELLIPTIC_TOL = 1e-10


@dataclass(frozen=True)
class Numerics:
    """Knobs of the discrete scheme; defaults match the documented contract.
    Both must be finite and > 0 (a nan guard would turn the divergence flag
    off); run also bounds dt_max below by its t_end, see check_time_floor."""

    dt_max: float = 1e-2
    overflow_guard: float = 1e12

    def __post_init__(self):
        _positive("dt_max", self.dt_max)
        _positive("overflow_guard", self.overflow_guard)


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
        given = {"u0": self.u0, "w0": self.w0}
        if tau > 0 and self.v0 is not None:
            given["v0"] = self.v0
        for name, f in given.items():
            try:
                grid.check_shape(f)
            except ValueError as exc:
                raise InitialDataError(str(exc)) from None
            if not np.all(np.isfinite(f)):
                raise InitialDataError(f"{name} contains non-finite values")
            if np.min(f) < 0:
                raise InitialDataError(f"{name} must be nonnegative, min is {np.min(f)}")
        if not np.any(self.u0 > 0):
            raise InitialDataError("u0 must not be identically zero")
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
    ratios = [0.0]
    for d, wm in zip(grid.face_diff(w0), grid.face_means(w0)):
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
    """Trajectory point; status flips to 'diverged' when max u is not <=
    the overflow guard, so a nan or inf in u flips it too.  v and w need no
    check: a non-finite u, v or w reaches a solve of the step, whose
    residual guard raises, and w_new = w exp(-dt max(v, 0)) only shrinks w.

    dt is the length of the step that made the state (0.0 at the start).
    cfl_dt is the transport bound of its taxis potential chi v + xi w with
    no cap, +inf where no face moves; initial_state and step fill it in,
    and None means not yet computed.  A step from u == 0 gives u = +0.0
    and clipped_mass 0.0, and at tau = 0 also v = +0.0 and the same w: the
    bits of the full step, which step then skips.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    status: str = "ok"
    clipped_mass: float = 0.0
    dt: float = 0.0
    cfl_dt: Optional[float] = None


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
    c0 > 0, diff >= 0.  b is left unchanged.

    The cosine transform diagonalizes the operator exactly, so one solve is
    the whole method and no iteration runs.  The name stays because the
    benchmark's tracer times the Helmholtz layer under it.  Every call
    evaluates the residual r and raises RuntimeError unless

        ||r||_2 <= max(tol * ||b||_2, eps * (c0 + diff * lam_max) * ||x||_2),

    where the second term is the rounding floor of evaluating r itself
    (lam_max is the largest eigenvalue of -Lap); a tol below that floor
    cannot be certified by any solver.  A non-finite residual also raises.
    """
    import scipy.fft    # here, not at module top: `check` never solves
    lam = _neumann_eigenvalues(grid.nx, grid.ny, grid.hx, grid.hy)
    coef = scipy.fft.dctn(b, type=2, norm="ortho")
    denom = diff * lam             # c0 + diff * lam in one temporary, which
    denom += c0                    # is freed before the inverse transform
    coef /= denom
    del denom
    x = scipy.fft.idctn(coef, type=2, norm="ortho", overwrite_x=True)
    r = grid.laplacian_neumann(x)
    if diff != 1.0:                # 1.0 * y == y: the product is skipped
        r *= diff
    np.subtract(x if c0 == 1.0 else c0 * x, r, out=r)
    np.subtract(b, r, out=r)       # r = b - (c0 x - diff Lap x)
    rn = _norm2(r)
    target = tol * _norm2(b)
    if not rn <= target:
        # the rounding floor needs ||x||, so it is only taken when tol misses
        floor = np.finfo(float).eps * (c0 + diff * float(lam[-1, -1])) * _norm2(x)
        target = max(target, floor)
        if not rn <= target:
            raise RuntimeError(
                f"spectral Helmholtz solve missed the residual target: "
                f"||r|| = {rn:.3e} > {target:.3e} (tol={tol})"
            )
    return x


def solve_elliptic_v(grid: Grid, u: np.ndarray,
                     tol: float = ELLIPTIC_TOL) -> np.ndarray:
    """Chemical field of the elliptic limit: (I - Lap) v = u."""
    grid.check_shape(u)
    return _cg_helmholtz(grid, u, 1.0, 1.0, tol)


# ----------------------------------------------------------------------
# stepping


def _extinct(u: np.ndarray) -> bool:
    # the carrier is zero in every cell; nan is not zero.  A stepped u is
    # the clip's output, so its zeros are +0.0
    return not u.any()


def _face_speed(ax: np.ndarray, ay: np.ndarray) -> float:
    # largest |a| over the interior faces of both axes, from face_diff, and
    # nan if any face's is; overwrites its arguments, which callers no
    # longer need
    return float(np.maximum(*(np.max(np.abs(a, out=a)) for a in (ax, ay))))


# Courant number of the transport step at the largest face speed
CFL_SAFETY = 0.4


def _cfl_bound(grid: Grid, speed: float) -> float:
    if speed <= 1e-300:
        return math.inf
    return CFL_SAFETY * min(grid.hx, grid.hy) / speed


def dt_cfl(grid: Grid, params: ModelParams, v: np.ndarray, w: np.ndarray,
           dt_max: float) -> float:
    """Transport stability bound CFL_SAFETY * min(h) / max |d phi/dn| of the
    taxis potential phi = chi v + xi w, capped by dt_max > 0 (inf: no cap).
    A face speed that is nan or inf bounds nothing and raises ValueError."""
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    speed = _face_speed(*grid.face_diff(params.taxis_potential(v, w)))
    if not speed < math.inf:
        raise ValueError(f"taxis face speed must be finite, got {speed}")
    return min(dt_max, _cfl_bound(grid, speed))


def step(grid: Grid, state: State, params: ModelParams, dt: float,
         num: Numerics = Numerics()) -> State:
    """One split step of length dt from a valid state.

    Requires dt <= dt_cfl(...) for the positivity-friendly transport;
    the caller (run) guarantees this.  u moves with the one taxis velocity
    grad(chi v_new + xi w_new), upwinded once per face.  The returned state
    carries dt, the mass removed by the terminal clip at zero and the
    uncapped CFL bound of its fields, taken from the face differences the
    transport already used.  On u == 0 the transport, the diffusion solve,
    the reaction and (tau = 0) the chemical solve are skipped, as their
    results are 0 exactly; a non-finite face drift still raises
    RuntimeError, as the diffusion solve of 0 * a would.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive, got {dt}")
    u, v, w = state.u, state.v, state.w
    extinct = _extinct(u)

    if params.tau == 0.0:
        # the solve of u == 0 returns +0.0 in every cell
        v_new = v_frozen = (np.zeros(grid.shape) if extinct
                            else _cg_helmholtz(grid, u, 1.0, 1.0, ELLIPTIC_TOL))
    else:
        # implicit Euler: (tau/dt + 1 - Lap) v_new = (tau/dt) v + u
        v_new = _cg_helmholtz(grid, (params.tau / dt) * v + u, params.tau / dt + 1.0,
                              1.0, ELLIPTIC_TOL)
        v_frozen = 0.5 * (v + v_new)
    # exact decay w -> w * exp(-dt * v) with v frozen over the step;
    # the max with 0 guards the monotone decrease against solver rounding
    w_new = np.maximum(v_frozen, 0.0)
    w_new *= -dt
    np.exp(w_new, out=w_new)
    w_new *= w

    # one face_diff of the taxis potential serves the transport and the
    # face speed of the next CFL bound; the face arrays go before the solve
    ax, ay = grid.face_diff(params.taxis_potential(v_new, w_new))
    if not extinct:
        taxis = grid.taxis_divergence(u, ax, ay)
        taxis *= dt
        u_star = np.subtract(u, taxis, out=taxis)
    speed = _face_speed(ax, ay)
    cfl_dt = _cfl_bound(grid, speed)
    del ax, ay
    if extinct:
        # the transport, diffusion and reaction of u == 0 give +0.0 in every
        # cell and clip nothing; only a non-finite drift a, through 0 * a =
        # nan, would have reached the diffusion solve's guard, and then the
        # face speed is nan or inf
        if not speed < math.inf:
            raise RuntimeError("taxis face drift is not finite")
        return State(t=state.t + dt, u=np.zeros(grid.shape), v=v_new, w=w_new,
                     dt=dt, cfl_dt=cfl_dt)
    u_dd = _cg_helmholtz(grid, u_star, 1.0, dt, ELLIPTIC_TOL)
    if params.kinetics.is_zero:
        u_rx = u_dd
    else:
        u_rx = u_dd + dt * params.kinetics.f(np.maximum(u_dd, 0.0), w_new)
    removed = np.negative(u_rx)
    clipped = grid.integrate(np.maximum(removed, 0.0, out=removed))
    u_new = np.maximum(u_rx, 0.0, out=u_rx)

    # nan and inf fail the comparison, so they flag the step too
    status = "ok" if np.max(u_new) <= num.overflow_guard else "diverged"
    return State(t=state.t + dt, u=u_new, v=v_new, w=w_new, status=status,
                 clipped_mass=clipped, dt=dt, cfl_dt=cfl_dt)


def initial_state(grid: Grid, params: ModelParams, ic: InitialData) -> State:
    """Validated state at t = 0, with dt 0.0 and cfl_dt from dt_cfl with no
    cap.  The chemical is a copy of ic.v0, or the elliptic solve
    (I - Lap) v = u0 when tau = 0 or v0 is None; a solved v is output, not
    input, so rounding may leave it slightly below zero."""
    ic.validate(grid, params.tau)
    if params.tau == 0.0 or ic.v0 is None:
        v = solve_elliptic_v(grid, ic.u0, ELLIPTIC_TOL)
    else:
        v = ic.v0.copy()
    return State(t=0.0, u=ic.u0.copy(), v=v, w=ic.w0.copy(),
                 cfl_dt=dt_cfl(grid, params, v, ic.w0, math.inf))


@dataclass
class RunResult:
    records: list = field(default_factory=list)
    final: Optional[State] = None
    status: str = "ok"
    diverged_t: Optional[float] = None
    extinct_t: Optional[float] = None   # t of the first state with u == 0
    steps: int = 0
    clipped_mass: float = 0.0     # total removed by the clip, over every step


# a run's time resolution, as a fraction of t_end: times closer than this
# count as equal, so no observation interval may be finer
TIME_RESOLUTION = 1e-12


def check_time_floor(name: str, value: float, t_end: float) -> None:
    """Raise ValueError unless value >= TIME_RESOLUTION * t_end (nan fails):
    a finer dt_max or observe_interval is below the run's time resolution."""
    tiny = TIME_RESOLUTION * t_end
    if not value >= tiny:
        raise ValueError(f"{name} must be at least {TIME_RESOLUTION:g} * t_end "
                         f"= {tiny:.3g}, got {value}")


def run(grid: Grid, params: ModelParams, ic: InitialData, t_end: float,
        num: Numerics = Numerics(), observe_interval: Optional[float] = None) -> RunResult:
    """Integrate to t_end with adaptive CFL-bounded steps: each dt is the
    last state's cfl_dt capped by num.dt_max and the time left.

    Diagnostics records are appended at t = 0, then whenever the time
    passes the next observation mark, and at the final time; a diverged
    state exits early with its record included.  The mass removed by the
    clip at zero is summed over every step, observed or not.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if observe_interval is None:
        observe_interval = t_end / 128.0
    check_time_floor("observe_interval", observe_interval, t_end)
    check_time_floor("dt_max", num.dt_max, t_end)

    tiny = TIME_RESOLUTION * t_end
    state = initial_state(grid, params, ic)
    consts = DerivedConstants.from_ic(grid, ic)
    result = RunResult(records=[diagnostics.make_record(grid, params, None, state, consts)])
    next_obs = observe_interval
    while state.t < t_end - tiny:
        prev = state
        state = step(grid, prev, params, min(prev.cfl_dt, num.dt_max, t_end - prev.t), num)
        result.steps += 1
        result.clipped_mass += state.clipped_mass
        if result.extinct_t is None and _extinct(state.u):
            result.extinct_t = state.t
        if state.status != "ok" or state.t >= min(next_obs, t_end) - tiny:
            result.records.append(diagnostics.make_record(grid, params, prev, state, consts))
            next_obs = observe_interval * (math.floor((state.t + tiny) / observe_interval) + 1)
        if state.status != "ok":
            result.status = "diverged"
            result.diverged_t = state.t
            break
    result.final = state
    return result
