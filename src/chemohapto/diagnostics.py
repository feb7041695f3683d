"""Run diagnostics: entropy-type functionals, the discrete energy identity,
the matrix curvature bound, and interpolation-inequality checks.

The energy identity is the discrete counterpart of

    d/dt int H(u) + int (2h' + z h'') |grad u|^2
        = int grad Phi(u) . grad(chi v + xi w)
          + int (h(z) + z h'(z)) f(u, w),        z = u + shift,

shared by the plain entropy density H = u log u (shift 0) and the
slow-growth densities H = (u + E_m) iterlog_m(u + E_m).  Chemotaxis and
haptotaxis enter as one drift, the gradient of the taxis potential
chi v + xi w that the step moves the cells by (ModelParams.taxis_potential).
Both sides are evaluated with face differences on the midpoint of a
performed step, so the residual measures how closely one split step
honors the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid
from .kinetics import (
    TOWER_MAX,
    e_tower,
    iter_log,
    shifted_log_deriv,
    shifted_log_weight,
)


# floor of u inside the logarithms and reciprocals of the entropy density
_EPS_U = 1e-30


def entropy(grid: Grid, u: np.ndarray) -> float:
    """int u log u with the 0 log 0 = 0 convention (log floored at _EPS_U)."""
    grid.check_shape(u)
    if np.min(u) < 0:
        raise ValueError("entropy requires a nonnegative field")
    return grid.integrate(u * np.log(np.maximum(u, _EPS_U)))


def g_functional(grid: Grid, u: np.ndarray, m: int) -> float:
    """int (u + E_m) iterlog_m(u + E_m) with E_m = e_tower(m); m <= TOWER_MAX."""
    grid.check_shape(u)
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"log order m must be an integer >= 1, got {m}")
    if m > TOWER_MAX:
        raise ValueError(f"log order m must be <= {TOWER_MAX} (tower headroom), got {m}")
    if np.min(u) < 0:
        raise ValueError("g_functional requires a nonnegative field")
    shift = e_tower(m)
    z = u + shift
    return grid.integrate(z * iter_log(m, z))


def identity_residual(grid: Grid, params, prev, state, m: Optional[int] = None) -> float:
    """|LHS - RHS| of the energy identity across the performed step from
    prev to state, whose length is state.dt.

    m = None selects the entropy density u log u; m >= 1 selects the
    shifted iterated-log density.  The time derivative is the forward
    difference of the functional; every space term is evaluated on the
    midpoint fields, with face-difference quadrature matching the
    operators of the scheme.
    """
    dt = state.dt
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive, got {dt}")
    u0, u1 = prev.u, state.u
    um = 0.5 * (u0 + u1)
    wm = 0.5 * (prev.w + state.w)

    if m is None:
        H0 = entropy(grid, u0)
        H1 = entropy(grid, u1)

        def diss_weight(z):
            return 1.0 / np.maximum(z, _EPS_U)

        carrier = um
        rweight = np.log(np.maximum(um, _EPS_U)) + 1.0
    else:
        H0 = g_functional(grid, u0, m)
        H1 = g_functional(grid, u1, m)
        shift = e_tower(m)

        def diss_weight(z):
            return shifted_log_weight(m, z)

        z = um + shift
        lg = iter_log(m, z)
        dlg = shifted_log_deriv(m, um)
        carrier = um * z * dlg - shift * (lg - 1.0)
        rweight = lg + z * dlg

    dux, duy = grid.face_diff(um)
    ux, uy = grid.face_means(um)
    dissipation = (
        float((diss_weight(ux) * dux ** 2).sum() + (diss_weight(uy) * duy ** 2).sum())
        * grid.cell_area
    )
    lhs = (H1 - H0) / dt + dissipation

    # the midpoint chemical is read only through the potential, so it is
    # freed before the energy's face differences are taken
    phi = params.taxis_potential(0.5 * (prev.v + state.v), wm)
    rhs = grid.dirichlet_energy(carrier, phi)
    rhs += grid.integrate(rweight * params.kinetics.f(um, wm))
    return abs(lhs - rhs)


def matrix_decay_violation(
    grid: Grid,
    w: np.ndarray,
    v: np.ndarray,
    tau: float,
    w0_max: float,
    kappa: float,
) -> float:
    """max over cells of -Lap w - tau * w0_max * v - kappa.

    Nonpositive values mean the pointwise curvature bound holds; small
    positive values shrink at second order under refinement.
    """
    excess = -grid.laplacian_neumann(w) - tau * w0_max * v - kappa
    return float(np.max(excess))


def plateau_ratio(times: np.ndarray, values: np.ndarray) -> float:
    """max of values over the second half of the time window divided by the
    max over the first half; the growth detector for sup-norm histories."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 2 or len(times) != len(values):
        raise ValueError("plateau_ratio needs matching time/value arrays, length >= 2")
    t_mid = 0.5 * (times[0] + times[-1])
    first = values[times <= t_mid]
    second = values[times > t_mid]
    if len(first) == 0 or len(second) == 0:
        raise ValueError("plateau_ratio needs records in both halves of the window")
    denom = float(np.max(first))
    if denom <= 0:
        return math.inf if np.max(second) > 0 else 1.0
    return float(np.max(second)) / denom


# ----------------------------------------------------------------------
# per-record summary


@dataclass
class DiagnosticsRecord:
    """One row of the time-series output; field order fixes the CSV columns."""

    t: float
    mass: float
    l2_u: float
    linf_u: float
    entropy: float
    g_m: float
    grad_v_l4: float
    linf_grad_v: float
    linf_grad_w: float
    identity_residual: float
    delta_w_violation_max: float
    clipped_mass: float
    dt: float


def make_record(grid, params, prev, state, consts) -> DiagnosticsRecord:
    """Row of state; its identity residual is that of the step from prev,
    and 0.0 for a state no step made (prev None)."""
    u, v, w = state.u, state.v, state.w
    residual = 0.0 if prev is None else identity_residual(grid, params, prev, state)
    grad_v = grid.grad_magnitude(v)
    return DiagnosticsRecord(
        t=state.t,
        mass=grid.integrate(u),
        l2_u=grid.norm(u, 2),
        linf_u=grid.norm(u, math.inf),
        entropy=entropy(grid, u),
        g_m=g_functional(grid, u, 1),
        grad_v_l4=grid.norm(grad_v, 4),
        linf_grad_v=grid.norm(grad_v, math.inf),
        linf_grad_w=grid.grad_norm(w, math.inf),
        identity_residual=residual,
        delta_w_violation_max=matrix_decay_violation(
            grid, w, v, params.tau, consts.w0_max, consts.kappa
        ),
        clipped_mass=state.clipped_mass,
        dt=state.dt,
    )


# ----------------------------------------------------------------------
# interpolation constants


# exp(t) for t <= -748 is below 2^-1079 and rounds to +0 (gn_constant_estimate)
_EXP_ZERO_BELOW = -748.0

# gn_constant_estimate skips a member of its test family whose separable
# ratio, widened by _BOUND_MARGIN, does not beat the running best.  The
# bound is trusted only for a peak of at least _BOUND_MIN_PEAK and when
# every sum it is built from, with and without the cell area, lies in
# [_BOUND_MIN_SUM, inf): there a grid lane that underflows or overflows
# cannot move a norm by more than rounding.
_BOUND_MARGIN = 1e-9
_BOUND_MIN_PEAK = 1e-30
_BOUND_MIN_SUM = 2.0 ** -960

# the largest order p gn_constant_estimate takes: see its docstring
_GN_P_MAX = 256.0


def _gn_delta(p: float, q: float) -> float:
    # two space dimensions: 1/p = (1 - delta)/q along the scaling line
    return 1.0 - q / p


def _gaussian_bump(grid: Grid, cx: float, cy: float, log_sigma: float,
                   base: float) -> np.ndarray:
    """base + exp(-|x - c|^2 / (2 sigma^2)) at the cell centers."""
    sig = math.exp(log_sigma)
    t = ((grid.x - cx) ** 2)[:, None] + ((grid.y - cy) ** 2)[None, :]
    t = -t / (2.0 * sig * sig)
    phi = np.exp(t, out=np.zeros(t.shape), where=~(t <= _EXP_ZERO_BELOW))
    phi += base
    return phi


def _separable_bound(grid: Grid, p: float, q: float, sp, sq, sg, peak) -> tuple:
    """(bound, safe) of test fields phi given by 1-D sums.

    sp, sq and sg are the sums over the cells of phi^p, phi^q and of the
    squared face differences over h, without the cell area, and peak is
    max phi.  bound is the ratio gn_constant_estimate takes, built from
    them; safe marks where it may stand in for the ratio of the grid field:
    bound is finite, peak is at least _BOUND_MIN_PEAK and every sum, with
    and without the cell area, lies in [_BOUND_MIN_SUM, inf).  A nan sum is
    never safe.
    """
    delta = _gn_delta(p, q)
    cell = grid.cell_area
    with np.errstate(all="ignore"):
        bound = (cell * sp) ** (1.0 / p) / (
            (cell * sg) ** (0.5 * delta) * (cell * sq) ** ((1.0 - delta) / q)
            + (cell * sq) ** (1.0 / q))
        safe = np.isfinite(bound) & (peak >= _BOUND_MIN_PEAK)
        for s in (sp, sq, sg):
            for v in (s, cell * s):
                safe &= (v >= _BOUND_MIN_SUM) & (v < math.inf)
    return bound, safe


# the cosine modes |cos(i pi x / Lx) cos(j pi y / Ly) + c| of
# gn_constant_estimate: (i, j) pairs and offsets c, in the order it visits them
_MODE_INDICES = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))
_MODE_OFFSETS = (0.0, 0.5, 1.0)
# the anchors of its bumps along each side, as fractions of the side
_BUMP_ANCHORS = (0.0, 0.5, 1.0)
# the highest integer order whose sum over a mode with an offset is expanded
# binomially; the rounding argument of gn_constant_estimate holds up to here
_BINOMIAL_MAX_ORDER = 8


def _gn_family(grid: Grid, p: float, q: float) -> list:
    """(build, start, bound, safe) of each member of gn_constant_estimate's
    test family, in the order it visits them: the constant, the 18 cosine
    modes and the 54 anchor bumps.

    build() makes the member on the grid, and start is a bump's
    pattern-search start [cx, cy, log_sigma, 0.0] (None for a mode).
    bound is the member's ratio built from the 1-D sums of one factor
    table per axis, and safe marks where it may stand in for the ratio of
    the grid field (_separable_bound); a member that does not factor gets
    a nan bound, which is never safe.
    """
    binomial = (float(p).is_integer() and float(q).is_integer()
                and p <= _BINOMIAL_MAX_ORDER)
    orders = {p, q, 2.0} | (set(range(0, int(p) + 1, 2)) if binomial else set())
    log_sigs = [math.log(s) for s in np.geomspace(
        max(grid.hx, grid.hy), 0.25 * min(grid.Lx, grid.Ly), 6)]
    # 2 sigma^2 with the sigma that _gaussian_bump rebuilds from log_sigma
    s2 = np.array([2.0 * math.exp(ls) * math.exp(ls) for ls in log_sigs])

    def axis(x, L, h):
        # the factor table: row 3 i + k is |cos(i pi x / L) + c_k| and row
        # 9 + 6 anchor + width a Gaussian; per row its peak, sums and G, the
        # sum of squared face differences over h, and per index G of the
        # cosine itself
        cos = np.array([np.cos(i * math.pi * x / L) for i in range(3)])
        d = (x - np.array([f * L for f in _BUMP_ANCHORS])[:, None]) ** 2
        f = np.concatenate([
            np.abs(cos[:, None, :] + np.array(_MODE_OFFSETS)[:, None]).reshape(9, -1),
            np.exp(-d[:, None, :] / s2[:, None]).reshape(18, -1)])
        diff, dcos = (np.diff(a, axis=-1) / h for a in (f, cos))
        return (cos, f.max(axis=-1), {s: (f ** s).sum(axis=-1) for s in orders},
                (diff * diff).sum(axis=-1), (dcos * dcos).sum(axis=-1))

    # the constant is the mode (0, 0) at c = 0: cos 0 = 1 and |1 + 0| = 1
    modes = [(0, 0, 0)] + [(i, j, k) for i, j in _MODE_INDICES
                           for k in range(len(_MODE_OFFSETS))]
    starts = [[fx * grid.Lx, fy * grid.Ly, ls, 0.0] for fx in _BUMP_ANCHORS
              for fy in _BUMP_ANCHORS for ls in log_sigs]
    # each member's factor rows: at i = 0 or j = 0 a mode is |a + c| or
    # |b + c| times the row |1 + 0|, and at c = 0 it is |a| |b|
    rows = ([(3 * i + (k if j == 0 else 0), 3 * j + (k if i == 0 else 0))
             for i, j, k in modes]
            + [(9 + 6 * ia + w, 9 + 6 * ib + w) for ia in range(3)
               for ib in range(3) for w in range(6)])
    ra, rb = np.array(rows).T
    with np.errstate(all="ignore"):
        cos_a, peak_a, sums_a, g_a, gcos_a = axis(grid.x, grid.Lx, grid.hx)
        cos_b, peak_b, sums_b, g_b, gcos_b = axis(grid.y, grid.Ly, grid.hy)
        sp, sq = (sums_a[s][ra] * sums_b[s][rb] for s in (p, q))
        sg = g_a[ra] * sums_b[2.0][rb] + sums_a[2.0][ra] * g_b[rb]
        peak = peak_a[ra] * peak_b[rb]
        for m, (i, j, k) in enumerate(modes):
            c = _MODE_OFFSETS[k]
            if i == 0 or j == 0 or c == 0.0:
                continue
            if binomial and (i % 2 or j % 2) and c >= peak_a[3 * i] * peak_b[3 * j]:
                # a b + c >= 0, and the odd power sums of an odd-index
                # cosine vanish: sum (a b + c)^s = sum over even n of
                # C(s, n) c^(s - n) sum(a^n) sum(b^n)
                sp[m], sq[m] = (sum(math.comb(int(s), n) * c ** (s - n)
                                    * sums_a[n][3 * i] * sums_b[n][3 * j]
                                    for n in range(0, int(s) + 1, 2))
                                for s in (p, q))
                sg[m] = gcos_a[i] * sums_b[2.0][3 * j] + sums_a[2.0][3 * i] * gcos_b[j]
                peak[m] = c
            else:
                sp[m] = sq[m] = sg[m] = peak[m] = math.nan
    bound, safe = _separable_bound(grid, p, q, sp, sq, sg, peak)

    def mode(i, j, c):
        return lambda: np.abs(cos_a[i][:, None] * cos_b[j][None, :] + c)

    members = ([(mode(i, j, _MODE_OFFSETS[k]), None) for i, j, k in modes]
               + [(functools.partial(_gaussian_bump, grid, *s), s) for s in starts])
    return [(*m, b, s) for m, b, s in zip(members, bound.tolist(), safe.tolist())]


def gn_constant_estimate(grid: Grid, p: float, q: float) -> float:
    """Certified lower bound for the constant C in

        ||phi||_p <= C (||grad phi||_2^delta ||phi||_q^(1-delta) + ||phi||_q)

    with the same norm ||phi||_q in the lower-order term, obtained by
    maximizing the ratio over a deterministic test family:
    the constant field (exact floor |Omega|^(1/p - 1/q)), low Neumann
    cosine modes with and without offsets, Gaussian bumps swept over nine
    anchor points and a range of widths, and a pattern-search refinement
    of the best bump.  Enlarging the family can only raise the value.
    The orders need q >= 1 and q < p <= _GN_P_MAX (256): no member
    exceeds 3 (a mode is at most |a b + 1| <= 2, and the pattern search
    raises a bump's offset by at most 0.05 in each of its 40 rounds), so
    phi^p stays below 3^256 < 1e123, far from overflow; from p = 1024 on a
    mode's 2^p alone overflows.

    Most members of the family are never built.  The ratio of a product
    phi = a(x) b(y) factors into 1-D sums:
    ||phi||_s^s = hx hy sum(a^s) sum(b^s) for s = p, q, and
    ||grad phi||_2^2 = hx hy (G_a sum(b^2) + sum(a^2) G_b) with G the sum
    of squared face differences over h.  _gn_family takes these sums once,
    over one factor table per axis: the nine rows |cos(i pi x / L) + c|,
    i = 0, 1, 2 and c = 0, 1/2, 1, then the 18 1-D Gaussians of three
    anchors and six widths.  With a = cos(i pi x / Lx) and
    b = cos(j pi y / Ly), 69 of the 73 members are products of two rows:
    every bump exp(-|x - c|^2 / 2 sigma^2), and every mode |a b + c| with
    i = 0 or j = 0 (the 1-D field |a + c| or |b + c| times the row
    |1 + 0| = 1) or with c = 0 (|a| |b|).  The constant is the mode (0, 0)
    at c = 0.  Two more factor at c = 1 >= max|a| max|b|, where the
    modes (1, 1) and (2, 1) are a b + c >= 0 with the gradient of a b: for
    integer p and q up to _BINOMIAL_MAX_ORDER (8) the sum of (a b + c)^s
    expands binomially into the terms C(s, n) c^(s - n) sum(a^n) sum(b^n).
    Their cosine b has the odd index j = 1 and is antisymmetric about the
    middle of its axis, so its odd power sums cancel in exact arithmetic:
    only the even n are summed, and every term is nonnegative.  The two
    modes |a b + 1/2| with i, j >= 1 change sign and do not factor.  A
    member is skipped when its separable ratio times 1 + _BOUND_MARGIN
    (1e-9) is at most the running best.

    The margin dominates the rounding that separates the two ratios.  A
    grid value exp(t) of a bump has an exponent of at most 748 in
    magnitude, rounded once where the separable product rounds its two
    parts, so the values differ by a few 1e-13 relative at most; a grid
    value of a mode rounds once or twice more than its 1-D factors.  The
    norms are pairwise sums of nonnegative terms, which keep that relative
    error, and on the face differences, which may cancel, it grows by at
    most a factor of about sigma/h for a bump and L/h for a mode.  The
    binomial terms are nonnegative sums too, and the odd power sums of the
    computed cosines, which are not exactly antisymmetric, leave at most
    about s 2^(s-1) eps of the total out, 2.3e-13 at s = 8.  Over 70
    geometries (4 to 2048 cells a side, sides from 1e-300 to 1e300) the
    two ratios of a trusted bump differed by at most 1.6e-12; over 76
    such geometries and six order pairs, (4, 2) and (3, 1) among them,
    those of a trusted mode differed by at most 4.4e-15.

    The bound is trusted (safe) where it is finite, the separable peak
    (max(a) max(b) for a product, c for a binomial mode) is at least
    _BOUND_MIN_PEAK (1e-30) and every sum lies in [_BOUND_MIN_SUM, inf)
    (_separable_bound).  Far below that peak the grid's powers of a bump
    go subnormal (the 4th power of 1e-80 is 1e-320), where rounding is
    absolute rather than relative and the argument above fails.  Every
    other member is built and normed on the grid: the two modes that do
    not factor (their bound is nan), and the constant, whose G is 0.  A
    skipped member's grid ratio cannot exceed the running best, so it
    could not have replaced best or best_params.  Only a bump sets
    best_params, the start of the pattern search, and every mode comes
    before the first bump, so the value, the pattern search and its start
    are those of the unpruned sweep, bit for bit.  On the unit square the
    constant's floor 1.0 beats every member that factors, and an estimate
    builds 3 grid fields instead of 73: the constant and the modes (1, 1)
    and (2, 1) at c = 1/2.

    A mode is built as the broadcast product of the table's two 1-D
    cosines: the same per-element operations as on the 2-D meshes.  On
    the far tails of narrow bumps exp and the norms' powers underflow,
    and libm's underflow paths are slow.  They are skipped without
    changing a bit: a bump's exponent t is built from the 1-D cell
    centers by a broadcast add (the same per-element operations as on the
    2-D meshes), and exp is only taken where t > _EXP_ZERO_BELOW.  Below
    it the exact value is under 2^-1079, less than a sixteenth of the
    smallest subnormal, so the skipped lanes keep the +0 that exp rounds
    to.  Grid.norm skips its powers the same way, so every field, every
    ratio and the returned value equal those of the unmasked formulas.

    A field that is built, or one of its norms, must not overflow a
    double: near the float range the ratios are inf or nan, and a bump's
    squared distance that overflows to inf reads as a tail it is not.  An
    overflow raises ValueError.  Since no member exceeds 3, the sum in
    its p-norm is at most |Omega| 3^p: on a 1e154 x 1e154 square (area
    1e308) the 4-norm of the mode (1, 0) at c = 1, which peaks at 2,
    overflows, while on the 1e153 square every member stays finite.
    """
    if not (q >= 1 and q < p <= _GN_P_MAX):
        raise ValueError(f"need {_GN_P_MAX:g} >= p > q >= 1, got p={p}, q={q}")
    delta = _gn_delta(p, q)

    def ratio(build) -> float:
        # the ratio of the field build() makes
        try:
            with np.errstate(over="raise"):
                phi = build()
                num_ = grid.norm(phi, p)
                if num_ == 0.0:
                    return 0.0
                nq = grid.norm(phi, q)
                return num_ / (grid.grad_norm(phi, 2) ** delta * nq ** (1 - delta) + nq)
        except FloatingPointError:
            raise ValueError(f"C_GN's test fields overflow a double on the "
                             f"{grid.Lx:g} x {grid.Ly:g} domain") from None

    best, best_params = 0.0, None
    for build, start, bound, safe in _gn_family(grid, p, q):
        if safe and bound * (1.0 + _BOUND_MARGIN) <= best:
            continue
        val = ratio(build)
        if val > best:
            best, best_params = val, start

    if best_params is not None:
        # pattern search over center, log-width, and additive offset
        steps = [0.1 * grid.Lx, 0.1 * grid.Ly, 0.3, 0.05]
        for _ in range(40):
            improved = False
            for idx in range(4):
                for sgn in (+1.0, -1.0):
                    trial = list(best_params)
                    trial[idx] += sgn * steps[idx]
                    if trial[3] < 0.0:
                        continue
                    val = ratio(functools.partial(_gaussian_bump, grid, *trial))
                    if val > best:
                        best = val
                        best_params = trial
                        improved = True
            if not improved:
                steps = [s * 0.5 for s in steps]
                if max(steps) < 1e-4:
                    break
    return float(best)


@dataclass
class LogGNReport:
    """Outcome of the cutoff interpolation check.

    lam and C_eps are mpmath scalars; the constructed threshold grows like
    an m-fold exponential of the interpolation constant, far past double
    precision, while both sides of the inequality stay comparable.
    """

    holds: bool
    constructed: bool
    lam: object
    C: float
    C_eps: object
    lhs: float
    rhs: object
    m: int


def mp_exp_tower(m: int, x):
    """exp applied m times to x, in arbitrary precision (an mpmath mpf)."""
    import mpmath as mp     # only the log-interpolation check needs mpmath

    v = mp.mpf(x)
    for _ in range(m):
        v = mp.exp(v)
    return v


def _mp_iter_log(m: int, x):
    import mpmath as mp

    v = mp.mpf(x)
    for _ in range(m):
        v = mp.log(v)
    return v


# the orders and the weight of the log-type interpolation step that
# log_gn_check verifies
LOG_GN_Q = 3.0
LOG_GN_R = 1.0
LOG_GN_EPS = 0.1
# the highest log order it takes: at m = 3 the threshold tower overflows mpmath
LOG_GN_M_MAX = 2


@functools.lru_cache(maxsize=16)
def _log_gn_constant(nx: int, ny: int, lx: float, ly: float) -> float:
    # one estimate per grid, however many fields are checked
    return gn_constant_estimate(Grid(nx, ny, lx, ly), LOG_GN_Q, LOG_GN_R)


def log_gn_check(grid: Grid, phi: np.ndarray, m: int) -> LogGNReport:
    """Constructive check of the slow-weight interpolation bound

        ||phi||_q^q <= eps ||grad phi||_2^(q-r) ||g(phi)||_r^r
                       + C ||phi||_r^q + C_eps

    with g(s) = (s + E_m) iterlog_m(s + E_m), at the fixed orders and
    weight (q, r, eps) = (LOG_GN_Q, LOG_GN_R, LOG_GN_EPS) = (3, 1, 0.1)
    and m in [1, LOG_GN_M_MAX].  The constants follow the cutoff recipe:
    C1 = 2^(q-1) Chat^q from the grid interpolation constant Chat
    (gn_constant_estimate at (q, r)), the threshold lambda is the m-fold
    exponential of a target just above (2^(2q-r) C1 / eps)^(1/r), so that
    2^(2q-r) C1 (lambda / g(lambda))^r < eps, then C = 2^q C1 and
    C_eps = 2^q (2 lambda)^q |Omega|.
    """
    import mpmath as mp

    grid.check_shape(phi)
    if np.min(phi) < 0:
        raise ValueError("log_gn_check requires a nonnegative field")
    if not isinstance(m, (int, np.integer)) or not (1 <= m <= LOG_GN_M_MAX):
        raise ValueError(f"log order m must be an integer in [1, {LOG_GN_M_MAX}], got {m}: "
                         f"at m = 3 the threshold tower has too many digits for mpmath")

    q, r, eps = LOG_GN_Q, LOG_GN_R, LOG_GN_EPS
    c_hat = _log_gn_constant(grid.nx, grid.ny, grid.Lx, grid.Ly)
    C1 = 2.0 ** (q - 1.0) * c_hat ** q
    shift = e_tower(m)

    def mp_g(lam: mp.mpf) -> mp.mpf:
        z = lam + mp.mpf(shift)
        return z * _mp_iter_log(m, z)

    bound = mp.mpf(eps) / (mp.mpf(2.0) ** (2 * q - r) * mp.mpf(C1))

    def condition(lam: mp.mpf) -> bool:
        return (lam / mp_g(lam)) ** r < bound and lam > 1

    # lam = exp^m(target) passes the test: lam / g(lam) < 1 / iterlog_m(lam
    # + E_m) < 1 / target < bound^(1/r); only a non-finite target fails it
    target = float(mp.power(1 / bound, mp.mpf(1) / r)) * 1.01 + 1.0
    lam = mp_exp_tower(m, mp.mpf(target))
    if not condition(lam):
        return LogGNReport(
            holds=False, constructed=False, lam=None,
            C=float(2.0 ** q * C1), C_eps=None,
            lhs=float(grid.norm(phi, q) ** q), rhs=None, m=m,
        )

    C = 2.0 ** q * C1
    C_eps = mp.mpf(2.0) ** q * (2 * lam) ** q * mp.mpf(grid.area)

    g_phi = (phi + shift) * iter_log(m, phi + shift)
    lhs = grid.norm(phi, q) ** q
    rhs = (
        mp.mpf(eps) * mp.mpf(grid.grad_norm(phi, 2)) ** (q - r) * mp.mpf(grid.norm(g_phi, r)) ** r
        + mp.mpf(C) * mp.mpf(grid.norm(phi, r)) ** q
        + C_eps
    )
    return LogGNReport(
        holds=bool(mp.mpf(lhs) <= rhs),
        constructed=True,
        lam=lam,
        C=C,
        C_eps=C_eps,
        lhs=float(lhs),
        rhs=rhs,
        m=m,
    )
