"""Kinetic source terms f(u, w) and their asymptotic threshold quantities.

Every source is a member of one family, class Kinetics, whose constructor
makes f nonincreasing in the adhesive level w.  Hence the sup of f and the
inf of -f over w >= 0 both sit at w = 0, and the threshold quantities
below (the mass cap and the damping rates) evaluate f(s, 0) only.  The
damping-rate estimator measures how strongly -f dominates s^2 divided by
a product of iterated logarithms, which is the quantity that separates
bounded from potentially aggregating dynamics when the chemical responds
instantaneously.
"""

from __future__ import annotations

import math

import numpy as np


# the tallest tower of exponentials of 1 that is a finite double:
# e_tower(3) is about 3.81e6, and e_tower(4) = exp(3.81e6) overflows
TOWER_MAX = 3


def e_tower(m: int) -> float:
    """m-fold exponential of 1: e_tower(0) = 1, e_tower(1) = e, ...

    Defined for m <= TOWER_MAX (3); a taller tower raises OverflowError.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"tower height m must be a nonnegative integer, got {m}")
    if m > TOWER_MAX:
        raise OverflowError(f"e_tower({m}) exceeds double precision")
    v = 1.0
    for _ in range(m):
        v = math.exp(v)
    return v


def iter_log(i: int, s):
    """i-fold natural logarithm; iter_log(0, s) = s.

    Accepts scalars or arrays.  Raises ValueError if any intermediate
    value leaves the domain of the next logarithm.
    """
    if not isinstance(i, (int, np.integer)) or i < 0:
        raise ValueError(f"log iteration count must be a nonnegative integer, got {i}")
    v = np.asarray(s, dtype=float)
    for _ in range(i):
        if np.any(v <= 0.0):
            raise ValueError(f"iter_log({i}, ...) leaves the log domain")
        v = np.log(v)
    if np.ndim(s) == 0:
        return float(v)
    return v


def shifted_log_deriv(m: int, z):
    """Derivative of z -> iter_log(m, z + e_tower(m)).

    Equals the reciprocal of prod_{i=0}^{m-1} iter_log(i, z + e_tower(m)),
    hence strictly positive for z > 0.
    """
    y = np.asarray(z, dtype=float) + e_tower(m)
    prod = np.ones_like(y)
    for i in range(m):
        prod = prod * iter_log(i, y)
    out = 1.0 / prod
    if np.ndim(z) == 0:
        return float(out)
    return out


def shifted_log_weight(m: int, z):
    """Dissipation weight 2 h'(y) + y h''(y) for h = iter_log(m, .), y = z + e_tower(m).

    Closed form h'(y) * (1 - sum_{k=1}^{m-1} 1 / prod_{i=1}^{k} iter_log(i, y)).
    The bracket stays above 1 - (m-1)/e_tower(m-1), so the weight is
    strictly positive on z >= 0.
    """
    y = np.asarray(z, dtype=float) + e_tower(m)
    correction = np.zeros_like(y)
    prod = np.ones_like(y)
    for k in range(1, m):
        prod = prod * iter_log(k, y)
        correction = correction + 1.0 / prod
    out = shifted_log_deriv(m, z) * (1.0 - correction)
    if np.ndim(z) == 0:
        return float(out)
    return out


# ----------------------------------------------------------------------
# the source-term family


def _positive(what: str, value) -> float:
    """value as a float; ValueError unless it is finite and > 0."""
    if not (0.0 < value < math.inf):
        raise ValueError(f"{what} must be finite and > 0, got {value}")
    return float(value)


class Kinetics:
    """The source family f(s, w) = r*s*(a - lam*s - w) - c*s^2 / P(s), with
    P(s) = log1p(s)^gamma * prod_{i in depths} iter_log(i, s + e_tower(i - 1)).

    Every built-in source is a member; the named subclasses only validate
    their own parameters (listed in PARAMS) and map them onto the family.
    Terms with a zero coefficient are left out, so r = c = 0 gives exact
    zeros.

    The constructor requires finite coefficients with r, lam, c, gamma >= 0.
    Since df/dw = -r*s, f is then nonincreasing in w on s >= 0, which lets
    mass_cap and damping_rate_estimate evaluate the source at w = 0 only.
    It also records cap_b, the top of the damping rates eta that mass_cap
    scans (f + eta*s is bounded above for every eta in (0, cap_b]): c when
    c > 0, else r; None for the zero source.  The constructor evaluates nothing.
    """

    name = "family"
    PARAMS = ("r", "a", "lam", "c", "gamma", "depths")

    def __init__(self, r=0.0, a=0.0, lam=0.0, c=0.0, gamma=0.0, depths=()):
        if not all(math.isfinite(v) for v in (r, a, lam, c, gamma)):
            raise ValueError(f"family coefficients must be finite, got r={r}, "
                             f"a={a}, lam={lam}, c={c}, gamma={gamma}")
        if r < 0:
            raise ValueError(f"growth rate r must be >= 0 so that f is "
                             f"nonincreasing in w, got {r}")
        if min(lam, c, gamma) < 0:
            raise ValueError(f"lam, c and gamma must be >= 0, got {lam}, {c}, {gamma}")
        if not all(isinstance(i, (int, np.integer)) and i >= 1 for i in depths):
            raise ValueError(f"log depths must be integers >= 1, got {depths}")
        self.r, self.a, self.lam = float(r), float(a), float(lam)
        self.c, self.gamma = float(c), float(gamma)
        self.depths = tuple(sorted({int(i) for i in depths}))
        self._shifts = [e_tower(i - 1) for i in self.depths]
        if self.is_zero:
            self.cap_b = None
        elif self.c > 0:
            self.cap_b = self.c
        elif self.lam > 0:
            self.cap_b = self.r
        else:
            raise ValueError("a growing source needs damping: c > 0 or lam > 0")

    @property
    def is_zero(self) -> bool:
        return self.r == 0.0 and self.c == 0.0

    def f(self, s, w):
        """The source at densities s and adhesive levels w, vectorized over
        arrays; a float when both are scalars.

        With gamma > 0 a scalar s goes through numpy's scalar pow, which
        differs from the array loop of ** in the last bit for some bases,
        so f(s, w) need not equal f(np.array([s]), w)[0] bit for bit.

        The damping term is evaluated at max(s, 1e-300) and subtracted only
        where s > 0; every other entry (s <= 0 or nan) subtracts 0.0, which
        keeps the growth term's bits, -0.0 included.  When no cell has
        s > 0 (an extinct field) the damping is not evaluated at all.
        """
        s = np.asarray(s, dtype=float)
        w = np.asarray(w, dtype=float)
        if self.r:
            bracket = self.a - self.lam * s - w if self.lam else self.a - w
            out = (s if self.r == 1.0 else self.r * s) * bracket   # 1*s == s
        else:
            out = np.zeros(np.broadcast(s, w).shape)
        if self.c:
            pos = s > 0.0
            if pos.any():
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    damp = self._damping(np.maximum(s, 1e-300))
                out = out - np.where(pos, damp, 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def _f0(self, s: float) -> float:
        """f(s, 0) for one float s, bit for bit f(np.array([s]), 0.0)[0].

        The Brent refinement of the mass cap evaluates the source one point
        at a time, where the per-call cost of numpy arrays would dominate.
        + - * / and the max with 1e-300 run on Python floats, which round
        them correctly, as numpy does.  The logarithms stay np.log and
        np.log1p called on a float, which run numpy's own float64 kernels:
        libm's math.log and math.log1p differ from those in the last bit for
        some arguments.  log1p(s)**gamma stays a one-element array power, as
        numpy's scalar pow differs from the array loop (which takes sqrt for
        gamma = 0.5).  Where the divisor is lost (s below ~1e-16), the
        log-space rebuild of _damping takes over.
        """
        out = 0.0
        if self.r:
            bracket = self.a - self.lam * s if self.lam else self.a
            out = (s if self.r == 1.0 else self.r * s) * bracket
        if not (self.c and s > 0.0):
            return out
        safe = max(s, 1e-300)
        div = float((np.log1p(np.array([safe])) ** self.gamma)[0]) if self.gamma else None
        for i, shift in zip(self.depths, self._shifts):
            lg = safe + shift
            for _ in range(i):
                lg = float(np.log(lg))
            div = lg if div is None else div * lg
        if div is None:
            return out - self.c * safe * safe
        if div > 0.0:
            return out - self.c * safe * safe / div
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return out - float(self._damping(np.array([safe]))[0])

    def _damping(self, safe):
        """c*safe^2 / P(safe) for safe > 0.

        P rounds to exactly 0 once safe is lost next to a shift (safe below
        ~1e-16), which makes the direct quotient inf or nan.  There the log
        factors are rebuilt from log1p steps, d_0 = safe,
        d_j = log1p(d_{j-1} / e_tower(i - j)), and the quotient is taken in
        log space; elsewhere the direct quotient is kept.
        """
        div = np.log1p(safe) ** self.gamma if self.gamma else None
        for i, shift in zip(self.depths, self._shifts):
            lg = safe + shift
            for _ in range(i):
                lg = np.log(lg)
            div = lg if div is None else div * lg
        if div is None:
            return self.c * safe * safe
        damp = self.c * safe * safe / div
        if not div.min(initial=math.inf) > 0.0:     # a nan min lands here too
            damp = np.asarray(damp)
            lost = ~(div > 0.0)
            s = safe[lost]
            log_damp = math.log(self.c) + 2.0 * np.log(s)
            if self.gamma:
                log_damp = log_damp - self.gamma * np.log(np.log1p(s))
            for i in self.depths:
                d = s
                for j in range(1, i + 1):
                    d = np.log1p(d / e_tower(i - j))
                log_damp = log_damp - np.log(d)
            damp[lost] = np.exp(log_damp)
        return damp

    def params(self) -> dict:
        return {k: getattr(self, k) for k in self.PARAMS}

    def __repr__(self):
        items = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({items})"


class ZeroKinetics(Kinetics):
    """No reaction, r = c = 0: f = 0, mass is conserved by transport and diffusion."""

    name = "zero"
    PARAMS = ()


class LogisticKinetics(Kinetics):
    """f(s, w) = mu*s*(1 - s - w): the family with r = mu, a = lam = 1, c = 0."""

    name = "logistic"
    PARAMS = ("mu",)

    def __init__(self, mu: float):
        self.mu = _positive("logistic rate mu", mu)
        super().__init__(r=self.mu, a=1.0, lam=1.0)


class PowerSubLogistic(Kinetics):
    """f(s, w) = s*(a - w) - b*s^2 / log(s+1)^gamma with gamma in (0, 1):
    the family with r = 1, c = b.

    The damping is weaker than quadratic by a fractional power of the
    logarithm, yet still strong enough that -f * log(s) / s^2 diverges.
    """

    name = "sublog_pow"
    PARAMS = ("a", "b", "gamma")

    def __init__(self, a: float, b: float, gamma: float):
        self.b = _positive("damping coefficient b", b)
        if not (0.0 < gamma < 1.0):
            raise ValueError(f"exponent gamma must lie in (0, 1), got {gamma}")
        super().__init__(r=1.0, a=a, c=self.b, gamma=gamma)


class LogLogSubLogistic(Kinetics):
    """f(s, w) = s*(a - w) - b*s^2 / log(log(s + e)): the family with
    r = 1, c = b, depths = {2}."""

    name = "sublog_loglog"
    PARAMS = ("a", "b")

    def __init__(self, a: float, b: float):
        self.b = _positive("damping coefficient b", b)
        super().__init__(r=1.0, a=a, c=self.b, depths=(2,))


class IteratedLogKinetics(Kinetics):
    """f(s, w) = s*(1 - w - mu*s / prod_{i=1}^{k} iter_log(i, s + e_tower(i-1))):
    the family with r = a = 1, c = mu, depths = {1..k}.

    The k-fold iterated-log divisor makes the quadratic damping as weak as
    possible while keeping the order-k damping rate equal to mu; rates of
    lower order vanish and higher orders diverge.
    """

    name = "iterlog"
    PARAMS = ("k", "mu")

    def __init__(self, k: int, mu: float):
        if isinstance(k, float) and k.is_integer():    # config reads every key as a real
            k = int(k)
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"log depth k must be an integer >= 1, got {k}")
        if k > TOWER_MAX + 1:   # the deepest factor's shift is e_tower(k - 1)
            raise ValueError(f"log depth k must be <= {TOWER_MAX + 1} (tower overflow), got {k}")
        self.k = int(k)
        self.mu = _positive("damping rate mu", mu)
        super().__init__(r=1.0, a=1.0, c=self.mu, depths=range(1, self.k + 1))


_KINETICS_TYPES = {cls.name: cls for cls in (
    ZeroKinetics, LogisticKinetics, PowerSubLogistic, LogLogSubLogistic,
    IteratedLogKinetics)}


# ----------------------------------------------------------------------
# linear envelope and mass cap


def _sup_f_plus_eta(spec: Kinetics, eta: float, brackets: dict) -> float:
    """sup over s > 0, w >= 0 of f(s, w) + eta*s.

    Finite whenever eta <= cap_b.  By the Kinetics contract the sup over w
    sits at w = 0; the s sweep uses a log-spaced bracket that expands by
    factors of 100 until the maximum is interior and the tail decays, then
    a bounded Brent refinement (_bounded_min) around the best grid point.
    A bracket that would have to reach past s = 1e60 raises ValueError
    naming the source: the sup is not resolved, and a cap taken from a
    narrower bracket could lie below it.

    brackets maps each bracket level s_hi to its grid and f(grid, 0), and
    is filled in as levels are first reached; mass_cap passes one dict for
    all its eta so that f runs once per level.
    """
    s_hi = 1e8
    # an extreme source overflows the samples to +-inf and their differences
    # to nan; the comparisons below already decide on those values
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if s_hi not in brackets:
                s_grid = np.geomspace(1e-9, s_hi, 4096)
                brackets[s_hi] = (s_grid, spec.f(s_grid, 0.0))
            s_grid, f0 = brackets[s_hi]
            vals = f0 + eta * s_grid
            j = int(np.argmax(vals))
            interior = j < len(s_grid) - 410        # peak clear of the upper edge
            tail_drops = vals[-1] < vals[j] - 1e-9 * (1.0 + abs(vals[j]))
            if interior and tail_drops:
                break
            s_hi *= 100.0
            if s_hi > 1e60:
                # no commas: the message lands in a sweep.csv cell
                source = " ".join([spec.name] + [f"{k}={v}" for k, v in spec.params().items()])
                raise ValueError(f"mass cap: no peak of f + eta*s for {source} at "
                                 f"eta = {eta:.6g} within the bracket search; it stops "
                                 f"at s = 1e60")
    lo = s_grid[max(j - 1, 0)]
    hi = s_grid[min(j + 1, len(s_grid) - 1)]
    _, fun, _ = _bounded_min(lambda t: -(spec._f0(math.exp(t)) + eta * math.exp(t)),
                             math.log(lo), math.log(hi), xatol=1e-13)
    peak = max(float(vals[j]), -fun)
    # tiny inflation so the returned sup is a certified upper bound
    return peak + 1e-9 * (1.0 + abs(peak))


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_min(fun, x1: float, x2: float, xatol: float = 1e-5, maxiter: int = 500):
    """Brent's bounded minimizer on finite x1 <= x2; returns (x, fun(x), evaluations).

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5:
    golden-section steps, parabolic steps where the parabola through the
    three best points is acceptable, never closer than tol1 to a point
    already evaluated.  The float operations and comparisons are those of
    scipy's minimize_scalar(method="bounded") (scipy 1.17), so both return
    the same bits.
    """
    a, b = x1, x2
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:                       # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_step(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e

        step = abs(rat)                         # max(step, tol1), keeping a nan
        x = xf + _sign_step(rat) * (step if not step < tol1 else tol1)
        fu = fun(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf, fx, num


def _sign_step(d: float) -> float:
    """sign(d) + (d == 0): +1 for d >= 0 (either zero), -1 below, nan for nan."""
    if d >= 0.0:
        return 1.0
    return -1.0 if d < 0.0 else d


def mass_cap(spec: Kinetics, u0_mass: float, area: float) -> float:
    """A-priori cap on the total cell mass integral.

    Returns u0_mass for the zero source; otherwise
    u0_mass + area * inf_{eta in (0, cap_b]} sup_{s, w} (f(s, w) + eta*s) / eta,
    with the correction term floored at zero.  The infimum is located by a
    coarse log-spaced scan refined in log(eta) by the same bounded Brent
    minimizer (_bounded_min) that refines each sup over s.  Each eta's sup
    comes from _sup_f_plus_eta (bracket scan plus Brent refinement); f(s, 0)
    on each bracket level is evaluated once and shared by all eta of the
    scan and the refinement.  A source whose sup is not resolved below
    s = 1e60 raises ValueError.  By the Kinetics contract the sup over
    w >= 0 is attained at w = 0, so the cap does not depend on the
    adhesive field.

    The floor matters for sources that are negative for every s > 0, as the
    iterated-log family is for k >= 2: at k = 2, f(s, 0) dips to -mu*e as
    s -> 0+, and for k >= 3 it falls without bound, f -> -inf as s -> 0+
    (f(1e-12, 0) = -1.1e14 at k = 3, mu = 1).  There the differential bound
    m' <= area*sup - eta*m caps m by max(m(0), area*sup/eta), which
    degenerates to the initial mass itself.
    """
    if not 0 <= u0_mass < math.inf:
        raise ValueError(f"u0_mass must be nonnegative, got {u0_mass}")
    if not 0 < area < math.inf:
        raise ValueError(f"area must be positive, got {area}")
    if spec.is_zero:
        return float(u0_mass)
    b_cap = spec.cap_b

    brackets = {}

    def per_eta(log_eta):
        eta = math.exp(log_eta)
        return _sup_f_plus_eta(spec, eta, brackets) / eta

    log_hi = math.log(b_cap)
    log_lo = log_hi + math.log(1e-8)
    coarse = np.linspace(log_lo, log_hi, 33)
    cvals = [per_eta(t) for t in coarse]
    j = int(np.argmin(cvals))
    lo = coarse[max(j - 1, 0)]
    hi = coarse[min(j + 1, len(coarse) - 1)]
    _, best, _ = _bounded_min(per_eta, lo, hi, xatol=1e-12)
    best = min(best, cvals[j])
    return float(u0_mass + area * max(best, 0.0))


# ----------------------------------------------------------------------
# extended damping rate


# a damping-rate tail that grows monotonically past this value reports math.inf
_DIVERGENCE_THRESHOLD = 1e6


def default_schedule(r: int) -> np.ndarray:
    """Geometric sample schedule for the order-r damping rate: 64 points
    up to s = 1e12.

    Starts above e_tower(r) so that all iterated logs in the weight are
    positive with margin; r > TOWER_MAX raises OverflowError from e_tower.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"damping order r must be an integer >= 1, got {r}")
    return np.geomspace(max(100.0, 1.5 * e_tower(r)), 1e12, 64)


def damping_rate_estimate(spec: Kinetics, r: int) -> float:
    """Estimate of the order-r damping rate of the source term.

    The sampled quantity is
        -f(s, 0) * prod_{i=1}^{r} iter_log(i, s) / s^2
    over default_schedule(r).  By the Kinetics contract w = 0 gives the
    infimum over all adhesive levels w >= 0.  The estimator inspects the
    tail half:

    * monotone growth that is still gaining more than one percent across
      the tail (or values past the divergence threshold) reports math.inf;
    * monotone decay is extrapolated linearly in 1/iter_log(r+1, s) and
      clipped to [0, tail minimum], which resolves limits that vanish
      slower than any sampled value;
    * otherwise the tail minimum is returned.

    Zero sources give exactly 0.0.
    """
    s = default_schedule(r)
    weight = np.ones_like(s)
    for i in range(1, r + 1):
        weight = weight * iter_log(i, s)
    # an extreme source overflows the samples to +-inf and their differences
    # to nan; the branches below read those as the answer
    with np.errstate(over="ignore", invalid="ignore"):
        vals = -spec.f(s, 0.0) * weight / (s * s)

        tail = vals[len(vals) // 2:]
        if np.all(tail == 0.0):
            return 0.0
        window = tail[-8:]
        d = np.diff(window)
        if np.all(d > 0.0):
            # a tail converging from below has already flattened out; log-type
            # divergence keeps gaining a visible fraction per decade
            rel_growth = (tail[-1] - tail[0]) / max(abs(tail[-1]), 1e-300)
            if np.max(tail) > _DIVERGENCE_THRESHOLD or rel_growth > 0.01:
                return math.inf
            return float(np.min(tail))
        if np.all(d < 0.0) and tail[-1] < tail[0]:
            t = 1.0 / iter_log(r + 1, s[len(vals) // 2:])
            slope, intercept = np.polyfit(t, tail, 1)
            return float(min(max(intercept, 0.0), np.min(tail)))
        return float(np.min(tail))
