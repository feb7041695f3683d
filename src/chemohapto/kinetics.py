"""Kinetic source terms f(u, w) and their asymptotic threshold quantities.

Every source is a member of one family, class Kinetics, whose constructor
makes f nonincreasing in the adhesive level w.  Hence the sup of f and the
inf of -f over w in [0, w_max] both sit at w = 0, and the threshold
quantities below (the mass cap and the damping rates) evaluate f(s, 0)
only.  The damping-rate estimator measures how strongly -f dominates s^2
divided by a product of iterated logarithms, which is the quantity that
separates bounded from potentially aggregating dynamics when the chemical
responds instantaneously.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def e_tower(m: int) -> float:
    """m-fold exponential of 1: e_tower(0) = 1, e_tower(1) = e, ...

    Raises OverflowError beyond the double-precision range; in practice
    only m <= 3 is finite (e_tower(3) is about 3.81e6).
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"tower height m must be a nonnegative integer, got {m}")
    if m > 4:
        raise OverflowError(f"e_tower({m}) exceeds double precision")
    v = 1.0
    for _ in range(m):
        try:
            v = math.exp(v)
        except OverflowError:
            raise OverflowError(f"e_tower({m}) exceeds double precision") from None
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
    It also records a linear envelope f(s, w) <= cap_a - cap_b*s on s > 0,
    w >= 0 for the mass cap: cap_b = c and cap_a the numerical sup of
    f(s, 0) + c*s when c > 0; else cap_b = r and the closed form
    cap_a = r*(a + 1)^2 / (4*lam); None for the zero source.
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
            self.cap_a = self.cap_b = None
        elif self.c > 0:
            self.cap_b = self.c
            self.cap_a = _sup_f_plus_eta(self, self.c)
        elif self.lam > 0:
            # sup_s of f(s, 0) + r*s = r*s*(a + 1 - lam*s) is at most this
            self.cap_b = self.r
            self.cap_a = self.r * (self.a + 1.0) ** 2 / (4.0 * self.lam)
        else:
            raise ValueError("a growing source needs damping: c > 0 or lam > 0")

    @property
    def is_zero(self) -> bool:
        return self.r == 0.0 and self.c == 0.0

    def f(self, s, w):
        """The source at densities s and adhesive levels w, vectorized over
        arrays; a float when both are scalars."""
        s = np.asarray(s, dtype=float)
        w = np.asarray(w, dtype=float)
        if self.r:
            bracket = self.a - self.lam * s - w if self.lam else self.a - w
            out = (s if self.r == 1.0 else self.r * s) * bracket   # 1*s == s
        else:
            out = np.zeros(np.broadcast(s, w).shape)
        if self.c:
            safe = np.maximum(s, 1e-300)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                damp = self._damping(safe)
            out = out - np.where(s > 0.0, damp, 0.0)
        return float(out) if np.ndim(out) == 0 else out

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
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"log depth k must be an integer >= 1, got {k}")
        if k > 4:
            raise ValueError(f"log depth k must be <= 4 (tower overflow), got {k}")
        self.k = int(k)
        self.mu = _positive("damping rate mu", mu)
        super().__init__(r=1.0, a=1.0, c=self.mu, depths=range(1, self.k + 1))


_KINETICS_TYPES = {cls.name: cls for cls in (
    ZeroKinetics, LogisticKinetics, PowerSubLogistic, LogLogSubLogistic,
    IteratedLogKinetics)}


def make_kinetics(kind: str, **params) -> Kinetics:
    """Factory used by config parsing; validates the variant name and its
    parameter names against the class's PARAMS."""
    key = kind.strip().lower()
    if key not in _KINETICS_TYPES:
        raise ValueError(
            f"unknown kinetics type '{kind}'; choose from {sorted(_KINETICS_TYPES)}"
        )
    cls = _KINETICS_TYPES[key]
    names = cls.PARAMS
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing:
        raise ValueError(f"kinetics '{key}' requires parameters {names}, missing {missing}")
    if extra:
        raise ValueError(f"kinetics '{key}' takes parameters {names}, got extra {extra}")
    if "k" in params:
        kf = params["k"]
        if float(kf) != int(float(kf)):
            raise ValueError(f"log depth k must be an integer, got {kf}")
        params = dict(params, k=int(float(kf)))
    return cls(**params)


# ----------------------------------------------------------------------
# linear envelope and mass cap


def _sup_f_plus_eta(spec: Kinetics, eta: float) -> float:
    """sup over s > 0, w >= 0 of f(s, w) + eta*s.

    Finite whenever eta <= cap_b.  By the Kinetics contract the sup over w
    sits at w = 0; the s sweep uses a log-spaced bracket that expands until
    the maximum is interior and the tail decays, then a bounded 1D
    refinement.
    """

    def envelope(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return spec.f(s, 0.0) + eta * s

    s_hi = 1e8
    for _ in range(12):
        s_grid = np.geomspace(1e-9, s_hi, 4096)
        vals = envelope(s_grid)
        j = int(np.argmax(vals))
        interior = j < len(s_grid) - 410        # peak clear of the upper edge
        tail_drops = vals[-1] < vals[j] - 1e-9 * (1.0 + abs(vals[j]))
        if interior and tail_drops:
            break
        s_hi *= 100.0
        if s_hi > 1e60:
            raise RuntimeError("inner envelope sup did not stabilize under bracket expansion")
    lo = s_grid[max(j - 1, 0)]
    hi = s_grid[min(j + 1, len(s_grid) - 1)]
    res = minimize_scalar(
        lambda t: -float(envelope(math.exp(t))[0]),
        bounds=(math.log(lo), math.log(hi)),
        method="bounded",
        options={"xatol": 1e-13},
    )
    peak = max(float(vals[j]), -float(res.fun))
    # tiny inflation so the recorded envelope is a certified upper bound
    return peak + 1e-9 * (1.0 + abs(peak))


def _golden_min(fun, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    """Golden-section minimizer on [lo, hi]; returns (x, fun(x))."""
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    if fc < fd:
        return c, fc
    return d, fd


def _check_w_max(w_max: float) -> None:
    if not (math.isfinite(w_max) and w_max >= 0):
        raise ValueError(f"w_max must be finite and >= 0, got {w_max}")


def mass_cap(spec: Kinetics, u0_mass: float, area: float, w_max: float = 0.0) -> float:
    """A-priori cap on the total cell mass integral.

    Returns u0_mass for the zero source; otherwise
    u0_mass + area * inf_{eta in (0, cap_b]} sup_{s, w} (f(s, w) + eta*s) / eta,
    with the correction term floored at zero.  The infimum is located by a
    coarse log-spaced scan refined with a golden-section search in log(eta).

    w_max (the largest adhesive level, finite and >= 0) is validated but
    does not change the result: by the Kinetics contract the sup over
    w in [0, w_max] is attained at w = 0.

    The floor matters for sources that are negative for every s > 0 (the
    iterated-log family with k >= 2 dips to -mu*e_tower(k-1) near s = 0):
    there the differential bound m' <= area*sup - eta*m caps m by
    max(m(0), area*sup/eta), which degenerates to the initial mass itself.
    """
    if u0_mass < 0:
        raise ValueError(f"u0_mass must be nonnegative, got {u0_mass}")
    if area <= 0:
        raise ValueError(f"area must be positive, got {area}")
    _check_w_max(w_max)
    if spec.is_zero:
        return float(u0_mass)
    b_cap = spec.cap_b

    def per_eta(log_eta):
        eta = math.exp(log_eta)
        return _sup_f_plus_eta(spec, eta) / eta

    log_hi = math.log(b_cap)
    log_lo = log_hi + math.log(1e-8)
    coarse = np.linspace(log_lo, log_hi, 33)
    cvals = [per_eta(t) for t in coarse]
    j = int(np.argmin(cvals))
    lo = coarse[max(j - 1, 0)]
    hi = coarse[min(j + 1, len(coarse) - 1)]
    _, best = _golden_min(per_eta, lo, hi, tol=1e-12)
    best = min(best, cvals[j])
    return float(u0_mass + area * max(best, 0.0))


# ----------------------------------------------------------------------
# extended damping rate


def default_schedule(r: int, n: int = 64, s_max: float = 1e12) -> np.ndarray:
    """Geometric sample schedule for the order-r damping rate.

    Starts above e_tower(r) so that all iterated logs in the weight are
    positive with margin.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"damping order r must be an integer >= 1, got {r}")
    s_lo = max(100.0, 1.5 * e_tower(r))
    if not s_lo < s_max / 100.0:
        raise ValueError(f"schedule for r={r} cannot reach s_max={s_max}")
    return np.geomspace(s_lo, s_max, n)


def damping_rate_estimate(
    spec: Kinetics,
    r: int,
    w_max: float = 0.0,
    schedule: np.ndarray | None = None,
    divergence_threshold: float = 1e6,
) -> float:
    """Estimate of the order-r damping rate of the source term.

    The sampled quantity is
        min_w (-f(s, w)) * prod_{i=1}^{r} iter_log(i, s) / s^2
    over a geometric schedule in s, the min taken over w in [0, w_max].
    By the Kinetics contract it sits at w = 0, so w_max (finite, >= 0) is
    validated but does not change the result.  The estimator inspects the
    tail half:

    * monotone growth that is still gaining more than one percent across
      the tail (or values past the divergence threshold) reports math.inf;
    * monotone decay is extrapolated linearly in 1/iter_log(r+1, s) and
      clipped to [0, tail minimum], which resolves limits that vanish
      slower than any sampled value;
    * otherwise the tail minimum is returned.

    Zero sources give exactly 0.0.
    """
    _check_w_max(w_max)
    if schedule is None:
        schedule = default_schedule(r)
    s = np.asarray(schedule, dtype=float)
    if s.ndim != 1 or len(s) < 16:
        raise ValueError("schedule must be a 1D array with at least 16 points")
    if np.any(np.diff(s) <= 0):
        raise ValueError("schedule must be strictly increasing")
    if s[0] <= e_tower(r):
        raise ValueError(f"schedule must start above e_tower({r}) = {e_tower(r):.6g}")

    weight = np.ones_like(s)
    for i in range(1, r + 1):
        weight = weight * iter_log(i, s)
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
        if np.max(tail) > divergence_threshold or rel_growth > 0.01:
            return math.inf
        return float(np.min(tail))
    if np.all(d < 0.0) and tail[-1] < tail[0]:
        t = 1.0 / iter_log(r + 1, s[len(vals) // 2:])
        slope, intercept = np.polyfit(t, tail, 1)
        return float(min(max(intercept, 0.0), np.min(tail)))
    return float(np.min(tail))
