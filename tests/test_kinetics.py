"""Kinetic source variants, iterated-log helpers, damping rates, mass cap."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemohapto import kinetics
from chemohapto import (
    TOWER_MAX,
    Grid,
    InitialData,
    IteratedLogKinetics,
    Kinetics,
    LogisticKinetics,
    LogLogSubLogistic,
    ModelParams,
    PowerSubLogistic,
    ZeroKinetics,
    check_boundedness,
    damping_rate_estimate,
    default_schedule,
    e_tower,
    iter_log,
    mass_cap,
    shifted_log_deriv,
    shifted_log_weight,
)
from chemohapto.diagnostics import g_functional, log_gn_check


# ---------------------------------------------------------------- helpers


def test_e_tower_values():
    assert e_tower(0) == 1.0
    assert e_tower(1) == math.e
    assert e_tower(2) == pytest.approx(math.exp(math.e), rel=1e-15)
    assert e_tower(3) == pytest.approx(math.exp(math.exp(math.e)), rel=1e-15)
    # e^[4] ~ 10^1656187 does not fit a float
    with pytest.raises(OverflowError):
        e_tower(4)
    with pytest.raises(OverflowError):
        e_tower(7)
    with pytest.raises(ValueError):
        e_tower(-1)
    # one constant bounds every tower; the limit's messages are pinned
    assert math.isfinite(e_tower(TOWER_MAX))
    with pytest.raises(OverflowError, match=r"^e_tower\(4\) exceeds double precision$"):
        e_tower(TOWER_MAX + 1)
    assert IteratedLogKinetics(TOWER_MAX + 1, 1.0).depths == (1, 2, 3, 4)
    with pytest.raises(ValueError, match=re.escape(
            "log depth k must be <= 4 (tower overflow), got 5")):
        IteratedLogKinetics(TOWER_MAX + 2, 1.0)
    g = Grid(8, 8)
    u = np.ones(g.shape)
    assert math.isfinite(g_functional(g, u, TOWER_MAX))
    with pytest.raises(ValueError, match=re.escape(
            "log order m must be <= 3 (tower headroom), got 4")):
        g_functional(g, u, TOWER_MAX + 1)
    # log_gn_check stops one order lower, where its threshold tower ends
    with pytest.raises(ValueError, match=re.escape(
            "log order m must be an integer in [1, 2], got 4: "
            "at m = 3 the threshold tower has too many digits for mpmath")):
        log_gn_check(g, u, TOWER_MAX + 1)


def test_iter_log_fixed_points():
    # ln^[m](e^[m]) = 1 by construction
    for m in (1, 2, 3):
        assert iter_log(m, e_tower(m)) == pytest.approx(1.0, rel=1e-12)
    assert iter_log(0, 7.5) == 7.5
    x = np.array([10.0, 100.0])
    assert np.allclose(iter_log(1, x), np.log(x))
    assert np.allclose(iter_log(2, x), np.log(np.log(x)))


def test_iter_log_domain_errors():
    with pytest.raises(ValueError):
        iter_log(2, 1.0)      # ln(ln(1)) undefined
    with pytest.raises(ValueError):
        iter_log(1, 0.0)
    with pytest.raises(ValueError):
        iter_log(-1, 10.0)


def test_shifted_log_derivative_matches_finite_difference():
    z = np.geomspace(1e-6, 1e9, 200)
    for m in (1, 2, 3):
        shift = e_tower(m)
        h = 1e-4 * (z + shift)
        fd = (iter_log(m, z + shift + h) - iter_log(m, z + shift - h)) / (2 * h)
        rel = np.max(np.abs(fd - shifted_log_deriv(m, z)) / np.abs(fd))
        assert rel < 1e-6


def test_shifted_log_weight_positive_with_lemma_floor():
    z = np.geomspace(1e-12, 1e12, 400)
    for m in (1, 2, 3):
        d = shifted_log_deriv(m, z)
        w = shifted_log_weight(m, z)
        assert np.all(d > 0) and np.all(w > 0)
        # w/d = 1 - sum of reciprocal log products >= 1 - (m-1)/e^[m-1]
        floor = 1.0 - (m - 1) / e_tower(m - 1) if m >= 2 else 1.0
        assert np.min(w / d) >= floor - 1e-12


@pytest.mark.parametrize("fn", [shifted_log_deriv, shifted_log_weight])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_shifted_log_functions_return_a_float_for_a_scalar(fn, m):
    z = np.array([0.0, 0.5, 40.0])
    for zi, expect in zip(z.tolist(), fn(m, z)):
        out = fn(m, zi)
        assert type(out) is float and out == expect


@pytest.mark.parametrize("m", [1, 2, 3])
def test_shifted_log_functions_match_their_products_term_by_term(m):
    # the closed forms spelled out, every iterated log taken from y afresh
    # and every product and sum started at 1 and 0: taking each log once
    # and starting at the first term gives the same bits
    z = np.geomspace(1e-300, 1e300, 6001)
    y = z + e_tower(m)
    prod = np.ones_like(y)
    for i in range(m):
        prod = prod * iter_log(i, y)
    deriv = 1.0 / prod
    correction, prod = np.zeros_like(y), np.ones_like(y)
    for k in range(1, m):
        prod = prod * iter_log(k, y)
        correction = correction + 1.0 / prod
    assert shifted_log_deriv(m, z).tobytes() == deriv.tobytes()
    assert shifted_log_weight(m, z).tobytes() == (deriv * (1.0 - correction)).tobytes()


def test_weight_m1_is_pure_derivative():
    # the correction sum is void at m = 1
    z = np.geomspace(1e-9, 1e9, 50)
    assert np.array_equal(shifted_log_weight(1, z), shifted_log_deriv(1, z))


# ---------------------------------------------------------------- variants


def test_zero_kinetics():
    kin = ZeroKinetics()
    assert kin.is_zero
    assert kin.f(3.0, 1.0) == 0.0
    out = kin.f(np.ones((4, 5)), np.ones((4, 5)))
    assert out.shape == (4, 5) and np.all(out == 0.0)


def test_logistic_values_and_caps():
    kin = LogisticKinetics(2.5)
    assert kin.cap_b == 2.5
    assert not kin.is_zero
    # mu s (1 - s - w): root at s = 1 - w
    assert kin.f(1.0, 0.0) == 0.0
    assert float(kin.f(0.7, 0.3)) == pytest.approx(0.0, abs=1e-15)
    assert float(kin.f(2.0, 0.0)) == pytest.approx(-5.0)
    with pytest.raises(ValueError):
        LogisticKinetics(0.0)


def test_sublog_frozen_points():
    # literals pinned from the closed formulas evaluated by hand
    assert float(PowerSubLogistic(1, 1, 0.5).f(10.0, 0.3)) == pytest.approx(
        -57.578045141073005, rel=1e-14)
    assert float(LogLogSubLogistic(1, 1).f(10.0, 0.3)) == pytest.approx(
        -100.13974991387391, rel=1e-14)
    assert float(IteratedLogKinetics(2, 1).f(10.0, 0.3)) == pytest.approx(
        -37.68074612317852, rel=1e-14)


def test_sublog_pow_validation():
    with pytest.raises(ValueError):
        PowerSubLogistic(1.0, 1.0, 0.0)    # gamma must sit strictly inside (0,1)
    with pytest.raises(ValueError):
        PowerSubLogistic(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PowerSubLogistic(1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        PowerSubLogistic(1.0, -1.0, 0.5)   # damping must be positive


def test_iterlog_validation():
    with pytest.raises(ValueError):
        IteratedLogKinetics(0, 1.0)
    with pytest.raises(ValueError):
        IteratedLogKinetics(5, 1.0)
    with pytest.raises(ValueError):
        IteratedLogKinetics(2, 0.0)


def test_source_vanishes_at_zero_density():
    for kin in (ZeroKinetics(), LogisticKinetics(1.0),
                PowerSubLogistic(1, 1, 0.5), LogLogSubLogistic(1, 1),
                IteratedLogKinetics(2, 1.0)):
        s = np.array([0.0, 1.0])
        vals = kin.f(s, np.array([0.4, 0.4]))
        assert vals[0] == 0.0 and np.isfinite(vals[1])


def test_envelope_bound_all_variants():
    # f(s, w) <= sup - cap_b s with sup = sup_s (f(s, 0) + cap_b s), sampled
    # over a wide random cloud
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.random(300) * 5, np.geomspace(1e-6, 1e8, 300)])
    w = rng.random(600) * 2.0
    for kin in (LogisticKinetics(1.0), PowerSubLogistic(1, 1, 0.5),
                LogLogSubLogistic(1, 1), IteratedLogKinetics(1, 1.0),
                IteratedLogKinetics(3, 0.5)):
        sup = kinetics._sup_f_plus_eta(kin, kin.cap_b, {})
        gap = kin.f(s, w) - (sup - kin.cap_b * s)
        assert np.max(gap) <= 1e-9 * np.maximum(1.0, np.abs(sup))


def test_iterlog_takes_an_integral_real_k():
    # config reads every key as a real; the class owns the integrality rule
    kin = IteratedLogKinetics(2.0, 1.5)
    assert type(kin.k) is int and kin.k == 2 and kin.depths == (1, 2)
    with pytest.raises(ValueError, match=re.escape(
            "log depth k must be an integer >= 1, got 2.5")):
        IteratedLogKinetics(2.5, 1.0)


# ---------------------------------------------------------------- mass cap


def test_mass_cap_zero_is_initial_mass():
    assert mass_cap(ZeroKinetics(), 3.7, 2.0) == 3.7


def test_mass_cap_logistic_closed_form():
    # inner sup of mu s(1-s) + eta s is (mu+eta)^2/(4 mu); sup/eta is
    # minimized at eta = mu where it equals 1, so the cap is
    # u0_mass + area exactly, for every mu
    got = mass_cap(LogisticKinetics(1.0), 4.0, 1.0)
    assert abs(got - 5.0) <= 1e-8
    got = mass_cap(LogisticKinetics(2.0), 1.0, 3.0)
    assert abs(got - 4.0) <= 1e-8


def test_mass_cap_never_below_initial_mass():
    # the iterated-log family with k >= 2 is negative for every s > 0 at
    # mu = 1, so the optimized correction floors at zero
    for kin in (IteratedLogKinetics(2, 1.0), IteratedLogKinetics(3, 1.0),
                PowerSubLogistic(1, 1, 0.5), LogLogSubLogistic(1, 1)):
        got = mass_cap(kin, 4.0, 1.0)
        assert got >= 4.0
    assert mass_cap(IteratedLogKinetics(2, 1.0), 4.0, 1.0) == 4.0


def test_mass_cap_validation():
    with pytest.raises(ValueError):
        mass_cap(ZeroKinetics(), -1.0, 1.0)
    with pytest.raises(ValueError):
        mass_cap(ZeroKinetics(), 1.0, 0.0)


# ---------------------------------------------------------------- damping


def test_schedule():
    s = default_schedule(1)
    assert len(s) == 64 and s[0] >= 100.0 and s[-1] == pytest.approx(1e12)
    assert np.all(np.diff(s) > 0)
    s3 = default_schedule(3)
    assert s3[0] >= 1.5 * e_tower(3)
    with pytest.raises(ValueError):
        default_schedule(0)


def test_damping_zero_kinetics_exact():
    for r in (1, 2, 3):
        assert damping_rate_estimate(ZeroKinetics(), r) == 0.0


def test_damping_logistic_flags_infinite():
    assert math.isinf(damping_rate_estimate(LogisticKinetics(1.0), 1))
    assert math.isinf(damping_rate_estimate(LogisticKinetics(0.1), 2))


def test_damping_sublog_variants_flag_infinite():
    assert math.isinf(damping_rate_estimate(PowerSubLogistic(1, 1, 0.5), 1))
    assert math.isinf(damping_rate_estimate(LogLogSubLogistic(1, 1), 1))


def test_damping_iterlog_table():
    # rate r < k sees vanishing damping, r = k recovers mu, r > k diverges
    for k, mu in ((1, 1.0), (2, 1.0), (2, 2.0), (3, 1.0)):
        kin = IteratedLogKinetics(k, mu)
        for r in range(1, k):
            est = damping_rate_estimate(kin, r)
            assert abs(est) < 1e-2 * mu
        est_k = damping_rate_estimate(kin, k)
        assert abs(est_k - mu) <= 0.05 * mu
        if k + 1 <= 3:
            assert math.isinf(damping_rate_estimate(kin, k + 1))


def test_damping_order_four_needs_unrepresentable_samples():
    # a schedule for r = 4 must start above e^[4] ~ 10^1656187
    with pytest.raises(OverflowError):
        damping_rate_estimate(IteratedLogKinetics(3, 1.0), 4)


# ---------------------------------------------------------------- w contract

BUILTINS = (
    ZeroKinetics(), LogisticKinetics(1.0), PowerSubLogistic(1, 1, 0.5),
    LogLogSubLogistic(1, 1), IteratedLogKinetics(1, 1.0),
    IteratedLogKinetics(2, 1.0), IteratedLogKinetics(3, 1.0),
    IteratedLogKinetics(4, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, 1e8), w1=st.floats(0.0, 10.0), dw=st.floats(0.0, 10.0))
@example(s=1e-200, w1=0.0, dw=0.5)     # iterated-log divisors round to 0 here
def test_every_builtin_is_nonincreasing_in_w(s, w1, dw):
    # the Kinetics contract that lets the threshold quantities use w = 0
    for kin in BUILTINS:
        assert kin.f(s, w1 + dw) <= kin.f(s, w1)


def test_scalar_arguments_give_a_float():
    for kin in BUILTINS:
        assert type(kin.f(3.0, 1.0)) is float
        assert type(kin.f(0.0, 0.0)) is float


# ---------------------------------------------------------------- one family


def test_named_sources_only_map_onto_the_family():
    for kin in BUILTINS:
        cls = type(kin)
        assert not {"f", "params", "is_zero"} & set(vars(cls))
        assert isinstance(kin, Kinetics)
        assert list(kin.params()) == list(cls.PARAMS)
        assert cls(**kin.params()).params() == kin.params()


def test_family_rejects_negative_growth_rate():
    with pytest.raises(ValueError, match="growth rate r"):
        Kinetics(r=-1.0, c=1.0)
    with pytest.raises(ValueError, match="growth rate r"):
        Kinetics(r=-1e-300, lam=1.0)
    # r = 0 with damping is a member: nonincreasing in w, never positive
    kin = Kinetics(c=2.0, depths=(1,))
    assert not kin.is_zero and kin.cap_b == 2.0
    assert np.all(kin.f(np.array([0.0, 0.5, 3.0]), 1.0) <= 0.0)


def test_family_rejects_other_bad_coefficients():
    for bad in (dict(r=1.0, a=1.0),                     # growth without damping
                dict(r=1.0, a=math.inf, c=1.0),
                dict(r=math.nan, c=1.0),
                dict(c=-1.0),
                dict(c=1.0, gamma=-0.5),
                dict(c=1.0, depths=(0,)),
                dict(c=1.0, depths=(1.5,))):
        with pytest.raises(ValueError):
            Kinetics(**bad)


def test_constructors_reject_non_finite_coefficients():
    for make in (lambda v: LogisticKinetics(v),
                 lambda v: IteratedLogKinetics(2, v),
                 lambda v: PowerSubLogistic(1.0, v, 0.5),
                 lambda v: PowerSubLogistic(v, 1.0, 0.5),
                 lambda v: LogLogSubLogistic(1.0, v),
                 lambda v: LogLogSubLogistic(v, 1.0)):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                make(bad)


# The closed forms of the five sources as they stood before they were folded
# into one family; the family must reproduce them bit for bit.


def _ref_damping(coef, safe, divisor, depths):
    damp = np.asarray(coef * safe * safe / divisor)
    lost = ~(divisor > 0.0)
    if np.any(lost):
        s = safe[lost]
        log_damp = math.log(coef) + 2.0 * np.log(s)
        for i in depths:
            d = s
            for j in range(1, i + 1):
                d = np.log1p(d / e_tower(i - j))
            log_damp = log_damp - np.log(d)
        damp[lost] = np.exp(log_damp)
    return damp


def _ref_zero(kin, s, w):
    shape = np.broadcast_shapes(np.shape(s), np.shape(w))
    return 0.0 if shape == () else np.zeros(shape)


def _ref_logistic(kin, s, w):
    s = np.asarray(s, dtype=float)
    return kin.mu * s * (1.0 - s - np.asarray(w, dtype=float))


def _ref_sublog(damping):
    def f(kin, s, w):
        s = np.asarray(s, dtype=float)
        w = np.asarray(w, dtype=float)
        safe = np.maximum(s, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            damp = damping(kin, safe)
        damp = np.where(s > 0.0, damp, 0.0)
        growth = s * (kin.a - w) if hasattr(kin, "b") else s * (1.0 - w)
        out = growth - damp
        if np.ndim(s) == 0 and np.ndim(w) == 0:
            return float(out)
        return out
    return f


def _ref_log_product(kin, s):
    prod = np.ones_like(s)
    for i in range(1, kin.k + 1):
        prod = prod * iter_log(i, s + e_tower(i - 1))
    return prod


REFERENCE = {
    "zero": _ref_zero,
    "logistic": _ref_logistic,
    "sublog_pow": _ref_sublog(
        lambda kin, safe: kin.b * safe * safe / np.log1p(safe) ** kin.gamma),
    "sublog_loglog": _ref_sublog(
        lambda kin, safe: _ref_damping(kin.b, safe, np.log(np.log(safe + math.e)), (2,))),
    "iterlog": _ref_sublog(
        lambda kin, safe: _ref_damping(kin.mu, safe, _ref_log_product(kin, safe),
                                       range(1, kin.k + 1))),
}

# (source, sup_s (f(s, 0) + cap_b s), cap_b, mass_cap(source, 4, 1),
# mu_1..mu_3).  The zero and logistic rows follow from closed forms; every
# other value is a recorded output of the code.  The last bits of the
# iterlog k = 1, mu = 1 cap are set by the relative stopping term of the
# Brent refinement in log(eta).
PINNED = (
    (ZeroKinetics(), None, None, 4.0, (0.0, 0.0, 0.0)),
    (LogisticKinetics(1.0), 1.000000002, 1.0, 5.000000002, (math.inf,) * 3),
    (LogisticKinetics(2.5), 2.5000000035, 2.5, 5.0000000014, (math.inf,) * 3),
    (PowerSubLogistic(1.0, 1.0, 0.5), 0.7992320518239915, 1.0, 4.746881744676749,
     (math.inf,) * 3),
    (PowerSubLogistic(0.5, 2.0, 0.3), 0.6002000873027423, 2.0, 4.134296305791584,
     (math.inf,) * 3),
    (LogLogSubLogistic(1.0, 1.0), 2.8171864070900636e-10, 1.0, 4.0, (math.inf,) * 3),
    (LogLogSubLogistic(2.0, 0.5), 0.6902911389488622, 0.5, 5.380582277897725,
     (math.inf,) * 3),
    (IteratedLogKinetics(1, 1.0), 0.5737048386498446, 1.0, 4.000044721527977,
     (0.9999986370614575, math.inf, math.inf)),
    (IteratedLogKinetics(1, 2.5), 0.2126818602271107, 2.5, 4.0,
     (2.499998629396387, math.inf, math.inf)),
    (IteratedLogKinetics(2, 1.0), -2.718281100828441, 1.0, 4.0,
     (4.286635637118508e-06, 0.9999961999198996, math.inf)),
    (IteratedLogKinetics(2, 2.5), -6.795702748338733, 2.5, 4.0,
     (4.302325976368593e-06, 2.499996184790049, math.inf)),
    (IteratedLogKinetics(3, 1.0), -181.1287951554475, 1.0, 4.0,
     (0.0, 1.3830537426207101e-05, 0.9999999713948262)),
    (IteratedLogKinetics(3, 2.5), -457.0142047156646, 2.5, 4.0,
     (0.0, 1.4006853760850646e-05, 2.4999999712302343)),
    (IteratedLogKinetics(4, 1.0), -3757477577.467387, 1.0, 4.0,
     (0.0, 0.0, 0.00199840523977457)),
    (IteratedLogKinetics(4, 2.5), -9393693979.443607, 2.5, 4.0,
     (0.0, 0.0, 0.00499594494112543)),
)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_POINTS = st.lists(st.tuples(st.floats(0.0, 1e300), st.floats(0.0, 10.0)),
                   min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(points=_POINTS)
@example(points=[(0.0, 0.0), (1e-300, 0.5), (1e-200, 1.0), (1e-16, 2.0)])
@example(points=[(0.0, 3.0), (1e-300, 0.0), (1e-200, 0.0), (1e-16, 0.0)])
def test_family_matches_the_closed_forms_bitwise(points):
    s, w = (np.array(col) for col in zip(*points))
    with np.errstate(all="ignore"):
        for kin, *_ in PINNED:
            ref = REFERENCE[kin.name]
            for args in ((s, w), (s, 0.0), (s[:, None], w), (s[0], w), (s[0], w[0])):
                assert _same_bits(kin.f(*args), ref(kin, *args))


@settings(max_examples=200, deadline=None)
@given(s=st.floats(math.log(1e-300), math.log(1e300)).map(math.exp))
@example(s=1e-300)
@example(s=1e-200)
@example(s=1e-16)       # the divisor is lost: log-space fallback
@example(s=1e-9)        # the lower end of every bracket grid
def test_float_evaluator_matches_the_array_path_bitwise(s):
    # mass_cap's Brent refinement evaluates f(s, 0) through _f0; PINNED
    # holds every BUILTINS source
    with np.errstate(all="ignore"):
        for kin, *_ in PINNED:
            assert _same_bits(kin._f0(s), kin.f(np.array([s]), 0.0)[0]), (kin, s)


@pytest.mark.parametrize("r", [0.0, 1.0])
def test_a_pure_power_damping_matches_the_float_evaluator_bitwise(r):
    # c > 0 with gamma = 0 and no depths: P(s) = 1, so both paths return
    # c * s^2 without a divisor
    kin = Kinetics(r=r, a=1.0, c=2.0)
    s_grid = np.concatenate(([1e-300, 1e-200, 1e-16], np.geomspace(1e-9, 1e8, 257)))
    out = np.array([kin._f0(s) for s in s_grid.tolist()])
    assert _same_bits(out, kin.f(s_grid, 0.0))
    assert _same_bits(kin.f(s_grid, 0.0), r * s_grid * 1.0 - 2.0 * s_grid * s_grid)


def test_float_evaluator_matches_a_bracket_grid_bitwise():
    # one draw above meets a last-bit log1p difference between numpy and
    # libm about once in 5000; the grid of mass_cap's first bracket level
    # meets dozens, and checks against the long-array loop as well
    s_grid = np.geomspace(1e-9, 1e8, 4096)
    for kin, *_ in PINNED:
        out = np.array([kin._f0(s) for s in s_grid.tolist()])
        assert _same_bits(out, kin.f(s_grid, 0.0)), kin


def test_constructing_a_source_evaluates_nothing(monkeypatch):
    calls = []
    real_f = Kinetics.f
    monkeypatch.setattr(Kinetics, "f",
                        lambda self, s, w: calls.append(self) or real_f(self, s, w))
    for kin, *_ in PINNED:
        again = type(kin)(**{p: getattr(kin, p) for p in kin.PARAMS})
        assert calls == [] and again.cap_b == kin.cap_b


def test_threshold_quantities_match_the_closed_forms():
    for kin, sup_b, cap_b, m1, mu in PINNED:
        assert kin.cap_b == cap_b
        if not kin.is_zero:
            assert kinetics._sup_f_plus_eta(kin, cap_b, {}) == sup_b
        assert mass_cap(kin, 4.0, 1.0) == m1
        assert tuple(damping_rate_estimate(kin, r) for r in (1, 2, 3)) == mu


# ------------------------------------------------ empty cells skip the damping

# family members that mix the log1p power with log depths, one without a
# growth term; with PINNED they make up ALL_SOURCES
MIXED = (
    Kinetics(r=1.0, a=1.0, c=2.0, gamma=0.5, depths=(1, 3)),
    Kinetics(r=2.5, a=0.5, lam=1.0, c=1.0, gamma=0.3, depths=(2,)),
    Kinetics(c=1.5, gamma=0.7, depths=(1, 2)),
)
ALL_SOURCES = tuple(kin for kin, *_ in PINNED) + MIXED


def _exact_intercept(t, y):
    """Intercept of the least-squares line through the float samples (t, y),
    in rational arithmetic."""
    t = [Fraction(v) for v in t.tolist()]
    y = [Fraction(v) for v in y.tolist()]
    t_mean, y_mean = sum(t) / len(t), sum(y) / len(y)
    slope = (sum((a - t_mean) * (b - y_mean) for a, b in zip(t, y))
             / sum((a - t_mean) ** 2 for a in t))
    return y_mean - slope * t_mean


def test_tail_fit_is_the_exact_least_squares_line(monkeypatch):
    # np.polyfit's intercept was 1.77e-10 off on iterlog k = 2, mu = 2.5;
    # the closed form is within 3.6e-11 on every source that reaches it
    fit = kinetics._line_intercept
    samples = []
    monkeypatch.setattr(kinetics, "_line_intercept",
                        lambda t, y: samples.append((t.copy(), y.copy())) or fit(t, y))
    for kin in ALL_SOURCES:
        for r in range(1, TOWER_MAX + 1):
            damping_rate_estimate(kin, r)
    # iterlog k = 2 at r = 1, k = 3 at r <= 2, k = 4 at every r (mu = 1 and
    # 2.5 each), and the first and last MIXED sources at every r
    assert len(samples) == 18
    for t, y in samples:
        exact = _exact_intercept(t, y)
        assert abs(Fraction(fit(t, y)) - exact) <= abs(exact) * Fraction(1e-10), exact


def test_the_condition_calls_no_least_squares_routine(no_least_squares):
    g = Grid(16, 16)
    ic = InitialData(u0=np.ones(g.shape), w0=np.full(g.shape, 0.5))
    for kin in ALL_SOURCES:
        report = check_boundedness(g, ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=kin), ic)
        assert len(report.mu_r) == TOWER_MAX


_SPECIAL_S = (0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-17, 1e-16,
              1e-9, 0.5, 1.0, 7.0, 1e8, 1e300, -1.0, math.nan)
_DENSITY = st.one_of(
    st.sampled_from(_SPECIAL_S),
    st.floats(math.log(1e-300), math.log(1e-17)).map(math.exp),   # lost divisor
    st.floats(0.0, 1e300),
)
# levels above a = 1 turn the growth term of a zero density into -0.0
_LEVEL = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 3.0)), st.floats(0.0, 10.0))


@settings(max_examples=150, deadline=None)
@given(s=st.lists(_DENSITY, min_size=1, max_size=12),
       w=st.lists(_LEVEL, min_size=1, max_size=12))
@example(s=[0.0] * 4, w=[3.0, 0.0, 1.0, 0.5])
@example(s=[5e-324, -0.0, 1e-300, 1e-17], w=[2.0])
@example(s=[1e-16, 1e-9, 0.5, 7.0], w=[0.5])
def test_f_matches_the_old_evaluation_bitwise(ref_f, s, w):
    s, w = np.array(s), np.array(w)
    same = w if len(w) == len(s) else np.resize(w, s.shape)
    args = ((s, same), (s, 0.0), (s[:, None], w[None, :]), (s[0], w),
            (s, w[0]), (np.asarray(s[0]), np.asarray(w[0])), (float(s[0]), float(w[0])))
    with np.errstate(all="ignore"):
        for kin in ALL_SOURCES:
            for a in args:
                got, want = kin.f(*a), ref_f(kin, *a)
                assert type(got) is type(want), (kin, a)
                assert _same_bits(got, want), (kin, a)


def test_f_runs_no_damping_on_empty_cells(monkeypatch, ref_f):
    sizes = []
    real = Kinetics._damping
    monkeypatch.setattr(Kinetics, "_damping",
                        lambda self, safe: sizes.append(np.size(safe)) or real(self, safe))
    field = np.zeros((96, 96))
    w = np.full(field.shape, 0.5)
    damped = [kin for kin in ALL_SOURCES if kin.c]
    for kin in damped:
        out = kin.f(field, w)
        assert _same_bits(out, np.zeros(field.shape))
    assert sizes == []
    # one live cell brings back the old evaluation over the whole field
    field[0, 0] = 5e-324
    for kin in damped:
        sizes.clear()
        out = kin.f(field, w)
        assert sizes == [field.size]
        assert _same_bits(out, ref_f(kin, field, w))


# ------------------------------------------- bounded Brent and bracket reuse


def _bits(x):
    return np.float64(x).tobytes()


def _assert_matches_scipy(fun, lo, hi, xatol, brent=kinetics._bounded_min):
    from scipy.optimize import minimize_scalar
    x, fx, nfev = brent(fun, lo, hi, xatol=xatol)
    res = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    assert (_bits(x), _bits(fx), nfev) == (_bits(res.x), _bits(res.fun), res.nfev)
    return x, fx, nfev


_SHAPES = {
    "unimodal": lambda c, k: lambda x: k * (x - c) ** 2 + 0.5,
    "multimodal": lambda c, k: lambda x: math.sin(k * x) + 0.1 * (x - c) ** 2,
    "flat": lambda c, k: lambda x: c,
    "steep": lambda c, k: lambda x: (math.exp(min(k * (x - c), 700.0))
                                     + math.exp(min(-k * (x - c), 700.0))),
    "edge": lambda c, k: lambda x: k * x + c,
    "kink": lambda c, k: lambda x: abs(x - c) * k,
}


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(sorted(_SHAPES)),
       lo=st.floats(-50.0, 50.0), width=st.floats(0.0, 100.0),
       c=st.floats(-60.0, 60.0), k=st.floats(-20.0, 20.0),
       xatol=st.sampled_from([1e-13, 1e-10, 1e-5, 1e-2, 1.0]))
@example(shape="unimodal", lo=0.0, width=0.0, c=0.0, k=1.0, xatol=1e-5)
@example(shape="edge", lo=-1.0, width=2.0, c=0.0, k=0.0, xatol=1e-13)
def test_bounded_min_matches_scipy_bitwise(shape, lo, width, c, k, xatol):
    _assert_matches_scipy(_SHAPES[shape](c, k), lo, lo + width, xatol)


def test_bounded_min_stops_at_maxiter():
    _, _, nfev = kinetics._bounded_min(lambda x: math.sin(40.0 * x), -5.0, 5.0,
                                       xatol=1e-300, maxiter=7)
    assert nfev == 7


def test_bounded_min_matches_scipy_on_the_source_envelopes(monkeypatch):
    """Every refinement that mass_cap runs on the PINNED sources gives the
    scipy bits, and M1 stays as pinned.  Both searches go through the one
    checked routine: the eta refinement (xatol 1e-12) and the sup over s
    of every eta (xatol 1e-13)."""
    tols = []

    def checked(fun, lo, hi, xatol=1e-5):
        tols.append(xatol)
        return _assert_matches_scipy(fun, lo, hi, xatol)

    monkeypatch.setattr(kinetics, "_bounded_min", checked)
    for kin, _, _, m1, _ in PINNED:
        tols.clear()
        assert mass_cap(kin, 4.0, 1.0) == m1
        if kin.is_zero:
            assert tols == []
        else:
            assert set(tols) == {1e-12, 1e-13}
            assert tols.count(1e-12) == 1 and tols.count(1e-13) >= 33


def test_mass_cap_resolves_a_peak_far_out():
    # with a = 1e30 the envelope peaks near s = 4e30.  Where f(s, 0) >= 0,
    # f/eta + s falls as eta grows, so its value at eta = cap_b, maximized
    # over any grid of such s, bounds the infimum over eta <= cap_b from
    # below.  A bracket that stopped at s = 1e30 gave 8.8e59, 2.4x too low.
    kin = PowerSubLogistic(1e30, 1.0, 0.5)
    s = np.geomspace(1e-9, 1e60, 400_000)
    f0 = kin.f(s, 0.0)
    pos = f0 >= 0.0
    floor = np.max(f0[pos] / kin.cap_b + s[pos])
    assert floor > 2.09e60
    assert mass_cap(kin, 0.0, 1.0) >= floor


def test_mass_cap_raises_past_the_bracket_limit():
    with pytest.raises(ValueError, match=r"sublog_pow a=1e\+70 b=1.0 gamma=0.5 .*s = 1e60"):
        mass_cap(PowerSubLogistic(1e70, 1.0, 0.5), 4.0, 1.0)


def test_mass_cap_evaluates_each_bracket_level_once(monkeypatch):
    real_f = Kinetics.f
    for kin, _, _, m1, _ in PINNED:
        levels = []

        def counting(self, s, w):
            if np.size(s) == 4096:
                levels.append(float(np.asarray(s)[-1]))
            return real_f(self, s, w)

        monkeypatch.setattr(Kinetics, "f", counting)
        sups = []
        real_sup = kinetics._sup_f_plus_eta
        monkeypatch.setattr(kinetics, "_sup_f_plus_eta",
                            lambda *a: sups.append(a[1]) or real_sup(*a))
        assert mass_cap(kin, 4.0, 1.0) == m1
        monkeypatch.undo()
        assert len(levels) == len(set(levels))
        if kin.is_zero:
            assert levels == [] and sups == []
        else:
            assert 1 <= len(levels) <= 12 and len(sups) > 33


def test_mass_cap_evaluates_f_on_bracket_grids_only(monkeypatch):
    real_f = Kinetics.f
    for kin, _, _, m1, _ in PINNED:
        sizes = []

        def counting(self, s, w):
            sizes.append(np.size(s))
            return real_f(self, s, w)

        monkeypatch.setattr(Kinetics, "f", counting)
        assert mass_cap(kin, 4.0, 1.0) == m1
        monkeypatch.undo()
        assert set(sizes) <= {4096}
        assert (sizes == []) == kin.is_zero
