"""Kinetic source variants, iterated-log helpers, damping rates, mass cap."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemohapto import (
    IteratedLogKinetics,
    Kinetics,
    LogisticKinetics,
    LogLogSubLogistic,
    PowerSubLogistic,
    ZeroKinetics,
    damping_rate_estimate,
    default_schedule,
    e_tower,
    iter_log,
    make_kinetics,
    mass_cap,
    shifted_log_deriv,
    shifted_log_weight,
)


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
    assert kin.cap_a == 2.5 and kin.cap_b == 2.5
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
    # f(s, w) <= cap_a - cap_b s, sampled over a wide random cloud
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.random(300) * 5, np.geomspace(1e-6, 1e8, 300)])
    w = rng.random(600) * 2.0
    for kin in (LogisticKinetics(1.0), PowerSubLogistic(1, 1, 0.5),
                LogLogSubLogistic(1, 1), IteratedLogKinetics(1, 1.0),
                IteratedLogKinetics(3, 0.5)):
        gap = kin.f(s, w) - (kin.cap_a - kin.cap_b * s)
        assert np.max(gap) <= 1e-9 * np.maximum(1.0, np.abs(kin.cap_a))


def test_factory():
    kin = make_kinetics("iterlog", k=2.0, mu=1.5)
    assert isinstance(kin, IteratedLogKinetics) and kin.k == 2
    with pytest.raises(ValueError):
        make_kinetics("iterlog", k=2.5, mu=1.0)
    with pytest.raises(ValueError):
        make_kinetics("logistic")                      # missing mu
    with pytest.raises(ValueError):
        make_kinetics("logistic", mu=1.0, a=2.0)       # extra a
    with pytest.raises(ValueError):
        make_kinetics("gompertz", mu=1.0)


# ---------------------------------------------------------------- mass cap


def test_mass_cap_zero_is_initial_mass():
    assert mass_cap(ZeroKinetics(), 3.7, 2.0) == 3.7


def test_mass_cap_logistic_closed_form():
    # inner sup of mu s(1-s) + eta s is (mu+eta)^2/(4 mu); sup/eta is
    # minimized at eta = mu where it equals 1, so the cap is
    # u0_mass + area exactly, for every mu
    got = mass_cap(LogisticKinetics(1.0), 4.0, 1.0, w_max=0.7)
    assert abs(got - 5.0) <= 1e-8
    got = mass_cap(LogisticKinetics(2.0), 1.0, 3.0, w_max=0.0)
    assert abs(got - 4.0) <= 1e-8


def test_mass_cap_never_below_initial_mass():
    # the iterated-log family with k >= 2 is negative for every s > 0 at
    # mu = 1, so the optimized correction floors at zero
    for kin in (IteratedLogKinetics(2, 1.0), IteratedLogKinetics(3, 1.0),
                PowerSubLogistic(1, 1, 0.5), LogLogSubLogistic(1, 1)):
        got = mass_cap(kin, 4.0, 1.0, w_max=0.5)
        assert got >= 4.0
    assert mass_cap(IteratedLogKinetics(2, 1.0), 4.0, 1.0, 0.5) == 4.0


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
        assert damping_rate_estimate(ZeroKinetics(), r, w_max=1.0) == 0.0


def test_damping_logistic_flags_infinite():
    assert math.isinf(damping_rate_estimate(LogisticKinetics(1.0), 1, w_max=2.0))
    assert math.isinf(damping_rate_estimate(LogisticKinetics(0.1), 2, w_max=0.0))


def test_damping_sublog_variants_flag_infinite():
    assert math.isinf(damping_rate_estimate(PowerSubLogistic(1, 1, 0.5), 1, 1.0))
    assert math.isinf(damping_rate_estimate(LogLogSubLogistic(1, 1), 1, 1.0))


def test_damping_iterlog_table():
    # rate r < k sees vanishing damping, r = k recovers mu, r > k diverges
    for k, mu in ((1, 1.0), (2, 1.0), (2, 2.0), (3, 1.0)):
        kin = IteratedLogKinetics(k, mu)
        for r in range(1, k):
            est = damping_rate_estimate(kin, r, w_max=1.0)
            assert abs(est) < 1e-2 * mu
        est_k = damping_rate_estimate(kin, k, w_max=1.0)
        assert abs(est_k - mu) <= 0.05 * mu
        if k + 1 <= 3:
            assert math.isinf(damping_rate_estimate(kin, k + 1, w_max=1.0))


def test_damping_order_four_needs_unrepresentable_samples():
    # a schedule for r = 4 must start above e^[4] ~ 10^1656187
    with pytest.raises(OverflowError):
        damping_rate_estimate(IteratedLogKinetics(3, 1.0), 4, w_max=1.0)


def test_damping_w_scan_infimum_at_zero():
    # every built-in f is decreasing in w, so -f grows with w and the
    # infimum over [0, w_max] always sits at w = 0: widening the scan
    # window must not move the estimate
    kin = IteratedLogKinetics(1, 1.0)
    lo = damping_rate_estimate(kin, 1, w_max=0.0)
    hi = damping_rate_estimate(kin, 1, w_max=3.0)
    assert hi == lo and 0.9 <= lo <= 1.1


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


def test_threshold_quantities_do_not_depend_on_w_max():
    for kin in BUILTINS:
        caps = [mass_cap(kin, 4.0, 1.0, w_max=wm) for wm in (0.0, 0.5, 3.0)]
        assert caps[0] == caps[1] == caps[2]
        for r in (1, 2, 3):
            rates = [damping_rate_estimate(kin, r, w_max=wm) for wm in (0.0, 0.5, 3.0)]
            assert rates[0] == rates[1] == rates[2]


def test_w_max_must_be_finite_and_nonnegative():
    kin = LogisticKinetics(1.0)
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="w_max"):
            mass_cap(kin, 1.0, 1.0, w_max=bad)
        with pytest.raises(ValueError, match="w_max"):
            damping_rate_estimate(kin, 1, w_max=bad)


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
        assert make_kinetics(cls.name, **kin.params()).params() == kin.params()


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

# (source, cap_a, cap_b, mass_cap(source, 4, 1, 0.5), mu_1..mu_3), recorded
# from the closed forms above
PINNED = (
    (ZeroKinetics(), None, None, 4.0, (0.0, 0.0, 0.0)),
    (LogisticKinetics(1.0), 1.0, 1.0, 5.000000002, (math.inf,) * 3),
    (LogisticKinetics(2.5), 2.5, 2.5, 5.0000000014, (math.inf,) * 3),
    (PowerSubLogistic(1.0, 1.0, 0.5), 0.7992320518239915, 1.0, 4.746881744676749,
     (math.inf,) * 3),
    (PowerSubLogistic(0.5, 2.0, 0.3), 0.6002000873027423, 2.0, 4.134296305791584,
     (math.inf,) * 3),
    (LogLogSubLogistic(1.0, 1.0), 2.8171864070900636e-10, 1.0, 4.0, (math.inf,) * 3),
    (LogLogSubLogistic(2.0, 0.5), 0.6902911389488622, 0.5, 5.380582277897725,
     (math.inf,) * 3),
    (IteratedLogKinetics(1, 1.0), 0.5737048386498446, 1.0, 4.000044721527457,
     (0.9999986370614575, math.inf, math.inf)),
    (IteratedLogKinetics(1, 2.5), 0.2126818602271107, 2.5, 4.0,
     (2.499998629396387, math.inf, math.inf)),
    (IteratedLogKinetics(2, 1.0), -2.718281100828441, 1.0, 4.0,
     (4.286635636652608e-06, 0.9999961999198996, math.inf)),
    (IteratedLogKinetics(2, 2.5), -6.795702748338733, 2.5, 4.0,
     (4.302325975456319e-06, 2.499996184790049, math.inf)),
    (IteratedLogKinetics(3, 1.0), -181.1287951554475, 1.0, 4.0,
     (0.0, 1.3830537425255333e-05, 0.9999999713948262)),
    (IteratedLogKinetics(3, 2.5), -457.0142047156646, 2.5, 4.0,
     (0.0, 1.4006853759399621e-05, 2.4999999712302343)),
    (IteratedLogKinetics(4, 1.0), -3757477577.467387, 1.0, 4.0,
     (0.0, 0.0, 0.001998405239770165)),
    (IteratedLogKinetics(4, 2.5), -9393693979.443607, 2.5, 4.0,
     (0.0, 0.0, 0.004995944941124576)),
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


def test_threshold_quantities_match_the_closed_forms():
    for kin, cap_a, cap_b, m1, mu in PINNED:
        assert (kin.cap_a, kin.cap_b) == (cap_a, cap_b)
        assert mass_cap(kin, 4.0, 1.0, 0.5) == m1
        assert tuple(damping_rate_estimate(kin, r) for r in (1, 2, 3)) == mu
