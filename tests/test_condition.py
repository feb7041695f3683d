"""Boundedness-condition evaluation and run classification."""

import math

import numpy as np
import pytest

from chemohapto import (
    CASE_NONE,
    CASE_TAU0,
    CASE_THRESHOLD,
    CLASS_DIVERGED,
    CLASS_GROWING,
    CLASS_PLATEAU,
    CLASS_UNCLASSIFIED,
    Grid,
    InitialData,
    IteratedLogKinetics,
    LogisticKinetics,
    ModelParams,
    Numerics,
    ThresholdReport,
    ZeroKinetics,
    check_boundedness,
    classify_run,
    run,
)
from chemohapto.diagnostics import DiagnosticsRecord
from chemohapto.solver import RunResult, State


def bump_ic(g, mass=4.0, sigma=0.1, w_level=0.5, v0=None):
    X, Y = g.mesh()
    u0 = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * sigma ** 2))
    u0 *= mass / g.integrate(u0)
    w0 = np.full(g.shape, w_level)
    return InitialData(u0=u0, w0=w0, v0=v0)


def test_tau0_logistic_takes_damping_case():
    g = Grid(32, 32)
    params = ModelParams(chi=2.0, xi=0.5, tau=0.0,
                         kinetics=LogisticKinetics(1.0))
    rep = check_boundedness(g, params, bump_ic(g))
    assert rep.case == CASE_TAU0 and rep.satisfied
    assert math.isinf(rep.mu_r[0])
    assert rep.m1 == pytest.approx(4.0 + 1.0, abs=1e-7)
    assert rep.w_max == 0.5


def test_tau_positive_logistic_threshold_with_zero_lhs():
    # mu_1 = +inf makes (chi - mu_1)^+ vanish, so the inequality holds
    # for every chi even though tau > 0 blocks the damping case
    g = Grid(32, 32)
    params = ModelParams(chi=50.0, xi=0.5, tau=1.0,
                         kinetics=LogisticKinetics(1.0))
    ic = bump_ic(g, v0=np.zeros(g.shape))
    rep = check_boundedness(g, params, ic)
    assert rep.case == CASE_THRESHOLD and rep.satisfied
    assert rep.inequality_lhs == 0.0
    assert rep.inequality_rhs == pytest.approx(1.0 / (2.0 * rep.cgn4), rel=1e-12)


def test_zero_kinetics_large_chi_not_satisfied():
    g = Grid(32, 32)
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    rep = check_boundedness(g, params, bump_ic(g, w_level=0.0))
    # all mu_r are exactly zero, M1 is the initial mass, lhs = chi * M1
    assert rep.mu_r == [0.0, 0.0, 0.0]
    assert rep.m1 == pytest.approx(4.0, rel=1e-12)
    assert rep.inequality_lhs == pytest.approx(4.0, rel=1e-12)
    assert rep.case == CASE_NONE and not rep.satisfied


def test_zero_kinetics_tiny_mass_satisfies_threshold():
    g = Grid(32, 32)
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    rep = check_boundedness(g, params, bump_ic(g, mass=0.05, w_level=0.0))
    # lhs = 0.05 < 1/(2 * 1) on the unit square
    assert rep.case == CASE_THRESHOLD and rep.satisfied


def test_iterlog_needs_deep_enough_rate_scan():
    g = Grid(32, 32)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0,
                         kinetics=IteratedLogKinetics(2, 1.0))
    rep = check_boundedness(g, params, bump_ic(g))
    assert rep.case == CASE_TAU0
    assert abs(rep.mu_r[0]) < 1e-2       # r = 1 sees no damping
    assert abs(rep.mu_r[1] - 1.0) <= 0.05
    assert math.isinf(rep.mu_r[2])


def test_iterlog_k3_takes_damping_case_at_order_three():
    g = Grid(32, 32)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0,
                         kinetics=IteratedLogKinetics(3, 1.0))
    rep = check_boundedness(g, params, bump_ic(g))
    assert len(rep.mu_r) == 3
    assert abs(rep.mu_r[2] - 1.0) <= 0.05
    assert rep.case == CASE_TAU0


def test_report_dict_roundtrip_with_infinities():
    g = Grid(16, 16)
    params = ModelParams(chi=0.5, xi=0.0, tau=0.0,
                         kinetics=LogisticKinetics(1.0))
    rep = check_boundedness(g, params, bump_ic(g, mass=1.0))
    d = rep.to_dict()
    back = ThresholdReport.from_dict(d)
    assert back == rep
    assert math.isinf(d["mu_r"][0])


# ---------------------------------------------------------------- classify


def _fake_result(times, linfs, status="ok"):
    records = [
        DiagnosticsRecord(t=t, mass=1.0, l2_u=1.0, linf_u=v, entropy=0.0,
                          g_m=1.0, grad_v_l4=0.0, linf_grad_v=0.0,
                          linf_grad_w=0.0, identity_residual=0.0,
                          delta_w_violation_max=-1.0, clipped_mass=0.0,
                          dt=1e-3)
        for t, v in zip(times, linfs)
    ]
    final = State(t=times[-1], u=np.ones((4, 4)), v=np.ones((4, 4)),
                  w=np.zeros((4, 4)), status=status)
    return RunResult(records=records, final=final, status=status,
                     diverged_t=times[-1] if status == "diverged" else None,
                     steps=len(times))


def test_classify_plateau_and_growing():
    t = np.linspace(0.0, 1.0, 32)
    flat = _fake_result(t, np.full(32, 5.0))
    assert classify_run(flat).label == CLASS_PLATEAU
    assert classify_run(flat).plateau == pytest.approx(1.0)
    # 1.25 ratio is the growth cutoff; doubling trips it
    rising = _fake_result(t, 5.0 * 2.0 ** t)
    grown = classify_run(rising)
    assert grown.label == CLASS_GROWING and grown.plateau > 1.25


def test_classify_diverged_keeps_flag():
    t = np.linspace(0.0, 0.01, 5)
    res = _fake_result(t, [1, 10, 100, 1000, 1e5], status="diverged")
    cls = classify_run(res)
    assert cls.label == CLASS_DIVERGED
    assert math.isnan(cls.plateau)       # too few records for a ratio


def test_classify_needs_enough_records():
    t = np.linspace(0.0, 1.0, 8)
    cls = classify_run(_fake_result(t, np.ones(8)))
    assert cls.label == CLASS_UNCLASSIFIED and np.isnan(cls.plateau)


def test_classify_real_bounded_run():
    g = Grid(24, 24)
    params = ModelParams(chi=0.5, xi=0.25, tau=0.0,
                         kinetics=LogisticKinetics(1.0))
    res = run(g, params, bump_ic(g, mass=2.0), t_end=0.5,
              num=Numerics(dt_max=2e-3))
    cls = classify_run(res)
    assert cls.label == CLASS_PLATEAU and cls.plateau <= 1.05
