"""Time stepper: elliptic solve, CFL, splitting step, full runs."""

import math

import numpy as np
import pytest

from chemohapto import (
    Grid,
    InitialData,
    InitialDataError,
    LogisticKinetics,
    ModelParams,
    Numerics,
    ZeroKinetics,
    compatibility_constant,
    dt_cfl,
    initial_state,
    run,
    solve_elliptic_v,
    step,
)


def bump_ic(g, mass=4.0, sigma=0.1, w_level=0.5):
    X, Y = g.mesh()
    u0 = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * sigma ** 2))
    u0 *= mass / g.integrate(u0)
    w0 = np.full(g.shape, w_level)
    return InitialData(u0=u0, w0=w0, A=compatibility_constant(g, w0))


# ---------------------------------------------------------------- params


def test_model_params_validation():
    kin = ZeroKinetics()
    ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=kin)   # zeros are legal
    with pytest.raises(ValueError):
        ModelParams(chi=-0.1, xi=0.0, tau=0.0, kinetics=kin)
    with pytest.raises(ValueError):
        ModelParams(chi=0.0, xi=-1.0, tau=0.0, kinetics=kin)
    with pytest.raises(ValueError):
        ModelParams(chi=0.0, xi=0.0, tau=-0.5, kinetics=kin)


def test_initial_data_validation():
    g = Grid(16, 16)
    ones = np.ones(g.shape)
    with pytest.raises(InitialDataError):
        InitialData(u0=-ones, w0=ones, A=0.0).validate(g, 0.0)
    with pytest.raises(InitialDataError):
        InitialData(u0=np.zeros(g.shape), w0=ones, A=0.0).validate(g, 0.0)
    with pytest.raises(InitialDataError):      # v0 required when tau > 0
        InitialData(u0=ones, w0=ones, A=0.0).validate(g, 1.0)
    with pytest.raises(InitialDataError):      # shape mismatch
        InitialData(u0=np.ones((16, 8)), w0=ones, A=0.0).validate(g, 0.0)
    InitialData(u0=ones, w0=0.0 * ones, A=0.0).validate(g, 0.0)


def test_gradient_compatibility_constant():
    g = Grid(32, 32)
    X, _ = g.mesh()
    w0 = 0.5 + 0.4 * np.cos(np.pi * X)
    A = compatibility_constant(g, w0)
    ic = InitialData(u0=np.ones(g.shape), w0=w0, A=A)
    ic.validate(g, 0.0)
    # understating A by half must trip the face condition
    bad = InitialData(u0=np.ones(g.shape), w0=w0, A=0.4 * A)
    with pytest.raises(InitialDataError):
        bad.validate(g, 0.0)


# ---------------------------------------------------------------- elliptic


def test_elliptic_residual_and_mean():
    g = Grid(48, 32, 1.2, 0.8)
    rng = np.random.default_rng(5)
    u = rng.random(g.shape) + 0.2
    v = solve_elliptic_v(g, u, tol=1e-12)
    resid = np.max(np.abs(v - g.laplacian_neumann(v) - u))
    assert resid < 1e-9
    # (I - lap) preserves the mean mode, so means must agree
    assert g.integrate(v) == pytest.approx(g.integrate(u), rel=1e-13)


def test_elliptic_constant_is_identity():
    g = Grid(16, 16)
    u = np.full(g.shape, 2.75)
    v = solve_elliptic_v(g, u)
    assert np.max(np.abs(v - 2.75)) < 1e-12


def test_elliptic_positivity():
    # (I - lap)^{-1} with Neumann walls maps nonnegative data to
    # nonnegative solutions
    g = Grid(24, 24)
    rng = np.random.default_rng(6)
    for _ in range(25):
        u = np.maximum(rng.standard_normal(g.shape), 0.0)
        if not np.any(u > 0):
            continue
        assert np.min(solve_elliptic_v(g, u)) >= -1e-13


# ---------------------------------------------------------------- stepping


def test_dt_cfl_formula():
    g = Grid(32, 32)
    X, _ = g.mesh()
    params = ModelParams(chi=2.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    v = X.copy()          # dv/dx = 1 on interior faces
    w = np.zeros(g.shape)
    dt = dt_cfl(g, params, v, w, dt_max=1.0)
    assert dt == pytest.approx(0.4 * g.hx / 2.0, rel=1e-12)
    # vanishing gradients fall back to the cap
    flat = np.ones(g.shape)
    assert dt_cfl(g, params, flat, flat, dt_max=0.125) == 0.125


def test_homogeneous_state_is_stationary():
    g = Grid(16, 16)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.full(g.shape, 2.0), w0=np.zeros(g.shape), A=0.0)
    num = Numerics()
    st = initial_state(g, params, ic, num)
    for _ in range(5):
        st = step(g, st, params, 1e-2, num)
    assert np.max(np.abs(st.u - 2.0)) < 1e-13
    assert np.max(np.abs(st.v - 2.0)) < 1e-13


def test_w_exact_exponential_for_constant_fields():
    g = Grid(16, 16)
    params = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.full(g.shape, 3.0), w0=np.full(g.shape, 0.8), A=0.0)
    num = Numerics()
    st = initial_state(g, params, ic, num)
    st = step(g, st, params, 0.01, num)
    # constant u keeps v = 3 exactly, so w drops by exp(-dt * 3)
    assert np.max(np.abs(st.w - 0.8 * math.exp(-0.03))) < 1e-13


def test_mass_conserved_without_kinetics():
    g = Grid(48, 48)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    ic = bump_ic(g)
    num = Numerics(dt_max=2e-3)
    st = initial_state(g, params, ic, num)
    m0 = g.integrate(st.u)
    for _ in range(50):
        st = step(g, st, params, 2e-3, num)
    assert abs(g.integrate(st.u) - m0) / m0 < 1e-12


def test_positivity_and_w_monotone():
    g = Grid(32, 32)
    params = ModelParams(chi=1.5, xi=0.5, tau=0.0,
                         kinetics=LogisticKinetics(1.0))
    ic = bump_ic(g, mass=6.0, sigma=0.08)
    num = Numerics(dt_max=1e-3)
    st = initial_state(g, params, ic, num)
    w_prev = st.w.copy()
    for _ in range(40):
        st = step(g, st, params, 1e-3, num)
        assert np.min(st.u) >= 0.0
        assert np.min(st.v) >= 0.0
        assert np.all(st.w <= w_prev + 1e-15)
        w_prev = st.w.copy()
    assert np.max(st.w) <= 0.5


def test_tau_positive_signal_lags():
    # with tau > 0 and v0 = 0 the signal must grow toward u but stay
    # below the elliptic equilibrium early on
    g = Grid(24, 24)
    params = ModelParams(chi=0.0, xi=0.0, tau=1.0, kinetics=ZeroKinetics())
    ic = bump_ic(g, mass=2.0, sigma=0.15, w_level=0.0)
    ic = InitialData(u0=ic.u0, w0=ic.w0, v0=np.zeros(g.shape), A=ic.A)
    num = Numerics(dt_max=1e-3)
    st = initial_state(g, params, ic, num)
    v_eq = solve_elliptic_v(g, st.u)
    st1 = step(g, st, params, 1e-3, num)
    assert 0.0 < np.max(st1.v) < np.max(v_eq)


# ---------------------------------------------------------------- runs


def test_run_records_cadence_and_final():
    g = Grid(24, 24)
    params = ModelParams(chi=0.5, xi=0.25, tau=0.0,
                         kinetics=LogisticKinetics(1.0))
    ic = bump_ic(g, mass=2.0)
    res = run(g, params, ic, t_end=0.2, num=Numerics(dt_max=2e-3),
              observe_interval=0.05)
    assert res.status == "ok"
    assert res.records[0].t == 0.0
    assert res.final.t == pytest.approx(0.2, abs=1e-12)
    # one record per crossed cadence boundary plus start and final
    times = [r.t for r in res.records]
    assert len(times) >= 5 and times == sorted(times)


def test_run_default_observer_grid():
    g = Grid(16, 16)
    params = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.ones(g.shape), w0=np.zeros(g.shape), A=0.0)
    res = run(g, params, ic, t_end=1.0, num=Numerics(dt_max=1e-2))
    # default cadence t_end / 128 lands near 129 records
    assert 100 <= len(res.records) <= 135


def test_run_divergence_flag():
    g = Grid(64, 64)
    X, Y = g.mesh()
    u0 = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.08 ** 2))
    u0 *= 60.0 / g.integrate(u0)
    ic = InitialData(u0=u0, w0=np.zeros(g.shape), A=0.0)
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    num = Numerics(dt_max=2e-3, overflow_guard=1e4)
    res = run(g, params, ic, t_end=1.0, num=num)
    assert res.status == "diverged"
    assert res.diverged_t is not None and res.diverged_t < 1.0
    assert res.records[-1].linf_u > 1e4


def test_run_clipped_mass_is_cumulative():
    # the flat state u = 10 under mu = 100 overshoots to 10 - 45 = -35 in
    # the first step; only t = 0 and the final time are observed
    g = Grid(16, 16)
    params = ModelParams(chi=0.0, xi=0.0, tau=0.0,
                         kinetics=LogisticKinetics(100.0))
    ic = InitialData(u0=np.full(g.shape, 10.0), w0=np.zeros(g.shape), A=0.0)
    res = run(g, params, ic, t_end=0.1, num=Numerics(dt_max=5e-3),
              observe_interval=0.1)
    assert len(res.records) == 2 and res.steps == 20
    assert res.records[-1].clipped_mass == 0.0
    assert res.clipped_mass == pytest.approx(35.0, rel=1e-12)


def test_run_bitwise_deterministic():
    g = Grid(24, 24)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0,
                         kinetics=LogisticKinetics(1.0))
    ic = bump_ic(g, mass=3.0)
    num = Numerics(dt_max=2e-3)
    r1 = run(g, params, ic, t_end=0.1, num=num)
    r2 = run(g, params, ic, t_end=0.1, num=num)
    assert np.array_equal(r1.final.u, r2.final.u)
    assert np.array_equal(r1.final.v, r2.final.v)
    assert np.array_equal(r1.final.w, r2.final.w)
    assert [r.mass for r in r1.records] == [r.mass for r in r2.records]


def test_initial_state_signal_source():
    g = Grid(16, 16)
    ic = bump_ic(g, mass=1.0, sigma=0.2)
    num = Numerics()
    # tau = 0 derives v0 from u0 through the elliptic solve
    p0 = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    st0 = initial_state(g, p0, ic, num)
    assert np.max(np.abs(st0.v - solve_elliptic_v(g, ic.u0))) < 1e-12
    # tau > 0 takes the supplied v0 verbatim
    v0 = np.full(g.shape, 0.123)
    ic1 = InitialData(u0=ic.u0, w0=ic.w0, v0=v0, A=ic.A)
    p1 = ModelParams(chi=0.0, xi=0.0, tau=2.0, kinetics=ZeroKinetics())
    st1 = initial_state(g, p1, ic1, num)
    assert np.array_equal(st1.v, v0)
