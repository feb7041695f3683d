"""Time stepper: elliptic solve, CFL, splitting step, full runs."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from chemohapto import solver
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
    return InitialData(u0=u0, w0=w0)


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
        InitialData(u0=-ones, w0=ones).validate(g, 0.0)
    with pytest.raises(InitialDataError):
        InitialData(u0=np.zeros(g.shape), w0=ones).validate(g, 0.0)
    # tau > 0 without v0 starts at the elliptic equilibrium, so no v0 is fine
    InitialData(u0=ones, w0=ones).validate(g, 1.0)
    with pytest.raises(InitialDataError):      # shape mismatch
        InitialData(u0=np.ones((16, 8)), w0=ones).validate(g, 0.0)
    with pytest.raises(InitialDataError):      # v0 is checked like u0 and w0
        InitialData(u0=ones, w0=ones, v0=np.ones((16, 8))).validate(g, 1.0)
    with pytest.raises(InitialDataError):      # run validates first
        run(g, ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics()),
            InitialData(u0=ones, w0=np.ones((16, 8))), t_end=0.1)
    InitialData(u0=ones, w0=0.0 * ones).validate(g, 0.0)


def test_gradient_compatibility_constant():
    g = Grid(32, 32)
    X, _ = g.mesh()
    w0 = 0.5 + 0.4 * np.cos(np.pi * X)
    A = compatibility_constant(g, w0)
    InitialData(u0=np.ones(g.shape), w0=w0).validate(g, 0.0)
    dx, dy = g.face_diff(w0)
    assert np.all(dx ** 2 <= A * 0.5 * (w0[:-1, :] + w0[1:, :]))
    assert np.all(dy ** 2 <= A * 0.5 * (w0[:, :-1] + w0[:, 1:]))


def test_gradient_where_w0_vanishes_is_rejected():
    # the squared face differences (6.4e-13) are tiny in absolute terms,
    # but no finite A bounds a gradient at a face where w0 is 0
    g = Grid(4, 4, 1e-7, 1e-7)
    w0 = np.zeros(g.shape)
    w0[0, :] = 2e-14
    with pytest.raises(ValueError):
        compatibility_constant(g, w0)
    with pytest.raises(InitialDataError):
        InitialData(u0=np.ones(g.shape), w0=w0).validate(g, 0.0)


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


def test_corrupted_spectral_solve_raises(monkeypatch):
    g = Grid(16, 16)
    u = np.random.default_rng(8).random(g.shape) + 0.5
    solve_elliptic_v(g, u)
    exact = solver.scipy.fft.idctn
    monkeypatch.setattr(solver.scipy.fft, "idctn",
                        lambda *a, **kw: exact(*a, **kw) * (1.0 + 1e-6))
    with pytest.raises(RuntimeError, match="residual"):
        solve_elliptic_v(g, u)


def test_non_finite_solve_input_raises():
    g = Grid(16, 16)
    u = np.ones(g.shape)
    u[4, 4] = np.nan
    with pytest.raises(RuntimeError, match="residual"):
        solve_elliptic_v(g, u)


def test_tol_below_rounding_floor_is_met_at_the_floor():
    # at 256^2 the residual of (I - Lap) x = u cannot be evaluated below
    # about eps * lam_max * ||x|| ~ 1e-10 ||x||; a tighter tol is accepted
    # there instead of failing every solve on large grids
    g = Grid(256, 256)
    u = np.random.default_rng(4).random(g.shape)
    v = solve_elliptic_v(g, u, tol=1e-14)
    r = u - (v - g.laplacian_neumann(v))
    lam = solver._neumann_eigenvalues(g.nx, g.ny, g.hx, g.hy)
    floor = np.finfo(float).eps * (1.0 + lam.max()) * np.linalg.norm(v)
    assert 1e-14 * np.linalg.norm(u) < np.linalg.norm(r) <= floor


def test_cg_helmholtz_is_one_cosine_solve_bitwise():
    # same shape, different spacing: eigenvalues cached on the shape alone
    # would solve the second grid with the first grid's operator
    rng = np.random.default_rng(11)
    for g in (Grid(12, 7, 2.0, 0.5), Grid(12, 7)):
        kx, ky = np.arange(g.nx), np.arange(g.ny)
        lam = ((2.0 - 2.0 * np.cos(math.pi * kx / g.nx)) / g.hx ** 2)[:, None] \
            + ((2.0 - 2.0 * np.cos(math.pi * ky / g.ny)) / g.hy ** 2)[None, :]
        b = rng.random(g.shape) + 0.1
        for c0, diff in ((0.5 / 1e-3 + 1.0, 1.0), (1.0, 1e-3)):    # signal, diffusion
            want = scipy.fft.idctn(scipy.fft.dctn(b, type=2, norm="ortho")
                                   / (c0 + diff * lam), type=2, norm="ortho")
            assert np.array_equal(solver._cg_helmholtz(g, b, c0, diff, 1e-10), want)
    assert not solver._neumann_eigenvalues(12, 7, 1.0 / 12, 1.0 / 7).flags.writeable


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


def test_carried_face_speed_gives_the_dt_cfl_bound(monkeypatch):
    g = Grid(32, 32)
    params = ModelParams(chi=1.5, xi=0.75, tau=1.0, kinetics=LogisticKinetics(1.0))
    ic = bump_ic(g, mass=4.0, sigma=0.08)
    ic = InitialData(u0=ic.u0, w0=0.5 + 0.1 * ic.u0 / ic.u0.max(), v0=0.5 * ic.u0)
    num = Numerics(dt_max=1.0)
    st = initial_state(g, params, ic, num)
    assert st.face_speed is None
    for _ in range(8):
        dt = dt_cfl(g, params, st.v, st.w, num.dt_max, num.cfl_safety)
        st = step(g, st, params, dt, num)
        for dt_max, safety in ((1.0, 0.4), (1.0, 0.1), (1e-6, 0.4)):
            assert (solver._dt_from_speed(g, st.face_speed, dt_max, safety)
                    == dt_cfl(g, params, st.v, st.w, dt_max, safety))

    # run computes the bound from the fields only for the initial state
    calls = []

    def counting_dt_cfl(*args, **kwargs):
        calls.append(args)
        return dt_cfl(*args, **kwargs)

    monkeypatch.setattr(solver, "dt_cfl", counting_dt_cfl)
    res = run(g, params, ic, t_end=0.01, num=Numerics(dt_max=1e-2))
    assert res.steps > 3 and len(calls) == 1


def _reference_step(g, state, params, dt, num):
    # the split step spelled out with taxis_divergence, which takes its own
    # face differences
    u, v, w = state.u, state.v, state.w
    if params.tau == 0.0:
        v_new = solve_elliptic_v(g, u, num.elliptic_tol)
        v_frozen = v_new
    else:
        v_new = solver._cg_helmholtz(g, (params.tau / dt) * v + u,
                                     params.tau / dt + 1.0, 1.0, num.elliptic_tol)
        v_frozen = 0.5 * (v + v_new)
    w_new = w * np.exp(-dt * np.maximum(v_frozen, 0.0))
    u_star = u - dt * (params.chi * g.taxis_divergence(u, v_new)
                       + params.xi * g.taxis_divergence(u, w_new))
    u_dd = solver._cg_helmholtz(g, u_star, 1.0, dt, num.elliptic_tol)
    u_rx = u_dd
    if not params.kinetics.is_zero:
        u_rx = u_dd + dt * params.kinetics.f(np.maximum(u_dd, 0.0), w_new)
    clipped = g.integrate(np.maximum(-u_rx, 0.0))
    return np.maximum(u_rx, 0.0), v_new, w_new, clipped


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 20),
       chi=st.floats(0.0, 5.0), xi=st.floats(0.0, 5.0),
       tau=st.sampled_from([0.0, 0.5, 2.0]), mu=st.sampled_from([None, 1.0, 30.0]),
       dt=st.floats(1e-5, 1e-2))
def test_step_matches_reference_step_bitwise(seed, n, chi, xi, tau, mu, dt):
    g = Grid(n, n + 3)
    rng = np.random.default_rng(seed)
    u = rng.random(g.shape) * 3.0
    u[rng.random(g.shape) < 0.2] = 0.0
    v = rng.random(g.shape)
    w = np.round(rng.random(g.shape), 1)      # flat patches: zero face differences
    kin = ZeroKinetics() if mu is None else LogisticKinetics(mu)
    params = ModelParams(chi=chi, xi=xi, tau=tau, kinetics=kin)
    num = Numerics()
    state = solver.State(t=0.0, u=u, v=v, w=w)
    new = step(g, state, params, dt, num)
    u_ref, v_ref, w_ref, clipped_ref = _reference_step(g, state, params, dt, num)
    assert new.u.tobytes() == u_ref.tobytes()
    assert new.v.tobytes() == v_ref.tobytes()
    assert new.w.tobytes() == w_ref.tobytes()
    assert new.clipped_mass == clipped_ref
    assert (solver._dt_from_speed(g, new.face_speed, 1.0, 0.4)
            == dt_cfl(g, params, new.v, new.w, 1.0, 0.4))


def test_homogeneous_state_is_stationary():
    g = Grid(16, 16)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.full(g.shape, 2.0), w0=np.zeros(g.shape))
    num = Numerics()
    st = initial_state(g, params, ic, num)
    for _ in range(5):
        st = step(g, st, params, 1e-2, num)
    assert np.max(np.abs(st.u - 2.0)) < 1e-13
    assert np.max(np.abs(st.v - 2.0)) < 1e-13


def test_w_exact_exponential_for_constant_fields():
    g = Grid(16, 16)
    params = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.full(g.shape, 3.0), w0=np.full(g.shape, 0.8))
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


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 24), extra=st.integers(0, 5),
       chi=st.floats(0.0, 5.0), xi=st.floats(0.0, 5.0),
       tau=st.sampled_from([0.0, 0.5, 2.0]), mu=st.sampled_from([None, 1.0, 30.0]),
       frac=st.floats(0.01, 1.0))
def test_step_properties_on_random_fields(seed, n, extra, chi, xi, tau, mu, frac):
    # random nonnegative fields with zero patches, any dt up to the CFL bound
    # that run would use for this state
    g = Grid(n, n + extra)
    rng = np.random.default_rng(seed)
    u = rng.random(g.shape) * 3.0
    u[rng.random(g.shape) < 0.2] = 0.0
    u[0, 0] = 1.0                       # positive mass for the relative check
    v = rng.random(g.shape)
    v[rng.random(g.shape) < 0.2] = 0.0
    w = rng.random(g.shape)
    w[rng.random(g.shape) < 0.2] = 0.0
    kin = ZeroKinetics() if mu is None else LogisticKinetics(mu)
    params = ModelParams(chi=chi, xi=xi, tau=tau, kinetics=kin)
    num = Numerics()
    dt = frac * dt_cfl(g, params, v, w, num.dt_max, num.cfl_safety)
    new = step(g, solver.State(t=0.0, u=u, v=v, w=w), params, dt, num)

    assert np.min(new.u) >= 0.0 and np.min(new.v) >= 0.0 and np.min(new.w) >= 0.0
    assert np.all(new.w <= w)           # pointwise monotone decay of w

    # the transport divergence integrates to zero up to rounding of the fluxes
    for phi in (new.v, new.w):
        ax, ay = g.face_diff(phi)
        speed = max(np.max(np.abs(ax), initial=0.0), np.max(np.abs(ay), initial=0.0))
        flux = np.max(u) * speed / min(g.hx, g.hy)
        drift = abs(g.integrate(g.taxis_divergence(u, phi)))
        assert drift <= 64 * np.finfo(float).eps * flux * g.area

    if kin.is_zero:
        m0 = g.integrate(u)
        assert abs(g.integrate(new.u) - m0) <= 1e-12 * m0
        assert new.clipped_mass == 0.0


def test_tau_positive_signal_lags():
    # with tau > 0 and v0 = 0 the signal must grow toward u but stay
    # below the elliptic equilibrium early on
    g = Grid(24, 24)
    params = ModelParams(chi=0.0, xi=0.0, tau=1.0, kinetics=ZeroKinetics())
    ic = bump_ic(g, mass=2.0, sigma=0.15, w_level=0.0)
    ic = InitialData(u0=ic.u0, w0=ic.w0, v0=np.zeros(g.shape))
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
    ic = InitialData(u0=np.ones(g.shape), w0=np.zeros(g.shape))
    res = run(g, params, ic, t_end=1.0, num=Numerics(dt_max=1e-2))
    # default cadence t_end / 128 lands near 129 records
    assert 100 <= len(res.records) <= 135


def test_run_divergence_flag():
    g = Grid(64, 64)
    X, Y = g.mesh()
    u0 = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.08 ** 2))
    u0 *= 60.0 / g.integrate(u0)
    ic = InitialData(u0=u0, w0=np.zeros(g.shape))
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
    ic = InitialData(u0=np.full(g.shape, 10.0), w0=np.zeros(g.shape))
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
    ic1 = InitialData(u0=ic.u0, w0=ic.w0, v0=v0)
    p1 = ModelParams(chi=0.0, xi=0.0, tau=2.0, kinetics=ZeroKinetics())
    st1 = initial_state(g, p1, ic1, num)
    assert np.array_equal(st1.v, v0)
    # tau > 0 without v0 starts at the elliptic equilibrium of u0
    st2 = initial_state(g, p1, ic, num)
    assert np.array_equal(st2.v, solve_elliptic_v(g, ic.u0, num.elliptic_tol))
