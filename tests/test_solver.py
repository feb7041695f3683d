"""Time stepper: elliptic solve, CFL, splitting step, full runs."""

import collections
import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemohapto import solver
from chemohapto import (
    Grid,
    InitialData,
    InitialDataError,
    IteratedLogKinetics,
    Kinetics,
    LogisticKinetics,
    ModelParams,
    Numerics,
    PowerSubLogistic,
    ZeroKinetics,
    compatibility_constant,
    dt_cfl,
    entropy,
    g_functional,
    identity_residual,
    initial_state,
    mass_cap,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", ["chi", "xi", "tau"])
def test_model_params_rejects_a_non_finite_or_negative_field(name, value):
    fields = {"chi": 0.0, "xi": 0.0, "tau": 0.0, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0, got {value}$"):
        ModelParams(**fields, kinetics=ZeroKinetics())


def _bad_input_calls():
    """{case: (argument name, call of one bad value)} for every entry point
    that checks a number; tau > 0 with a given v0 needs no solve at t = 0."""
    g = Grid(8, 8)
    params = ModelParams(chi=1.0, xi=0.0, tau=1.0, kinetics=ZeroKinetics())
    ones = np.ones(g.shape)
    ic = InitialData(u0=ones, w0=ones, v0=ones)
    st = initial_state(g, params, ic)
    logistic = LogisticKinetics(1.0)
    return {
        "Numerics-dt_max": ("dt_max", lambda x: Numerics(dt_max=x)),
        "Numerics-overflow_guard": ("overflow_guard", lambda x: Numerics(overflow_guard=x)),
        "run-t_end": ("t_end", lambda x: run(g, params, ic, t_end=x)),
        "step-dt": ("dt", lambda x: step(g, st, params, x)),
        "identity_residual-dt": (
            "dt", lambda x: identity_residual(g, params, st, dataclasses.replace(st, dt=x))),
        "dt_cfl-dt_max": ("dt_max", lambda x: dt_cfl(g, params, st.v, st.w, x)),
        "mass_cap-u0_mass": ("u0_mass", lambda x: mass_cap(logistic, x, 1.0)),
        "mass_cap-area": ("area", lambda x: mass_cap(logistic, 1.0, x)),
    }


# dt_cfl takes dt_max = +inf as "no cap", and a mass of 0 is a mass
_ACCEPTED = {("dt_cfl-dt_max", math.inf), ("mass_cap-u0_mass", 0.0)}


@pytest.mark.parametrize("case, value", [
    (case, value)
    for case in _bad_input_calls()
    for value in [math.nan, math.inf, -math.inf, 0.0, -1.0]
    if (case, value) not in _ACCEPTED])
def test_bad_numeric_input_is_rejected_before_any_solve(monkeypatch, case, value):
    # a nan guard used to switch the divergence flag off, and a nan or inf dt
    # reached the spectral solve, whose residual check then blamed the solver
    def no_solve(*args, **kwargs):
        raise AssertionError("a bad input reached a solve")

    monkeypatch.setattr(solver, "_cg_helmholtz", no_solve)
    name, call = _bad_input_calls()[case]
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call(value)


def test_numerics_is_frozen_so_its_check_holds():
    with pytest.raises(dataclasses.FrozenInstanceError):
        Numerics().overflow_guard = math.nan


def test_a_finite_overflow_guard_flags_the_blow_up_at_the_first_step():
    # a mass-60 bump under chi = 1 passes max u = 1e3 in one step; with a nan
    # guard the same run used to take 1198 steps to max u = 9.9e3 and say ok
    g = Grid(32, 32)
    X, Y = g.mesh()
    u0 = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.08 ** 2))
    u0 *= 60.0 / g.integrate(u0)
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    res = run(g, params, InitialData(u0=u0, w0=np.zeros(g.shape)), t_end=0.1,
              num=Numerics(dt_max=2e-3, overflow_guard=1e3))
    assert res.status == "diverged" and res.steps == 1


def test_model_params_is_frozen_so_its_check_holds():
    # a field set after construction used to skip __post_init__: chi = nan
    # reached the spectral solve and surfaced as a solver RuntimeError
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.chi = math.nan


def test_a_nan_u_flags_the_first_step():
    # the growth term s * a overflows to inf and so does the damping s^2, so
    # the source is inf - inf = nan in every cell; nan fails max(u) <= guard,
    # where a nan-blind max(u) > guard would pass it as ok
    g = Grid(16, 16)
    params = ModelParams(chi=0.0, xi=0.0, tau=0.0,
                         kinetics=Kinetics(r=1.0, a=1e300, c=1.0))
    ic = InitialData(u0=np.full(g.shape, 1e200), w0=np.zeros(g.shape))
    with np.errstate(all="ignore"):
        res = run(g, params, ic, t_end=0.1, num=Numerics(dt_max=1e-3))
    assert res.status == "diverged" and res.steps == 1
    assert np.all(np.isnan(res.final.u))


_PROBE_SOURCES = (ZeroKinetics(), LogisticKinetics(1.0),
                  PowerSubLogistic(1.0, 1.0, 0.5), IteratedLogKinetics(2, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
@pytest.mark.parametrize("name", ["u", "v", "w"])
def test_a_step_raises_or_returns_finite_v_and_w(name, bad):
    # the divergence test reads only u: a non-finite u, v or w reaches a
    # solve, whose residual guard raises, so a returned step has finite v
    # and w, and max(u) <= guard decides as the finiteness of all three
    # fields plus max(u) > guard did
    g = Grid(8, 8)
    X, Y = g.mesh()
    fields = {"u": 1.0 + X, "v": 1.0 + Y, "w": 0.5 + 0.25 * X * Y}
    fields[name][3, 4] = bad
    num = Numerics()
    for kin, tau, (chi, xi), dt in itertools.product(
            _PROBE_SOURCES, (0.0, 1.0), ((1.0, 0.5), (0.0, 0.0), (1.0, 0.0)),
            (1e-3, 1e3)):
        params = ModelParams(chi=chi, xi=xi, tau=tau, kinetics=kin)
        with np.errstate(all="ignore"):
            try:
                new = step(g, solver.State(t=0.0, **fields), params, dt, num)
            except RuntimeError:
                continue
        assert np.all(np.isfinite(new.v)) and np.all(np.isfinite(new.w))
        finite = all(np.all(np.isfinite(f)) for f in (new.u, new.v, new.w))
        seven_pass = not finite or np.max(new.u) > num.overflow_guard
        one_pass = not np.max(new.u) <= num.overflow_guard
        assert (new.status == "diverged") == seven_pass == one_pass
    if name == "u":
        return
    # an extinct carrier skips the transport, whose 0 * a is nan for a
    # non-finite face drift a; the step checks the drift itself, so a bad w
    # (and at tau > 0 a bad v) raises at chi = 1, xi = 0.5, dt = 1e-3 as
    # the full step does
    fields["u"] = np.zeros(g.shape)
    for kin, tau, (chi, xi), dt in itertools.product(
            _PROBE_SOURCES, (0.0, 1.0), ((1.0, 0.5), (0.0, 0.0), (1.0, 0.0)),
            (1e-3, 1e3)):
        params = ModelParams(chi=chi, xi=xi, tau=tau, kinetics=kin)
        must_raise = (chi, xi) == (1.0, 0.5) and dt == 1e-3 and (name == "w" or tau > 0)
        with np.errstate(all="ignore"):
            try:
                new = step(g, solver.State(t=0.0, **fields), params, dt, num)
            except RuntimeError:
                continue
        assert not must_raise
        assert new.status == "ok" and not new.u.any()
        assert np.all(np.isfinite(new.v)) and np.all(np.isfinite(new.w))


def test_model_params_rejects_a_non_kinetics_source():
    with pytest.raises(ValueError, match="kinetics must be a Kinetics instance"):
        ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics="logistic")


def _with(field, value, where):
    a = np.ones((16, 16))
    a[where] = value
    return {field: a}


@pytest.mark.parametrize("fields, tau, message", [
    (_with("u0", math.nan, (3, 4)), 0.0, "u0 contains non-finite values"),
    (_with("u0", math.inf, (0, 0)), 0.0, "u0 contains non-finite values"),
    (_with("w0", math.nan, (3, 4)), 0.0, "w0 contains non-finite values"),
    (_with("w0", -0.5, (3, 4)), 0.0, "w0 must be nonnegative"),
    (_with("v0", math.inf, (3, 4)), 1.0, "v0 contains non-finite values"),
    (_with("v0", -0.5, (3, 4)), 1.0, "v0 must be nonnegative"),
], ids=["u0-nan", "u0-inf", "w0-nan", "w0-negative", "v0-inf-tau1", "v0-negative-tau1"])
def test_initial_data_rejects_each_bad_field(fields, tau, message):
    g = Grid(16, 16)
    data = {"u0": np.ones(g.shape), "w0": np.ones(g.shape), **fields}
    with pytest.raises(InitialDataError, match=message):
        InitialData(**data).validate(g, tau)
    if "v0" in fields:   # tau = 0 ignores v0
        InitialData(**data).validate(g, 0.0)


def _two_axis_constant(grid, w0):
    """compatibility_constant as it stood when it took both axes' face
    differences and face means at once."""
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


def test_gradient_compatibility_constant():
    g = Grid(32, 32)
    X, _ = g.mesh()
    w0 = 0.5 + 0.4 * np.cos(np.pi * X)
    A = compatibility_constant(g, w0)
    InitialData(u0=np.ones(g.shape), w0=w0).validate(g, 0.0)
    dx, dy = g.face_diff(w0)
    assert np.all(dx ** 2 <= A * 0.5 * (w0[:-1, :] + w0[1:, :]))
    assert np.all(dy ** 2 <= A * 0.5 * (w0[:, :-1] + w0[:, 1:]))

    # one axis at a time gives the two-axis formula's bits: either axis
    # steeper, zero faces, and w0 vanishing where it is flat
    rng = np.random.default_rng(12)
    g = Grid(24, 10, 2.0, 0.3)
    X, Y = g.mesh()
    flat = np.full(g.shape, 0.5)
    vanishing = np.where(X < 1.0, 0.0, X - 1.0) ** 2 + 0.1 * Y
    vanishing[:12, :] = 0.0
    for w0 in (w0[:24, :10], 0.5 + 0.4 * np.cos(np.pi * X / 2.0),
               0.5 + 0.4 * np.cos(np.pi * Y / 0.3), rng.random(g.shape), flat, vanishing):
        A = compatibility_constant(g, w0)
        assert A == _two_axis_constant(g, w0)
        assert A > 0.0 or w0 is flat


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
    # the same across x and across y of a 4 x 6 grid, taken one axis at a
    # time and both at once
    g = Grid(4, 6, 1e-7, 1.5e-7)
    for edge in ((0, slice(None)), (slice(None), 0)):
        w0 = np.zeros(g.shape)
        w0[edge] = 2e-14
        for constant in (compatibility_constant, _two_axis_constant):
            with pytest.raises(ValueError, match="no finite A works"):
                constant(g, w0)


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
    exact = scipy.fft.idctn
    monkeypatch.setattr(scipy.fft, "idctn",
                        lambda *a, **kw: exact(*a, **kw) * (1.0 + 1e-6))
    with pytest.raises(RuntimeError, match="residual"):
        solve_elliptic_v(g, u)


def test_guard_catches_a_wrong_operator_at_the_constant_tolerance(monkeypatch):
    # eigenvalues 1e-6 too large leave a residual near 1e-7 of ||b||, far
    # above ELLIPTIC_TOL and its rounding floor on this grid
    g = Grid(32, 24)
    rng = np.random.default_rng(9)
    u = rng.random(g.shape) + 0.5
    params = ModelParams(chi=0.5, xi=0.25, tau=1.0, kinetics=LogisticKinetics(1.0))
    state = solver.State(t=0.0, u=u, v=rng.random(g.shape), w=np.full(g.shape, 0.5))
    solve_elliptic_v(g, u)              # the true table passes
    step(g, state, params, 1e-3)
    exact = solver._neumann_eigenvalues

    def skewed(*key):
        factors = tuple(a * (1.0 + 1e-6) for a in exact(*key))
        for a in factors:
            a.flags.writeable = False
        return factors

    monkeypatch.setattr(solver, "_neumann_eigenvalues", skewed)
    with pytest.raises(RuntimeError, match="residual"):
        solve_elliptic_v(g, u)
    with pytest.raises(RuntimeError, match="residual"):
        step(g, state, params, 1e-3)


def test_non_finite_solve_input_raises():
    g = Grid(16, 16)
    u = np.ones(g.shape)
    u[4, 4] = np.nan
    with pytest.raises(RuntimeError, match="residual"):
        solve_elliptic_v(g, u)


@pytest.mark.parametrize("n, c0, diff, tol", [
    (16, 1.0, 1.0, 1e-10),          # chemical solve at tau = 0: tol sets the target
    (32, 41.0, 1.0, 1e-10),         # chemical solve at tau > 0
    (32, 1.0, 2.5e-3, 1e-10),       # diffusion solve
    (256, 1.0, 1.0, 1e-14),         # the rounding floor sets the target
])
def test_missed_target_names_the_larger_of_tol_and_floor(monkeypatch, n, c0, diff, tol):
    # the floor is only computed once ||r|| misses tol * ||b||; the message
    # still names max(tol * ||b||, eps * (c0 + diff * lam_max) * ||x||)
    g = Grid(n, n)
    b = np.random.default_rng(n).random(g.shape) + 0.5
    lx, ly = solver._neumann_eigenvalues(g.nx, g.ny, g.hx, g.hy)
    lam = lx + ly
    exact = scipy.fft.idctn

    def corrupted(*a, **kw):
        return exact(*a, **kw) * (1.0 + 1e-6)

    x = corrupted(scipy.fft.dctn(b, type=2, norm="ortho") / (c0 + diff * lam),
                  type=2, norm="ortho")
    floor = np.finfo(float).eps * (c0 + diff * lam.max()) * solver._norm2(x)
    target = max(tol * solver._norm2(b), floor)
    assert (floor > tol * solver._norm2(b)) == (n == 256)
    monkeypatch.setattr(scipy.fft, "idctn", corrupted)
    with pytest.raises(RuntimeError, match=re.escape(f"> {target:.3e} (tol={tol})")):
        solver._cg_helmholtz(g, b, c0, diff, tol)
    monkeypatch.undo()
    b[3, 5] = np.nan
    with pytest.raises(RuntimeError, match=re.escape("> nan (tol=")):
        solver._cg_helmholtz(g, b, c0, diff, tol)


def test_tol_below_rounding_floor_is_met_at_the_floor():
    # at 256^2 the residual of (I - Lap) x = u cannot be evaluated below
    # about eps * lam_max * ||x|| ~ 1e-10 ||x||; a tighter tol is accepted
    # there instead of failing every solve on large grids
    g = Grid(256, 256)
    u = np.random.default_rng(4).random(g.shape)
    v = solve_elliptic_v(g, u, tol=1e-14)
    r = u - (v - g.laplacian_neumann(v))
    lx, ly = solver._neumann_eigenvalues(g.nx, g.ny, g.hx, g.hy)
    lam = lx + ly
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
        b_in = b.copy()
        for c0, diff in ((0.5 / 1e-3 + 1.0, 1.0), (1.0, 1e-3)):    # signal, diffusion
            want = scipy.fft.idctn(scipy.fft.dctn(b, type=2, norm="ortho")
                                   / (c0 + diff * lam), type=2, norm="ortho")
            for _ in range(2):      # the second call reuses the cached eigenvalues
                assert np.array_equal(solver._cg_helmholtz(g, b, c0, diff, 1e-10), want)
                assert np.array_equal(b, b_in)
    # the cache holds the two per-axis factors, neither of them writable
    lx, ly = solver._neumann_eigenvalues(12, 7, 1.0 / 12, 1.0 / 7)
    assert lx.shape == (12, 1) and ly.shape == (1, 7)
    assert not lx.flags.writeable and not ly.flags.writeable


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dt_cfl_raises_on_a_non_finite_face_speed(bad):
    # v = x moves every face at speed 1, so dt_cfl gives 0.4 / 8; one nan
    # cell used to read as no speed (inf) and one inf cell as dt 0.0
    g = Grid(8, 8)
    X, _ = g.mesh()
    params = ModelParams(chi=1.0, xi=0.0, tau=1.0, kinetics=ZeroKinetics())
    w = np.zeros(g.shape)
    assert dt_cfl(g, params, X, w, math.inf) == 0.05
    v = X.copy()
    v[3, 4] = bad
    with pytest.raises(ValueError, match="face speed must be finite"):
        dt_cfl(g, params, v, w, math.inf)


def test_opposing_drifts_cancel_in_the_one_taxis_velocity():
    # chi v + xi w = x + (1 - x) = 1 exactly at the dyadic cell centres, so
    # chemotaxis and haptotaxis cancel on every face and nothing limits dt
    g = Grid(16, 16)
    X, _ = g.mesh()
    params = ModelParams(chi=1.0, xi=1.0, tau=1.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.ones(g.shape), w0=1.0 - X, v0=X.copy())
    assert initial_state(g, params, ic).cfl_dt == math.inf
    assert dt_cfl(g, params, ic.v0, ic.w0, 0.5) == 0.5


def test_adding_drifts_bound_dt_by_the_face_speed_of_the_potential():
    g = Grid(16, 16)
    X, Y = g.mesh()
    params = ModelParams(chi=1.0, xi=2.0, tau=1.0, kinetics=ZeroKinetics())
    v = X + 0.25 * Y ** 2
    w = 0.1 + 0.5 * X + 0.125 * Y
    ax, ay = g.face_diff(params.chi * v + params.xi * w)
    speed = max(np.max(np.abs(ax)), np.max(np.abs(ay)))
    assert dt_cfl(g, params, v, w, 1.0) == pytest.approx(
        solver.CFL_SAFETY * min(g.hx, g.hy) / speed, rel=1e-12)
    # d(chi v + xi w)/dx = 1 + 2 * 0.5 = 2 on every x face, and the y faces
    # move slower: |dv/dy| <= 0.5 and dw/dy = 0.125
    assert dt_cfl(g, params, v, w, 1.0) == pytest.approx(0.4 * g.hx / 2.0, rel=1e-12)


def test_carried_cfl_bound_gives_the_dt_cfl_bound(monkeypatch):
    g = Grid(32, 32)
    params = ModelParams(chi=1.5, xi=0.75, tau=1.0, kinetics=LogisticKinetics(1.0))
    ic = bump_ic(g, mass=4.0, sigma=0.08)
    ic = InitialData(u0=ic.u0, w0=0.5 + 0.1 * ic.u0 / ic.u0.max(), v0=0.5 * ic.u0)
    num = Numerics(dt_max=1.0)
    st = initial_state(g, params, ic)
    assert st.dt == 0.0
    assert st.cfl_dt == dt_cfl(g, params, st.v, st.w, math.inf)
    for _ in range(8):
        dt = dt_cfl(g, params, st.v, st.w, num.dt_max)
        st = step(g, st, params, dt, num)
        assert st.dt == dt
        for dt_max in (1.0, 1e-6):
            assert min(st.cfl_dt, dt_max) == dt_cfl(g, params, st.v, st.w, dt_max)

    # run computes the bound from the fields only for the initial state
    calls = []

    def counting_dt_cfl(*args, **kwargs):
        calls.append(args)
        return dt_cfl(*args, **kwargs)

    monkeypatch.setattr(solver, "dt_cfl", counting_dt_cfl)
    res = run(g, params, ic, t_end=0.01, num=Numerics(dt_max=1e-2))
    assert res.steps > 3 and len(calls) == 1


def test_run_records_the_cfl_limited_dt_of_each_step():
    g = Grid(32, 32)
    params = ModelParams(chi=1.5, xi=0.75, tau=0.0, kinetics=LogisticKinetics(1.0))
    base = bump_ic(g, mass=4.0, sigma=0.08)
    ic = InitialData(u0=base.u0, w0=0.5 + 0.1 * base.u0 / base.u0.max())
    num = Numerics(dt_max=1e-2)
    st0 = initial_state(g, params, ic)
    dt0 = dt_cfl(g, params, st0.v, st0.w, num.dt_max)
    assert dt0 < num.dt_max
    # an interval far below one step records every step
    res = run(g, params, ic, t_end=0.01, num=num, observe_interval=1e-9)
    assert len(res.records) == res.steps + 1 > 3
    assert res.records[0].dt == 0.0 and res.records[0].identity_residual == 0.0
    assert res.records[1].dt == dt0
    st1 = step(g, st0, params, dt0, num)
    assert res.records[1].identity_residual == identity_residual(g, params, st0, st1)
    assert sum(r.dt for r in res.records) == pytest.approx(0.01, rel=1e-12)


def _reference_step(g, state, params, dt, ref_f):
    # the split step spelled out with taxis_divergence, fed the face
    # differences of the taxis potential chi v + xi w, and the old source
    # evaluation ref_f
    u, v, w = state.u, state.v, state.w
    if params.tau == 0.0:
        v_new = solve_elliptic_v(g, u, solver.ELLIPTIC_TOL)
        v_frozen = v_new
    else:
        v_new = solver._cg_helmholtz(g, (params.tau / dt) * v + u,
                                     params.tau / dt + 1.0, 1.0, solver.ELLIPTIC_TOL)
        v_frozen = 0.5 * (v + v_new)
    w_new = w * np.exp(-dt * np.maximum(v_frozen, 0.0))
    phi = params.chi * v_new
    phi += params.xi * w_new
    u_star = u - dt * g.taxis_divergence(u, *g.face_diff(phi))
    u_dd = solver._cg_helmholtz(g, u_star, 1.0, dt, solver.ELLIPTIC_TOL)
    u_rx = u_dd
    if not params.kinetics.is_zero:
        u_rx = u_dd + dt * ref_f(params.kinetics, np.maximum(u_dd, 0.0), w_new)
    clipped = g.integrate(np.maximum(-u_rx, 0.0))
    return np.maximum(u_rx, 0.0), v_new, w_new, clipped


# damped sources meet zero cells: those u_dd rounds to <= 0 near empty
# regions (the example has 4 among 456 live ones), and every cell once u is
# all zero
STEP_SOURCES = (ZeroKinetics(), LogisticKinetics(1.0), LogisticKinetics(30.0),
                IteratedLogKinetics(1, 1.0), IteratedLogKinetics(2, 1.0),
                IteratedLogKinetics(3, 2.5), PowerSubLogistic(1.0, 1.0, 0.5))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 20),
       chi=st.floats(0.0, 5.0), xi=st.floats(0.0, 5.0),
       tau=st.sampled_from([0.0, 0.5, 2.0]), kin=st.sampled_from(STEP_SOURCES),
       empty=st.sampled_from([0.2, 0.8, 0.95, 1.0]), dt=st.floats(1e-5, 1e-2))
@example(seed=0, n=20, chi=1.0, xi=0.5, tau=0.0, kin=STEP_SOURCES[4], empty=0.8, dt=1e-2)
@example(seed=0, n=20, chi=1.0, xi=0.5, tau=0.0, kin=STEP_SOURCES[5], empty=1.0, dt=1e-2)
@example(seed=0, n=20, chi=1.0, xi=0.5, tau=2.0, kin=STEP_SOURCES[1], empty=1.0, dt=1e-2)
def test_step_matches_reference_step_bitwise(ref_f, seed, n, chi, xi, tau, kin, empty, dt):
    g = Grid(n, n + 3)
    rng = np.random.default_rng(seed)
    u = rng.random(g.shape) * 3.0
    u[rng.random(g.shape) < empty] = 0.0     # empty = 1.0 clears every cell
    v = rng.random(g.shape)
    w = np.round(rng.random(g.shape), 1)      # flat patches: zero face differences
    params = ModelParams(chi=chi, xi=xi, tau=tau, kinetics=kin)
    num = Numerics()
    state = solver.State(t=0.0, u=u, v=v, w=w)
    new = step(g, state, params, dt, num)
    u_ref, v_ref, w_ref, clipped_ref = _reference_step(g, state, params, dt, ref_f)
    assert new.u.tobytes() == u_ref.tobytes()
    assert new.v.tobytes() == v_ref.tobytes()
    assert new.w.tobytes() == w_ref.tobytes()
    assert new.clipped_mass == clipped_ref
    assert min(new.cfl_dt, 1.0) == dt_cfl(g, params, new.v, new.w, 1.0)


def _mirror_step(g, params, fields, dt, image):
    # one step from the image of the fields, and its identity residuals
    prev = solver.State(t=0.0, **{k: np.ascontiguousarray(image(f))
                                  for k, f in fields.items()})
    new = step(g, prev, params, dt)
    return new, [identity_residual(g, params, prev, new, m=m) for m in (None, 1)]


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_one_step_commutes_with_the_symmetries_of_the_square(tau):
    # a sign or index slip in the taxis potential, the transport or the
    # identity's drift breaks one of these
    g = Grid(32, 32)
    rng = np.random.default_rng(32)
    fields = {k: rng.random(g.shape) for k in "uvw"}
    params = ModelParams(chi=1.3, xi=0.7, tau=tau, kinetics=LogisticKinetics(1.0))
    dt = dt_cfl(g, params, fields["v"], fields["w"], 1e-2)
    new, res = _mirror_step(g, params, fields, dt, lambda f: f)
    # the residual subtracts (H1 - H0) / dt from the other terms, so it
    # agrees to the rounding of that quotient, not of itself
    scale = [r + (abs(H(fields["u"])) + abs(H(new.u))) / dt for r, H in
             zip(res, (functools.partial(entropy, g),
                       lambda u: g_functional(g, u, 1)))]

    def close(a, b, ref):
        return abs(a - b) <= 1e-13 * ref

    # the x-flip reverses the first axis, and every bit of the step with it
    def flip_x(f):
        return f[::-1, :]

    mirror, mres = _mirror_step(g, params, fields, dt, flip_x)
    for k in "uvw":
        assert getattr(mirror, k).tobytes() == flip_x(getattr(new, k)).tobytes(), k
    assert mirror.cfl_dt == new.cfl_dt
    assert all(close(a, b, s) for a, b, s in zip(mres, res, scale)), (mres, res)
    # the y-flip, the half turn and the transpose agree to rounding
    for name, image in (("y-flip", lambda f: f[:, ::-1]),
                        ("half turn", lambda f: f[::-1, ::-1]),
                        ("transpose", lambda f: f.T)):
        mirror, mres = _mirror_step(g, params, fields, dt, image)
        for k in "uvw":
            ref = getattr(new, k)
            assert close(getattr(mirror, k), image(ref), np.max(np.abs(ref))).all(), (name, k)
        assert close(mirror.cfl_dt, new.cfl_dt, new.cfl_dt), name
        assert all(close(a, b, s) for a, b, s in zip(mres, res, scale)), (name, mres, res)


@pytest.mark.parametrize("tau, solves", [(0.0, 0), (2.0, 1)])
def test_an_extinct_step_skips_the_transport_the_solves_and_the_reaction(
        monkeypatch, tau, solves):
    calls = collections.Counter()
    for owner, name in ((solver, "_cg_helmholtz"), (Grid, "taxis_divergence"),
                        (Kinetics, "f")):
        def counted(*args, _inner=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    g = Grid(12, 12)
    X, Y = g.mesh()
    params = ModelParams(chi=1.0, xi=0.5, tau=tau, kinetics=IteratedLogKinetics(3, 2.5))
    state = solver.State(t=0.0, u=np.zeros(g.shape), v=1.0 + Y, w=0.5 + 0.25 * X * Y)
    new = step(g, state, params, 1e-2)
    # only the implicit chemical solve of tau > 0 is left
    assert calls["_cg_helmholtz"] == solves
    assert calls["taxis_divergence"] == calls["f"] == 0
    assert new.u.tobytes() == np.zeros(g.shape).tobytes()
    assert new.status == "ok" and new.clipped_mass == 0.0
    # one live cell runs the whole step
    calls.clear()
    state.u[5, 5] = 1.0
    step(g, state, params, 1e-2)
    assert calls == {"_cg_helmholtz": 2, "taxis_divergence": 1, "f": 1}


def test_run_stops_at_step_factor_times_its_dt_max_steps(monkeypatch):
    # the budget is STEP_FACTOR * ceil(t_end / dt_max): with a factor of 1 a
    # run limited by dt_max alone takes exactly its budget, ceil(4.5) = 5
    # steps, and a CFL-limited one raises once it has taken as many
    monkeypatch.setattr(solver, "STEP_FACTOR", 1)
    g = Grid(16, 16)
    ic = bump_ic(g, mass=4.0, sigma=0.08)
    num = Numerics(dt_max=1e-3)
    free = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    assert run(g, free, ic, t_end=4.5e-3, num=num).steps == 5
    taxis = ModelParams(chi=20.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    assert initial_state(g, taxis, ic).cfl_dt < 4.5e-4
    with pytest.raises(RuntimeError, match=r"^run reached its budget of 5 steps "
                                           r"at t = \S+ short of t_end = 0\.0045$"):
        run(g, taxis, ic, t_end=4.5e-3, num=num)


def test_run_extinct_t_is_the_t_of_the_first_empty_state():
    # iterlog k = 3 has f(0+) = -inf and kills the cells within a few steps;
    # every step is recorded
    g = Grid(12, 12)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=IteratedLogKinetics(3, 2.5))
    res = run(g, params, bump_ic(g, mass=1.0), t_end=0.05, num=Numerics(dt_max=1e-3),
              observe_interval=1e-9)
    empty = [r.t for r in res.records if r.linf_u == 0.0]
    assert 0.0 < res.extinct_t == empty[0] < 0.05
    assert [r.t for r in res.records if r.t >= res.extinct_t] == empty


def test_homogeneous_state_is_stationary():
    g = Grid(16, 16)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.full(g.shape, 2.0), w0=np.zeros(g.shape))
    num = Numerics()
    st = initial_state(g, params, ic)
    for _ in range(5):
        st = step(g, st, params, 1e-2, num)
    assert np.max(np.abs(st.u - 2.0)) < 1e-13
    assert np.max(np.abs(st.v - 2.0)) < 1e-13


def test_w_exact_exponential_for_constant_fields():
    g = Grid(16, 16)
    params = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.full(g.shape, 3.0), w0=np.full(g.shape, 0.8))
    num = Numerics()
    st = initial_state(g, params, ic)
    st = step(g, st, params, 0.01, num)
    # constant u keeps v = 3 exactly, so w drops by exp(-dt * 3)
    assert np.max(np.abs(st.w - 0.8 * math.exp(-0.03))) < 1e-13


def test_mass_conserved_without_kinetics():
    g = Grid(48, 48)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    ic = bump_ic(g)
    num = Numerics(dt_max=2e-3)
    st = initial_state(g, params, ic)
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
    st = initial_state(g, params, ic)
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
    dt = frac * dt_cfl(g, params, v, w, num.dt_max)
    new = step(g, solver.State(t=0.0, u=u, v=v, w=w), params, dt, num)

    assert np.min(new.u) >= 0.0 and np.min(new.v) >= 0.0 and np.min(new.w) >= 0.0
    assert np.all(new.w <= w)           # pointwise monotone decay of w

    # the transport divergence integrates to zero up to rounding of the fluxes
    for phi in (new.v, new.w):
        ax, ay = g.face_diff(phi)
        speed = max(np.max(np.abs(ax), initial=0.0), np.max(np.abs(ay), initial=0.0))
        flux = np.max(u) * speed / min(g.hx, g.hy)
        drift = abs(g.integrate(g.taxis_divergence(u, ax, ay)))
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
    st = initial_state(g, params, ic)
    v_eq = solve_elliptic_v(g, st.u)
    st1 = step(g, st, params, 1e-3, num)
    assert 0.0 < np.max(st1.v) < np.max(v_eq)


# ---------------------------------------------------------------- runs


def test_run_rejects_observe_interval_below_the_time_resolution():
    g = Grid(8, 8)
    params = ModelParams(chi=0.5, xi=0.25, tau=0.0, kinetics=LogisticKinetics(1.0))
    with pytest.raises(ValueError, match="observe_interval"):
        run(g, params, bump_ic(g, mass=1.0), t_end=0.05, observe_interval=1e-18)


@pytest.mark.parametrize("dt_max", [1e-300])
def test_run_rejects_dt_max_below_the_time_resolution(monkeypatch, dt_max):
    # 1e-300 would need 1e300 steps to reach t_end; it may not reach the stepper
    def no_step(*args, **kwargs):
        raise AssertionError("run stepped with a dt_max below the time resolution")

    monkeypatch.setattr(solver, "step", no_step)
    g = Grid(8, 8)
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    with pytest.raises(ValueError, match="dt_max must be at least"):
        run(g, params, bump_ic(g, mass=1.0), t_end=1.0, num=Numerics(dt_max=dt_max))


def test_numerics_rejects_a_nan_dt_max_before_any_step(monkeypatch):
    # a nan cap used to be dropped by min(); Numerics now refuses it when it is
    # built, so no run starts and no step is taken
    def no_step(*args, **kwargs):
        raise AssertionError("run stepped with a nan dt_max")

    monkeypatch.setattr(solver, "step", no_step)
    g = Grid(8, 8)
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    with pytest.raises(ValueError, match="dt_max must be finite and > 0, got nan"):
        run(g, params, bump_ic(g, mass=1.0), t_end=1.0, num=Numerics(dt_max=math.nan))


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
    # tau = 0 derives v0 from u0 through the elliptic solve
    p0 = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    st0 = initial_state(g, p0, ic)
    assert np.max(np.abs(st0.v - solve_elliptic_v(g, ic.u0))) < 1e-12
    # tau > 0 takes the supplied v0 verbatim
    v0 = np.full(g.shape, 0.123)
    ic1 = InitialData(u0=ic.u0, w0=ic.w0, v0=v0)
    p1 = ModelParams(chi=0.0, xi=0.0, tau=2.0, kinetics=ZeroKinetics())
    st1 = initial_state(g, p1, ic1)
    assert np.array_equal(st1.v, v0)
    # tau > 0 without v0 starts at the elliptic equilibrium of u0
    st2 = initial_state(g, p1, ic)
    assert np.array_equal(st2.v, solve_elliptic_v(g, ic.u0))
