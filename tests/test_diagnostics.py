"""Functionals, energy-identity residual, interpolation-constant estimates."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemohapto import (
    Grid,
    InitialData,
    LogisticKinetics,
    ModelParams,
    Numerics,
    ZeroKinetics,
    entropy,
    e_tower,
    g_functional,
    gn_constant_estimate,
    identity_residual,
    initial_state,
    log_gn_check,
    matrix_decay_violation,
    plateau_ratio,
    step,
)
from chemohapto.diagnostics import (
    _BOUND_MARGIN,
    DiagnosticsRecord,
    _anchor_bumps,
    _cosine_modes,
    _gaussian_bump,
)
from chemohapto.io import read_series, write_series


# ---------------------------------------------------------------- entropy


def test_entropy_oracles():
    g = Grid(16, 16, 2.0, 1.0)
    assert entropy(g, np.ones(g.shape)) == pytest.approx(0.0, abs=1e-14)
    # integral of e * ln e = e over area 2
    assert entropy(g, np.full(g.shape, math.e)) == pytest.approx(2 * math.e,
                                                                 rel=1e-13)
    with pytest.raises(ValueError):
        entropy(g, -np.ones(g.shape))


def test_entropy_zero_density_contributes_nothing():
    g = Grid(16, 16)
    u = np.zeros(g.shape)
    u[3, 3] = 1.0 / g.cell_area   # unit point mass, u ln u = 0 elsewhere
    val = entropy(g, u)
    assert val == pytest.approx(math.log(1.0 / g.cell_area), rel=1e-12)


def test_g_functional_oracles():
    g = Grid(16, 16)
    # m = 1: (0 + e) ln(0 + e) = e over the unit square
    assert g_functional(g, np.zeros(g.shape), 1) == pytest.approx(math.e,
                                                                  rel=1e-13)
    # u = e^2 - e makes (u + e) ln(u + e) = 2 e^2
    u = np.full(g.shape, math.e ** 2 - math.e)
    assert g_functional(g, u, 1) == pytest.approx(2 * math.e ** 2, rel=1e-13)
    # m = 2 at u = 0: e^[2] * ln^[2](e^[2]) = e^[2]
    assert g_functional(g, np.zeros(g.shape), 2) == pytest.approx(e_tower(2),
                                                                  rel=1e-13)
    with pytest.raises(ValueError):
        g_functional(g, np.ones(g.shape), 4)


# ---------------------------------------------------------------- identity


def _one_step(g, params, ic, dt):
    num = Numerics(dt_max=dt)
    st0 = initial_state(g, params, ic)
    st1 = step(g, st0, params, dt, num)
    return st0, st1


def test_identity_residual_stationary_state():
    # homogeneous u with zero kinetics: every term in the balance is zero
    g = Grid(24, 24)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    ic = InitialData(u0=np.full(g.shape, 2.0), w0=np.zeros(g.shape))
    st0, st1 = _one_step(g, params, ic, 1e-2)
    for m in (None, 1, 2):
        r = identity_residual(g, params, st0, st1, m=m)
        assert r < 1e-11


def test_identity_residual_needs_a_performed_step():
    # a state no step made has dt = 0, so there is no step to measure
    g = Grid(8, 8)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    st0 = initial_state(g, params, InitialData(u0=np.full(g.shape, 2.0),
                                               w0=np.zeros(g.shape)))
    assert st0.dt == 0.0
    with pytest.raises(ValueError, match="dt must be positive"):
        identity_residual(g, params, st0, st0)


def test_identity_residual_small_on_smooth_run():
    g = Grid(64, 64)
    X, Y = g.mesh()
    u0 = 1.0 + np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.2 ** 2))
    w0 = 0.3 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    params = ModelParams(chi=0.5, xi=0.25, tau=0.0,
                         kinetics=LogisticKinetics(1.0))
    ic = InitialData(u0=u0, w0=w0)
    dt = 20.0 * g.hx ** 2
    st0, st1 = _one_step(g, params, ic, dt)
    # the first step carries the largest splitting transient of the run
    for m, cap in ((None, 0.5), (1, 0.2), (2, 0.05)):
        r = identity_residual(g, params, st0, st1, m=m)
        assert 0.0 <= r < cap


def test_identity_residual_halves_under_refinement():
    errs = []
    for nx in (32, 64):
        g = Grid(nx, nx)
        X, Y = g.mesh()
        u0 = 1.0 + np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.2 ** 2))
        w0 = 0.3 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        params = ModelParams(chi=0.5, xi=0.25, tau=0.0,
                             kinetics=LogisticKinetics(1.0))
        ic = InitialData(u0=u0, w0=w0)
        num = Numerics(dt_max=20.0 * g.hx ** 2)
        st = initial_state(g, params, ic)
        last = math.inf
        while st.t < 0.02 - 1e-12:
            prev = st
            st = step(g, st, params, num.dt_max, num)
            last = identity_residual(g, params, prev, st, m=None)
        errs.append(last)
    assert errs[1] < 0.5 * errs[0]


# ---------------------------------------------------------------- bounds


def test_matrix_decay_violation_sign():
    g = Grid(32, 32)
    X, _ = g.mesh()
    w = 0.5 + 0.2 * np.cos(np.pi * X)
    v = np.ones(g.shape)
    # kappa above the curvature sup keeps the margin negative
    kappa = float(np.max(np.abs(g.laplacian_neumann(w)))) + 1.0
    assert matrix_decay_violation(g, w, v, 0.0, 1.0, kappa) < 0.0
    # kappa = 0 exposes the raw curvature: margin equals max(-lap w)
    raw = matrix_decay_violation(g, w, v, 0.0, 1.0, 0.0)
    assert raw == pytest.approx(float(np.max(-g.laplacian_neumann(w))),
                                rel=1e-12)


@pytest.mark.parametrize("m, u, message", [
    (0, 1.0, "log order m must be an integer >= 1, got 0"),
    (1, -0.5, "g_functional requires a nonnegative field"),
], ids=["m0", "negative-field"])
def test_g_functional_rejects_its_inputs(m, u, message):
    g = Grid(8, 8)
    field = np.ones(g.shape)
    field[2, 3] = u
    with pytest.raises(ValueError, match=message):
        g_functional(g, field, m)


@pytest.mark.parametrize("times, values, message", [
    ([0.0, 1.0, 2.0], [1.0, 2.0], "matching time/value arrays"),
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "records in both halves"),
], ids=["mismatched-lengths", "empty-second-half"])
def test_plateau_ratio_rejects_unusable_histories(times, values, message):
    with pytest.raises(ValueError, match=message):
        plateau_ratio(np.array(times), np.array(values))


def test_plateau_ratio_split():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    # halves split at t = 1.5: max(3,4)/max(1,2)
    assert plateau_ratio(times, vals) == pytest.approx(2.0)
    flat = np.ones(4)
    assert plateau_ratio(times, flat) == pytest.approx(1.0)


def test_record_csv_roundtrip(tmp_path):
    rec = DiagnosticsRecord(
        t=0.1, mass=4.0, l2_u=1.5, linf_u=62.13, entropy=-0.25,
        g_m=7.0, grad_v_l4=0.3, linf_grad_v=0.7, linf_grad_w=0.01,
        identity_residual=1e-6, delta_w_violation_max=-2.0,
        clipped_mass=0.0, dt=1e-3)
    path = str(tmp_path / "series.csv")
    write_series(path, [rec])
    cols = read_series(path)
    assert list(cols) == [f.name for f in fields(DiagnosticsRecord)]
    assert len(cols) == 13
    # %.17g keeps doubles bit-exact through text
    assert cols["linf_u"][0] == 62.13
    assert cols["identity_residual"][0] == 1e-6


# ---------------------------------------------------------------- gn


def test_gn_estimate_at_least_constant_floor():
    g = Grid(64, 64)
    est = gn_constant_estimate(g, 4, 2)
    assert est >= 1.0 - 1e-12          # |Omega|^{1/4 - 1/2} = 1 here
    g2 = Grid(48, 48, 2.0, 2.0)
    est2 = gn_constant_estimate(g2, 4, 2)
    assert est2 >= 4.0 ** (-0.25) - 1e-12


def test_gn_estimate_is_a_witness():
    # the returned value must be realized by some field: re-check that the
    # constant field attains exactly the floor on the unit square
    g = Grid(32, 32)
    est = gn_constant_estimate(g, 4, 2)
    f = np.ones(g.shape)
    delta = 1.0 - 2.0 / 4.0
    den = (g.grad_norm(f, 2) ** delta * g.norm(f, 2) ** (1 - delta)
           + g.norm(f, 2))
    assert est >= g.norm(f, 4) / den - 1e-12


def test_gn_estimate_validation():
    g = Grid(16, 16)
    with pytest.raises(ValueError):
        gn_constant_estimate(g, 2, 2)     # needs p > q
    with pytest.raises(ValueError):
        gn_constant_estimate(g, 4, 0.5)   # q >= 1
    # a nan order is rejected, not read as 1.0 (ones ** nan == 1)
    for p, q in ((math.nan, 2), (4, math.nan)):
        with pytest.raises(ValueError):
            gn_constant_estimate(g, p, q)


# gn_constant_estimate as it stood before it skipped the lanes that round
# to +0, run on a grid with the kernels of that time (the ref_grid fixture
# of conftest.py); the estimator must reproduce it bit for bit.  It still
# takes the lower-order term's order r, and is called with r = q.


def _ref_gn_constant_estimate(grid: Grid, p: float, q: float, r: float) -> float:
    if not (p > q >= 1):
        raise ValueError(f"need p > q >= 1, got p={p}, q={q}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    delta = 1.0 - q / p
    X, Y = grid.mesh()

    def ratio(phi: np.ndarray) -> float:
        num_ = grid.norm(phi, p)
        if num_ == 0.0:
            return 0.0
        den = grid.grad_norm(phi, 2) ** delta * grid.norm(phi, q) ** (1 - delta) + grid.norm(phi, r)
        return num_ / den

    best = ratio(np.ones((grid.nx, grid.ny)))

    for i, j in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)):
        mode = np.cos(i * math.pi * X / grid.Lx) * np.cos(j * math.pi * Y / grid.Ly)
        for c in (0.0, 0.5, 1.0):
            best = max(best, ratio(np.abs(mode + c)))

    def bump(cx, cy, log_sigma, base):
        sig = math.exp(log_sigma)
        phi = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sig * sig))
        return phi + base

    anchors = [
        (ax * grid.Lx, ay * grid.Ly)
        for ax in (0.0, 0.5, 1.0)
        for ay in (0.0, 0.5, 1.0)
    ]
    sig_lo = max(grid.hx, grid.hy)
    sig_hi = 0.25 * min(grid.Lx, grid.Ly)
    best_params = None
    for cx, cy in anchors:
        for sig in np.geomspace(sig_lo, sig_hi, 6):
            val = ratio(bump(cx, cy, math.log(sig), 0.0))
            if val > best:
                best = val
                best_params = [cx, cy, math.log(sig), 0.0]

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
                    val = ratio(bump(*trial))
                    if val > best:
                        best = val
                        best_params = trial
                        improved = True
            if not improved:
                steps = [s * 0.5 for s in steps]
                if max(steps) < 1e-4:
                    break
    return float(best)


GN_GEOMETRIES = (
    (32, 32, 1.0, 1.0),
    (48, 48, 1.0, 1.0),
    (64, 32, 2.0, 1.0),
    (48, 48, 2.0, 2.0),
    (33, 47, 1.3, 0.7),
    (17, 64, 0.5, 3.0),
    (25, 39, 3.0, 2.0),
    (40, 24, 1.0, 0.6),
    (21, 21, 0.4, 0.4),
    # widths below the cell size: some anchor bumps peak near 2.6e-80, their
    # powers underflow and they must be normed on the grid, not bounded
    (21, 76, 50.0, 0.1),
    # a bump beats the floor, so the pruning runs against a raised best and
    # the pattern search follows
    (24, 24, 4.0, 4.0),
    # thin domains: a cosine mode beats the constant, so the later modes and
    # the bumps are pruned against a mode's ratio
    (8, 8, 0.05, 100.0),
    (8, 8, 100.0, 0.05),
    (32, 32, 0.001, 1000.0),
)


@pytest.mark.parametrize("pq", [(4, 2), (3, 1)])
def test_gn_estimate_matches_unmasked_estimator_bitwise(ref_grid, pq):
    p, q = pq
    for shape in GN_GEOMETRIES:
        est = gn_constant_estimate(Grid(*shape), p, q)
        ref = _ref_gn_constant_estimate(ref_grid(*shape), p, q, q)
        assert est.hex() == ref.hex(), (shape, pq)


def _grid_ratio(grid, phi, p, q):
    # the ratio gn_constant_estimate takes of a field it builds
    delta = 1.0 - q / p
    num_ = grid.norm(phi, p)
    if num_ == 0.0:
        return 0.0
    nq = grid.norm(phi, q)
    return num_ / (grid.grad_norm(phi, 2) ** delta * nq ** (1 - delta) + nq)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(4, 48), ny=st.integers(4, 48),
       log_lx=st.floats(-3.0, 3.0), log_ly=st.floats(-3.0, 3.0),
       pq=st.sampled_from([(4, 2), (3, 1)]))
def test_gn_separable_bound_dominates_grid_ratio(ref_grid, nx, ny, log_lx,
                                                  log_ly, pq):
    # a bump marked safe may be skipped, so its grid ratio must not exceed
    # the widened bound; the estimate stays the unpruned one bit for bit
    p, q = pq
    shape = (nx, ny, 10.0 ** log_lx, 10.0 ** log_ly)
    g = Grid(*shape)
    for cx, cy, log_sig, bound, safe in _anchor_bumps(g, p, q):
        if safe:
            val = _grid_ratio(g, _gaussian_bump(g, cx, cy, log_sig, 0.0), p, q)
            assert val <= bound * (1.0 + _BOUND_MARGIN), (cx, cy, log_sig)
    est = gn_constant_estimate(g, p, q)
    assert est.hex() == _ref_gn_constant_estimate(ref_grid(*shape), p, q, q).hex()


def _mode_field(g, i, j, c):
    # the cosine mode gn_constant_estimate builds on the grid
    return np.abs(np.cos(i * math.pi * g.x / g.Lx)[:, None]
                  * np.cos(j * math.pi * g.y / g.Ly)[None, :] + c)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(4, 48), ny=st.integers(4, 48),
       log_lx=st.floats(-3.0, 3.0), log_ly=st.floats(-3.0, 3.0),
       pq=st.sampled_from([(4, 2), (3, 1)]))
def test_gn_separable_mode_bound_dominates_grid_ratio(nx, ny, log_lx, log_ly, pq):
    # a cosine mode marked safe may be skipped, so its grid ratio must not
    # exceed the widened bound; the bound is that ratio up to rounding, and
    # the two modes |a b + 1/2| are never safe
    p, q = pq
    g = Grid(nx, ny, 10.0 ** log_lx, 10.0 ** log_ly)
    for i, j, c, bound, safe in _cosine_modes(g, p, q):
        assert safe == ((i, j, c) not in ((1, 1, 0.5), (2, 1, 0.5))), (i, j, c)
        if safe:
            val = _grid_ratio(g, _mode_field(g, i, j, c), p, q)
            assert val <= bound * (1.0 + _BOUND_MARGIN), (i, j, c)
            assert abs(val - bound) <= 1e-12 * val, (i, j, c)


@pytest.mark.parametrize("shape", [(8, 8, 0.05, 100.0), (32, 32, 0.001, 1000.0)])
def test_gn_thin_domain_geometries_have_a_mode_above_the_floor(shape):
    # what GN_GEOMETRIES' thin domains are there for: a mode's grid ratio
    # beats the constant's, so the pruning runs against a mode
    g = Grid(*shape)
    for p, q in ((4, 2), (3, 1)):
        floor = _grid_ratio(g, np.ones(g.shape), p, q)
        modes = [_grid_ratio(g, _mode_field(g, i, j, c), p, q)
                 for i, j, c, _, _ in _cosine_modes(g, p, q)]
        assert max(modes) > floor, (p, q)


@pytest.mark.parametrize("n", [32, 128])
def test_gn_estimate_skips_every_bump_on_the_unit_square(monkeypatch, n):
    # the constant's floor 1.0 beats every bump's bound and that of every
    # mode that factors, so only the constant and the two modes |a b + 1/2|
    # are normed on the grid (73 unpruned)
    calls = []
    grad_norm = Grid.grad_norm

    def counted(self, f, q):
        calls.append(q)
        return grad_norm(self, f, q)

    monkeypatch.setattr(Grid, "grad_norm", counted)
    assert gn_constant_estimate(Grid(n, n), 4, 2) == 1.0
    assert len(calls) == 3


@pytest.mark.parametrize("n", [32, 128])
def test_gn_estimate_norms_the_constant_and_two_offset_modes_on_the_unit_square(
        monkeypatch, n):
    fields = []
    grad_norm = Grid.grad_norm

    def recorded(self, f, q):
        fields.append(f.tobytes())
        return grad_norm(self, f, q)

    monkeypatch.setattr(Grid, "grad_norm", recorded)
    g = Grid(n, n)
    gn_constant_estimate(g, 4, 2)
    expected = [np.ones(g.shape), _mode_field(g, 1, 1, 0.5), _mode_field(g, 2, 1, 0.5)]
    assert fields == [f.tobytes() for f in expected]


def test_gn_estimate_bump_witness_pinned():
    # on the unit square the constant floor 1.0 always wins, which would
    # hide drift in every other member of the family; here a bump beats
    # the floor |Omega|^(1/3 - 1) and the pattern search runs
    g = Grid(64, 32, 2.0, 1.0)
    est = gn_constant_estimate(g, 3, 1)
    assert est == 0.9873703767745873
    assert est > 2.0 ** (1.0 / 3.0 - 1.0) + 0.3


@pytest.mark.parametrize("shape", [(64, 64, 1.0, 1.0), (33, 47, 1.3, 0.7)])
def test_gaussian_bump_matches_mesh_formula_bitwise(shape):
    g = Grid(*shape)
    X, Y = g.mesh()
    centres = [(0.0, 0.0), (g.Lx, g.Ly), (0.0, g.Ly), (g.Lx, 0.0),
               (0.5 * g.Lx, 0.5 * g.Ly), (-0.1, 0.3 * g.Ly)]
    widths = [g.hx / 3.0, max(g.hx, g.hy), 0.05, 0.25 * min(g.Lx, g.Ly),
              2.0 * g.Lx]
    for cx, cy in centres:
        for log_sigma in map(math.log, widths):
            sig = math.exp(log_sigma)
            for base in (0.0, 0.05):
                ref = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sig * sig)) + base
                out = _gaussian_bump(g, cx, cy, log_sigma, base)
                assert out.tobytes() == ref.tobytes(), (cx, cy, sig, base)


def test_log_gn_check_holds_and_reports():
    g = Grid(32, 32)
    X, Y = g.mesh()
    phi = np.abs(1.0 + 0.5 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y))
    for m in (1, 2):
        rep = log_gn_check(g, phi, m)
        assert rep.holds and rep.constructed
        assert rep.m == m
        assert rep.lam > 1.0 and rep.C > 0 and rep.C_eps > 0
        assert rep.lhs <= rep.rhs


def test_verify_loggn_estimates_each_constant_once(monkeypatch):
    # three grids, each at (3, 1) through log_gn_check and at (4, 2)
    # directly: six distinct estimates, whatever the number of fields
    from chemohapto import diagnostics, verify
    exact = diagnostics.gn_constant_estimate
    calls = []

    def counting(grid, *orders):
        calls.append((grid.nx, grid.ny, grid.Lx, grid.Ly) + orders)
        return exact(grid, *orders)

    monkeypatch.setattr(diagnostics, "gn_constant_estimate", counting)
    monkeypatch.setattr(verify, "gn_constant_estimate", counting)
    diagnostics._log_gn_constant.cache_clear()
    rows = verify.loggn()
    assert all(row.ok for row in rows)
    assert len(calls) == 6 and len(set(calls)) == 6


def test_log_gn_check_rejects_m3_before_mpmath_overflows():
    # exp^3 of the threshold argument (about 1.3e3) is too large for mpmath,
    # so the range check rejects m = 3 before mpmath raises OverflowError
    g = Grid(16, 16)
    with pytest.raises(ValueError, match=r"in \[1, 2\], got 3: .* too many digits"):
        log_gn_check(g, np.ones(g.shape), 3)


def test_log_gn_check_reports_a_non_finite_threshold_as_not_constructed(monkeypatch):
    from chemohapto import diagnostics
    monkeypatch.setattr(diagnostics, "_log_gn_constant", lambda *grid: math.nan)
    g = Grid(16, 16)
    rep = log_gn_check(g, np.ones(g.shape), 1)
    assert not rep.constructed and not rep.holds
    assert rep.lam is None and rep.rhs is None


def test_log_gn_check_validation():
    g = Grid(16, 16)
    phi = np.ones(g.shape)
    with pytest.raises(ValueError):
        log_gn_check(g, phi, 0)   # m in [1, TOWER_MAX]
    with pytest.raises(ValueError):
        log_gn_check(g, -phi, 1)  # phi >= 0
