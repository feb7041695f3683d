"""Functionals, energy-identity residual, interpolation-constant estimates."""

import math
import re
import tracemalloc
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
    iter_log,
    log_gn_check,
    matrix_decay_violation,
    plateau_ratio,
    shifted_log_deriv,
    shifted_log_weight,
    step,
)
from chemohapto.diagnostics import (
    _BOUND_MARGIN,
    _GN_P_MAX,
    _MODE_INDICES,
    _MODE_OFFSETS,
    DiagnosticsRecord,
    _gaussian_bump,
    _gn_family,
    make_record,
)
from chemohapto.io import read_series, write_series
from chemohapto.solver import DerivedConstants


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


def _ref_identity_residual(g, params, prev, state, m):
    # the residual spelled out, its taxis term one Dirichlet energy of the
    # step's potential chi v + xi w at the midpoint fields
    um = 0.5 * (prev.u + state.u)
    vm = 0.5 * (prev.v + state.v)
    wm = 0.5 * (prev.w + state.w)
    dux, duy = g.face_diff(um)
    ux, uy = g.face_means(um)
    if m is None:
        H0, H1 = entropy(g, prev.u), entropy(g, state.u)
        wx, wy = (1.0 / np.maximum(a, 1e-30) for a in (ux, uy))
        carrier = um
        rweight = np.log(np.maximum(um, 1e-30)) + 1.0
    else:
        H0, H1 = g_functional(g, prev.u, m), g_functional(g, state.u, m)
        wx, wy = (shifted_log_weight(m, a) for a in (ux, uy))
        shift = e_tower(m)
        z = um + shift
        carrier = um * z * shifted_log_deriv(m, um) - shift * (iter_log(m, z) - 1.0)
        rweight = iter_log(m, z) + z * shifted_log_deriv(m, um)
    dissipation = float((wx * dux ** 2).sum() + (wy * duy ** 2).sum()) * g.cell_area
    lhs = (H1 - H0) / state.dt + dissipation
    rhs = g.dirichlet_energy(carrier, params.taxis_potential(vm, wm))
    rhs += g.integrate(rweight * params.kinetics.f(um, wm))
    return abs(lhs - rhs)


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_identity_taxis_term_is_one_dirichlet_energy_of_the_potential(tau):
    g = Grid(24, 20)
    rng = np.random.default_rng(11)
    X, Y = g.mesh()
    params = ModelParams(chi=1.3, xi=0.7, tau=tau, kinetics=LogisticKinetics(1.0))
    ic = InitialData(u0=1.0 + 0.5 * rng.random(g.shape),
                     w0=0.4 + 0.2 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y),
                     v0=0.5 + 0.3 * np.sin(np.pi * X) * Y)
    st0, st1 = _one_step(g, params, ic, 1e-3)
    # the potential is chi v followed by += xi w, the bits the step moves by
    phi = params.chi * st1.v
    phi += params.xi * st1.w
    assert params.taxis_potential(st1.v, st1.w).tobytes() == phi.tobytes()
    for m in (None, 1, 2):
        r = identity_residual(g, params, st0, st1, m=m)
        assert r == _ref_identity_residual(g, params, st0, st1, m), m


def _traced_peak(fn):
    # bytes allocated above the traced level at entry, after a warm-up call
    fn()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_a_record_allocates_no_more_than_a_step(tau):
    # each space term of the identity frees its arrays once summed, so a
    # record (8 fields at 64^2) stays under the step it follows (9 at
    # tau = 0, 10 at tau = 1)
    g = Grid(64, 64)
    X, Y = g.mesh()
    params = ModelParams(chi=0.5, xi=0.25, tau=tau, kinetics=LogisticKinetics(1.0))
    ic = InitialData(u0=1.0 + np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.03),
                     w0=0.4 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y))
    num = Numerics(dt_max=1e-3)
    st0, st1 = _one_step(g, params, ic, num.dt_max)
    consts = DerivedConstants.from_ic(g, ic)
    record = _traced_peak(lambda: make_record(g, params, st0, st1, consts))
    stepped = _traced_peak(lambda: step(g, st1, params, num.dt_max, num))
    assert record <= stepped, (record, stepped)
    # the shifted-log weight takes each iterated log once and builds no
    # void m = 1 bracket, so that identity takes 10 fields; keeping z, lg
    # and dlg alive past the carrier puts it near 13
    field = g.nx * g.ny * 8
    assert _traced_peak(lambda: identity_residual(g, params, st0, st1, m=1)) < 11 * field


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


# grids on which orders past the cap overflowed the norms (p = 1e6) or
# divided by zero (p = inf) before it was set
_GN_CAP_GEOMETRIES = ((16, 16, 1.0, 1.0), (24, 24, 4.0, 4.0), (5, 9, 1e-3, 7.0),
                      (8, 8, 0.05, 100.0))


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
    for shape in _GN_CAP_GEOMETRIES:
        for p, q in ((1e6, 1), (1e6, 2), (math.inf, 2), (1024, 2),
                     (math.nextafter(_GN_P_MAX, math.inf), 2)):
            with pytest.raises(ValueError, match="256 >= p > q >= 1"):
                gn_constant_estimate(Grid(*shape), p, q)


@pytest.mark.filterwarnings("error")
def test_gn_estimate_is_finite_at_the_order_cap():
    for shape in _GN_CAP_GEOMETRIES:
        for q in (1, 2):
            est = gn_constant_estimate(Grid(*shape), _GN_P_MAX, q)
            assert 0.0 < est < math.inf, (shape, q)


@pytest.mark.filterwarnings("error")
def test_gn_estimate_rejects_a_domain_whose_test_fields_overflow():
    # on the 1e154 square the estimate used to be inf, after numpy overflow
    # warnings from Grid.norm and from a bump's exponent; on the 1e-155
    # square the squared face differences of every mode overflowed, and
    # their ratios read 0
    for side in (1e154, 1e-155):
        for p, q in ((4.0, 2.0), (3.0, 1.0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"C_GN's test fields overflow a double on the {side:g} x {side:g} domain")):
                gn_constant_estimate(Grid(8, 8, side, side), p, q)
    # every member on the 1e153 square is finite, and so are the estimates
    g = Grid(8, 8, 1e153, 1e153)
    assert gn_constant_estimate(g, 4.0, 2.0).hex() == "0x1.4b6a9281032d3p-253"
    assert gn_constant_estimate(g, 3.0, 1.0).hex() == "0x1.94806f7b9fd13p-674"


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


def _mode_field(g, i, j, c):
    # the cosine mode gn_constant_estimate builds on the grid
    return np.abs(np.cos(i * math.pi * g.x / g.Lx)[:, None]
                  * np.cos(j * math.pi * g.y / g.Ly)[None, :] + c)


# the modes of gn_constant_estimate's family in the order it visits them,
# the constant first as the mode (0, 0) at c = 0
_FAMILY_MODES = [(0, 0, 0.0)] + [(i, j, c) for i, j in _MODE_INDICES for c in _MODE_OFFSETS]


_FAMILY_GEOMETRY = dict(nx=st.integers(4, 48), ny=st.integers(4, 48),
                        log_lx=st.floats(-3.0, 3.0), log_ly=st.floats(-3.0, 3.0),
                        pq=st.sampled_from([(4, 2), (3, 1)]))


def _check_safe_bound(g, phi, p, q, bound, safe, member):
    # a member marked safe may be skipped, so its grid ratio must not exceed
    # the widened bound; returns that ratio, or None for a member never safe
    if not safe:
        return None
    val = _grid_ratio(g, phi, p, q)
    assert val <= bound * (1.0 + _BOUND_MARGIN), member
    return val


@settings(max_examples=60, deadline=None)
@given(**_FAMILY_GEOMETRY)
def test_gn_separable_bound_dominates_grid_ratio(ref_grid, nx, ny, log_lx,
                                                  log_ly, pq):
    # the anchor bumps, the rows after the modes in gn_constant_estimate's
    # table: each is the Gaussian of _ref_gn_constant_estimate, a safe one's
    # bound dominates its grid ratio, and the estimate stays the unpruned
    # one bit for bit
    p, q = pq
    shape = (nx, ny, 10.0 ** log_lx, 10.0 ** log_ly)
    g = Grid(*shape)
    X, Y = g.mesh()
    # the anchor bumps and widths of _ref_gn_constant_estimate, in its order
    bumps = [[fx * g.Lx, fy * g.Ly, math.log(sig), 0.0]
             for fx in (0.0, 0.5, 1.0) for fy in (0.0, 0.5, 1.0)
             for sig in np.geomspace(max(g.hx, g.hy), 0.25 * min(g.Lx, g.Ly), 6)]
    rows = _gn_family(g, p, q)
    assert len(rows) == len(_FAMILY_MODES) + len(bumps)
    for (build, start, bound, safe), ref_start in zip(rows[len(_FAMILY_MODES):], bumps):
        member = tuple(ref_start)
        assert start == ref_start
        cx, cy, log_sig, _ = start
        sig = math.exp(log_sig)
        ref = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sig * sig))
        phi = build()
        assert phi.tobytes() == ref.tobytes(), member
        _check_safe_bound(g, phi, p, q, bound, safe, member)
    est = gn_constant_estimate(g, p, q)
    assert est.hex() == _ref_gn_constant_estimate(ref_grid(*shape), p, q, q).hex()


@settings(max_examples=60, deadline=None)
@given(**_FAMILY_GEOMETRY)
def test_gn_separable_mode_bound_dominates_grid_ratio(nx, ny, log_lx, log_ly, pq):
    # the cosine modes, the first rows of gn_constant_estimate's table in the
    # order it visits them: a safe mode's bound is its grid ratio up to
    # rounding, and the constant and the two modes |a b + 1/2| are never safe
    p, q = pq
    g = Grid(nx, ny, 10.0 ** log_lx, 10.0 ** log_ly)
    rows = _gn_family(g, p, q)[:len(_FAMILY_MODES)]
    assert len(rows) == len(_FAMILY_MODES)
    for (build, start, bound, safe), member in zip(rows, _FAMILY_MODES):
        assert start is None
        phi = build()
        assert phi.tobytes() == _mode_field(g, *member).tobytes(), member
        assert safe == (member not in ((0, 0, 0.0), (1, 1, 0.5), (2, 1, 0.5))), member
        val = _check_safe_bound(g, phi, p, q, bound, safe, member)
        if val is not None:
            assert abs(val - bound) <= 1e-12 * val, member


@pytest.mark.parametrize("shape", [(8, 8, 0.05, 100.0), (32, 32, 0.001, 1000.0)])
def test_gn_thin_domain_geometries_have_a_mode_above_the_floor(shape):
    # what GN_GEOMETRIES' thin domains are there for: a mode's grid ratio
    # beats the constant's, so the pruning runs against a mode
    g = Grid(*shape)
    for p, q in ((4, 2), (3, 1)):
        constant, *modes = [_grid_ratio(g, build(), p, q)
                            for build, _, _, _ in _gn_family(g, p, q)[:len(_FAMILY_MODES)]]
        assert max(modes) > constant, (p, q)


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
