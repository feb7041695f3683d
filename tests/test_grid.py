"""Grid geometry and discrete-calculus kernels."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chemohapto import Grid


def test_geometry_basics():
    g = Grid(32, 16, 2.0, 1.0)
    assert g.hx == 2.0 / 32 and g.hy == 1.0 / 16
    assert g.area == 2.0
    assert g.cell_area == pytest.approx(g.hx * g.hy)
    assert g.shape == (32, 16)
    # cell centers sit half a spacing inside the walls
    assert g.x[0] == pytest.approx(0.5 * g.hx)
    assert g.x[-1] == pytest.approx(2.0 - 0.5 * g.hx)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Grid(3, 16)
    with pytest.raises(ValueError):
        Grid(16, 3)
    with pytest.raises(ValueError):
        Grid(16, 16, 0.0, 1.0)
    with pytest.raises(ValueError):
        Grid(16.5, 16)


@pytest.mark.parametrize("side", [math.inf, math.nan, 0.0, -1.0])
def test_constructor_rejects_a_side_that_is_not_finite_and_positive(side):
    # an infinite side used to build hx = inf and cell centres at inf
    for lx, ly in ((side, 1.0), (1.0, side)):
        with pytest.raises(ValueError, match=(
                rf"^Lx and Ly must be finite and positive, got Lx={lx}, Ly={ly}$")):
            Grid(8, 8, lx, ly)


@pytest.mark.parametrize("side", [1e200, 1e-200])
def test_constructor_rejects_sides_whose_area_overflows_or_underflows(side):
    # each side is finite and positive, but Lx*Ly is inf (or 0): every
    # integral over the domain, and the condition check with it, was inf or nan
    with pytest.raises(ValueError, match="^" + re.escape(
            f"Lx and Ly must give a finite, positive area and cell area, "
            f"got Lx={side}, Ly={side}") + "$"):
        Grid(8, 8, side, side)


def test_shape_check():
    g = Grid(8, 8)
    with pytest.raises(ValueError):
        g.laplacian_neumann(np.zeros((8, 9)))


def test_integrate_exact_for_constants():
    g = Grid(16, 24, 3.0, 0.5)
    assert g.integrate(np.full(g.shape, 2.5)) == pytest.approx(2.5 * 1.5, abs=1e-14)


def test_laplacian_matches_discrete_eigenvalue():
    # cos(pi x) at cell centers is an exact eigenvector of the mirror
    # Neumann stencil with eigenvalue (2 - 2 cos(pi h)) / h^2
    g = Grid(64, 8)
    X, _ = g.mesh()
    f = np.cos(np.pi * X)
    lam_h = (2.0 - 2.0 * math.cos(math.pi * g.hx)) / g.hx ** 2
    err = np.max(np.abs(g.laplacian_neumann(f) + lam_h * f))
    assert err < 1e-11


def test_laplacian_continuum_order_two():
    errs = []
    for nx in (32, 64, 128):
        g = Grid(nx, 8)
        X, _ = g.mesh()
        f = np.cos(np.pi * X)
        errs.append(np.max(np.abs(g.laplacian_neumann(f) + math.pi ** 2 * f)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders)
    # leading constant is pi^4 h^2 / 12
    assert errs[1] == pytest.approx(math.pi ** 4 * (1 / 64) ** 2 / 12, rel=1e-3)


def test_laplacian_conserves_mass_exactly():
    g = Grid(32, 48, 1.3, 0.7)
    rng = np.random.default_rng(0)
    f = rng.random(g.shape)
    assert abs(g.integrate(g.laplacian_neumann(f))) < 1e-14


def test_taxis_conserves_mass_exactly():
    g = Grid(32, 48, 1.3, 0.7)
    rng = np.random.default_rng(1)
    u = rng.random(g.shape)
    phi = rng.random(g.shape)
    assert abs(g.integrate(g.taxis_divergence(u, *g.face_diff(phi)))) < 1e-14


def test_taxis_constant_density_reduces_to_laplacian():
    # div(u grad phi) with u = 1 hits the same face sums as the laplacian
    g = Grid(24, 24)
    rng = np.random.default_rng(2)
    phi = rng.random(g.shape)
    ones = np.ones(g.shape)
    assert np.array_equal(g.taxis_divergence(ones, *g.face_diff(phi)), g.laplacian_neumann(phi))
    u3 = np.full(g.shape, 3.0)
    assert np.allclose(g.taxis_divergence(u3, *g.face_diff(phi)),
                       3.0 * g.laplacian_neumann(phi), rtol=1e-12, atol=1e-12)


def test_taxis_rejects_a_drift_off_the_face_layout():
    # numpy would broadcast a (ny,) drift over every x face without a word
    g = Grid(8, 8)
    u = np.ones(g.shape)
    ax, ay = g.face_diff(u)
    for bad in ((np.ones(g.ny), ay), (ay, ax), (ax, u), (u, u)):
        with pytest.raises(ValueError, match="face_diff's layout"):
            g.taxis_divergence(u, *bad)


def test_taxis_upwind_first_order():
    errs = []
    for nx in (32, 64, 128):
        g = Grid(nx, 8)
        X, _ = g.mesh()
        u = 0.5 + 0.25 * np.cos(np.pi * X)
        phi = np.cos(np.pi * X)
        exact = -math.pi ** 2 * (np.cos(np.pi * X) * u
                                 - 0.25 * np.sin(np.pi * X) ** 2)
        errs.append(np.max(np.abs(g.taxis_divergence(u, *g.face_diff(phi)) - exact)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.8 <= o <= 1.3 for o in orders)


def test_norms():
    g = Grid(16, 16)
    f = np.full(g.shape, -2.0)
    assert g.norm(f, 1) == pytest.approx(2.0)
    assert g.norm(f, 2) == pytest.approx(2.0)
    assert g.norm(f, math.inf) == 2.0
    for bad in (0.5, -math.inf, math.nan):
        with pytest.raises(ValueError):
            g.norm(f, bad)


def test_gradient_norm_linear_profile():
    # face differences of f = x are 1 on interior faces, 0 on walls:
    # dirichlet energy is (nx-1)/nx exactly
    g = Grid(64, 64)
    X, _ = g.mesh()
    assert g.dirichlet_energy(X, X) == pytest.approx(63.0 / 64.0, abs=1e-14)
    assert g.grad_norm(X, 2) == pytest.approx(math.sqrt(63.0 / 64.0), abs=1e-14)


def test_gradient_identity_dirichlet_vs_norm():
    g = Grid(32, 24, 1.1, 0.9)
    rng = np.random.default_rng(3)
    f = rng.random(g.shape)
    assert g.dirichlet_energy(f, f) == pytest.approx(g.grad_norm(f, 2) ** 2,
                                                     rel=1e-13)


def test_gradient_sup_norm_approaches_continuum():
    g = Grid(64, 8)
    X, _ = g.mesh()
    f = np.cos(np.pi * X)
    # max |grad| of cos(pi x) is pi; face differencing is O(h^2) low
    assert g.grad_norm(f, math.inf) == pytest.approx(math.pi, rel=2e-3)


def test_dirichlet_energy_bilinear():
    g = Grid(16, 16)
    rng = np.random.default_rng(4)
    f, p, q = rng.random(g.shape), rng.random(g.shape), rng.random(g.shape)
    lhs = g.dirichlet_energy(f, 2.0 * p + q)
    rhs = 2.0 * g.dirichlet_energy(f, p) + g.dirichlet_energy(f, q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_taxis_matches_min_max_donor_formula_bitwise():
    # reference: the donor-cell flux written with max/min splits and
    # np.diff face differences
    g = Grid(20, 13, 1.3, 0.7)
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.random(g.shape) * 4.0
        u[rng.random(g.shape) < 0.3] = 0.0
        phi = np.round(rng.standard_normal(g.shape), 1)   # flat faces too
        ax = np.diff(phi, axis=0) / g.hx
        ay = np.diff(phi, axis=1) / g.hy
        dx, dy = g.face_diff(phi)
        assert dx.tobytes() == ax.tobytes() and dy.tobytes() == ay.tobytes()
        Fx = np.maximum(ax, 0.0) * u[:-1, :] + np.minimum(ax, 0.0) * u[1:, :]
        Fy = np.maximum(ay, 0.0) * u[:, :-1] + np.minimum(ay, 0.0) * u[:, 1:]
        ref = np.zeros(g.shape)
        ref[:-1, :] += Fx / g.hx
        ref[1:, :] -= Fx / g.hx
        ref[:, :-1] += Fy / g.hy
        ref[:, 1:] -= Fy / g.hy
        assert g.taxis_divergence(u, *g.face_diff(phi)).tobytes() == ref.tobytes()
        # precomputed faces give the same bytes and are left unchanged
        faces = g.face_diff(phi)
        out = g.taxis_divergence(u, *faces)
        assert out.tobytes() == ref.tobytes()
        assert faces[0].tobytes() == ax.tobytes() and faces[1].tobytes() == ay.tobytes()

    # faces that hold +0.0, -0.0 and nan take the high-side cell, as the
    # np.where pick did; the reference is that pick and _div's accumulation
    for _ in range(20):
        u = rng.random(g.shape) * 4.0
        u[rng.random(g.shape) < 0.3] = 0.0
        ax, ay = (rng.standard_normal(d.shape) for d in g.face_diff(u))
        for a in (ax, ay):
            pick = rng.random(a.shape)
            a[pick < 0.2] = 0.0
            a[(0.2 <= pick) & (pick < 0.4)] = -0.0
            a[(0.4 <= pick) & (pick < 0.5)] = np.nan
        Fx = np.where(ax > 0.0, u[:-1, :], u[1:, :]) * ax / g.hx
        Fy = np.where(ay > 0.0, u[:, :-1], u[:, 1:]) * ay / g.hy
        ref = np.zeros(g.shape)
        ref[:-1, :] += Fx
        ref[1:, :] -= Fx
        ref[:, :-1] += Fy
        ref[:, 1:] -= Fy
        faces = (ax.copy(), ay.copy())
        out = g.taxis_divergence(u, *faces)
        assert out.tobytes() == ref.tobytes()
        assert faces[0].tobytes() == ax.tobytes() and faces[1].tobytes() == ay.tobytes()

    # an inf carrier turns its flux into nan wherever it is the donor of a
    # zero face, so a finite result shows the high side was picked
    u = np.ones(g.shape)
    u[7, 5] = np.inf
    for zero in (0.0, -0.0):
        ax, ay = np.ones((g.nx - 1, g.ny)), np.ones((g.nx, g.ny - 1))
        ax[7, 5] = ay[7, 5] = zero        # faces with u[7, 5] on the low side
        out = g.taxis_divergence(u, ax, ay)
        assert np.all(np.isfinite(out))


# Bit-identity of the kernels that skip lanes whose result is known, against
# the verbatim old kernels of the ref_grid fixture (conftest.py).


ORDERS = (1, 1.5, 2, 3, 4, 6.5, math.inf)
_TINY = 5e-324   # smallest subnormal


def _near_cuts():
    # the lane cut 2^(-1078/p) of every finite order and its neighbours
    out = []
    for p in ORDERS:
        if p != math.inf:
            cut = 2.0 ** (-1078.0 / p)
            out += [cut, np.nextafter(cut, 0.0), np.nextafter(cut, 1.0),
                    0.5 * cut, 2.0 * cut]
    return out


SPECIAL = [0.0, -0.0, _TINY, -_TINY, 2.2250738585072014e-308, 1e-200, 1.0,
           -1.0, 1e300, -1e300, math.nan, math.inf, -math.inf] + _near_cuts()
battery_values = st.one_of(
    st.sampled_from(SPECIAL + [-v for v in _near_cuts()]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-100, max_value=1e-100),
)
battery_fields = st.tuples(st.integers(4, 9), st.integers(4, 9)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=battery_values))


def _bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(battery_fields, st.sampled_from(ORDERS))
@example(np.full((4, 4), _TINY), 4)
@example(np.full((5, 4), 2.0 ** (-1078.0 / 6.5)), 6.5)
@example(np.full((4, 6), -0.0), 1.5)
def test_norm_matches_unmasked_power_bitwise(ref_grid, f, p):
    g, ref = Grid(*f.shape, 1.3, 0.7), ref_grid(*f.shape, 1.3, 0.7)
    with np.errstate(all="ignore"):
        assert _bytes(g.norm(f, p)) == _bytes(ref.norm(f, p))


@settings(max_examples=200, deadline=None)
@given(battery_values, st.sampled_from(ORDERS))
def test_norm_uniform_field_matches_its_power_bitwise(ref_grid, v, p):
    # 16 equal lanes on the unit square: the quadrature sum times 1/16 is
    # |v|^p exactly, so a lane skipped whose power is a subnormal shows
    g, ref = Grid(4, 4), ref_grid(4, 4)
    f = np.full(g.shape, v)
    with np.errstate(all="ignore"):
        assert _bytes(g.norm(f, p)) == _bytes(ref.norm(f, p))


def test_norm_resolves_the_first_nonzero_power(ref_grid):
    # |v|^p = 2^(k - 1078): k <= 3 rounds to +0, k = 4 is the smallest
    # subnormal, so a cut placed a factor 2^4 too high in |v|^p fails
    g, ref = Grid(4, 4), ref_grid(4, 4)
    for p in ORDERS[:-1]:
        for k in range(-2, 12):
            f = np.full(g.shape, 2.0 ** ((k - 1078.0) / p))
            assert _bytes(g.norm(f, p)) == _bytes(ref.norm(f, p))
        assert g.norm(np.full(g.shape, 2.0 ** (-1074.0 / p)), p) > 0.0


def test_norm_orders_past_the_masked_range(ref_grid):
    # for huge p the rounded cut reaches 1, where |f|^p is not 0
    g, ref = Grid(4, 4), ref_grid(4, 4)
    f = np.full(g.shape, 1.0)
    f[0, :] = [np.nextafter(1.0, 0.0), 1.0 - 1e-15, 0.5, 2.0 ** (-1e-13)]
    for p in (2.0 ** 32, 2.0 ** 33, 1e17, 1e300):
        with np.errstate(all="ignore"):
            assert _bytes(g.norm(f, p)) == _bytes(ref.norm(f, p))


@settings(max_examples=200, deadline=None)
@given(battery_fields)
def test_grad_magnitude_matches_zero_filled_accumulators_bitwise(ref_grid, f):
    g, ref = Grid(*f.shape, 0.9, 1.7), ref_grid(*f.shape, 0.9, 1.7)
    with np.errstate(all="ignore"):
        assert g.grad_magnitude(f).tobytes() == ref.grad_magnitude(f).tobytes()


def test_kernels_bitwise_on_smooth_and_bump_fields(ref_grid):
    g, ref = Grid(33, 20, 1.3, 0.7), ref_grid(33, 20, 1.3, 0.7)
    X, Y = g.mesh()
    rng = np.random.default_rng(11)
    fields = [rng.random(g.shape), np.cos(np.pi * X) * np.cos(2 * np.pi * Y)]
    for sig in (g.hx, 0.01, 0.1):
        fields.append(np.exp(-(X ** 2 + (Y - 0.35) ** 2) / (2 * sig * sig)))
    for f in fields:
        assert g.grad_magnitude(f).tobytes() == ref.grad_magnitude(f).tobytes()
        for p in ORDERS:
            assert _bytes(g.norm(f, p)) == _bytes(ref.norm(f, p))


def test_platform_rounds_the_skipped_lanes_to_zero():
    # Grid.norm skips |f|^p for |f| <= 2^(-1078/p) and the Gaussian bumps
    # of the C_GN estimate skip exp(t) for t <= -748; both rely on the
    # power and the exponential rounding those lanes to +0.  A numpy or
    # libm that does not fails here rather than in a changed C_GN.
    for p in ORDERS[:-1]:
        cut = 2.0 ** (-1078.0 / p)
        below = [cut, np.nextafter(cut, 0.0), 0.5 * cut, _TINY, 0.0]
        x = np.array([v for v in below if v <= cut] * 7)
        out = np.power(x, p)
        assert np.all(out == 0.0) and not np.any(np.signbit(out))
    t = np.array([-746.0, np.nextafter(-746.0, -math.inf), -748.0, -1078.0,
                  -1e300, -math.inf] * 7)
    out = np.exp(t)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))
