"""Grid geometry and discrete-calculus kernels."""

import math

import numpy as np
import pytest

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
    assert abs(g.integrate(g.taxis_divergence(u, phi))) < 1e-14


def test_taxis_constant_density_reduces_to_laplacian():
    # div(u grad phi) with u = 1 hits the same face sums as the laplacian
    g = Grid(24, 24)
    rng = np.random.default_rng(2)
    phi = rng.random(g.shape)
    ones = np.ones(g.shape)
    assert np.array_equal(g.taxis_divergence(ones, phi), g.laplacian_neumann(phi))
    u3 = np.full(g.shape, 3.0)
    assert np.allclose(g.taxis_divergence(u3, phi),
                       3.0 * g.laplacian_neumann(phi), rtol=1e-12, atol=1e-12)


def test_taxis_upwind_first_order():
    errs = []
    for nx in (32, 64, 128):
        g = Grid(nx, 8)
        X, _ = g.mesh()
        u = 0.5 + 0.25 * np.cos(np.pi * X)
        phi = np.cos(np.pi * X)
        exact = -math.pi ** 2 * (np.cos(np.pi * X) * u
                                 - 0.25 * np.sin(np.pi * X) ** 2)
        errs.append(np.max(np.abs(g.taxis_divergence(u, phi) - exact)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.8 <= o <= 1.3 for o in orders)


def test_norms():
    g = Grid(16, 16)
    f = np.full(g.shape, -2.0)
    assert g.norm(f, 1) == pytest.approx(2.0)
    assert g.norm(f, 2) == pytest.approx(2.0)
    assert g.norm(f, math.inf) == 2.0
    with pytest.raises(ValueError):
        g.norm(f, 0.5)


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
        assert g.taxis_divergence(u, phi).tobytes() == ref.tobytes()
        # precomputed faces give the same bytes and are left unchanged
        faces = g.face_diff(phi)
        out = g.taxis_divergence(u, phi, faces=faces)
        assert out.tobytes() == ref.tobytes()
        assert faces[0].tobytes() == ax.tobytes() and faces[1].tobytes() == ay.tobytes()
