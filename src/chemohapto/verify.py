"""Property suites: grid operators, energy identity, iterated-log kernels
and the log-type interpolation bound.

Each suite returns rows of (name, values, order text, pass flag).
`chemohapto verify <suite>` prints them and the acceptance criteria in
tests/test_acceptance.py assert on them, so each guarantee is computed
in one place.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .diagnostics import gn_constant_estimate, identity_residual, log_gn_check
from .grid import Grid
from .kinetics import (
    IteratedLogKinetics,
    LogisticKinetics,
    ZeroKinetics,
    damping_rate_estimate,
    e_tower,
    iter_log,
    shifted_log_deriv,
    shifted_log_weight,
)
from .solver import (
    InitialData,
    ModelParams,
    Numerics,
    initial_state,
    solve_elliptic_v,
    step,
)


class Row(NamedTuple):
    """One checked property: values per level or case, orders or a note."""

    name: str
    values: list
    order_text: str
    ok: bool


def orders(errs) -> list:
    """Observed orders log2(e_i / e_{i+1}) of errors under halving.  An
    exact (zero) error gives +inf; a nonzero error after an exact one gives
    -inf, so a sequence that leaves an exact start fails its row."""
    return [math.inf if b == 0 else -math.inf if a == 0 else math.log2(a / b)
            for a, b in zip(errs, errs[1:])]


def _order_text(ords) -> str:
    return ", ".join(f"{o:.2f}" for o in ords)


def format_row(name, values, order_text, ok) -> str:
    """One line of the table that `chemohapto verify` prints."""
    vals = "  ".join(f"{v:11.4e}" for v in values)
    mark = "PASS" if ok else "FAIL"
    return f"  {name:<26s} {vals}  {order_text:<12s} {mark}"


def operators() -> list:
    """Conservation, truncation orders, and exact identities of the kernels."""
    levels = [32, 64, 128]
    lap_err, tax_err, cons, ident, ell = [], [], [], [], []
    mode_err, rel_cons = [], []
    for nx in levels:
        g = Grid(nx, nx)
        X, Y = g.mesh()
        u = np.exp(0.3 * np.sin(2 * np.pi * X) + 0.2 * X)
        f = np.cos(np.pi * X)
        drift = g.face_diff(f)
        cons.append(max(abs(g.integrate(g.laplacian_neumann(u))),
                        abs(g.integrate(g.taxis_divergence(u, *drift)))))
        lap_err.append(float(np.max(np.abs(
            g.laplacian_neumann(f) + math.pi ** 2 * f))))
        ub = 0.5 + 0.25 * np.cos(np.pi * X)
        # continuum d/dx(ub df/dx) for these two profiles
        exact = -math.pi ** 2 * (np.cos(np.pi * X) * ub
                                 - 0.25 * np.sin(np.pi * X) ** 2)
        tax_err.append(float(np.max(np.abs(g.taxis_divergence(ub, *drift) - exact))))
        ident.append(abs(g.dirichlet_energy(u, u) - g.grad_norm(u, 2) ** 2))
        v = solve_elliptic_v(g, u, tol=1e-12)
        ell.append(float(np.max(np.abs(v - g.laplacian_neumann(v) - u))))
        mode = np.cos(np.pi * X) * np.cos(np.pi * Y)
        mode_err.append(g.norm(g.laplacian_neumann(mode)
                               + 2.0 * math.pi ** 2 * mode, math.inf))
        # net flux relative to the total flux, on a field rough in both axes
        rough = np.exp(0.4 * np.sin(2 * np.pi * X) + 0.3 * Y)
        rel_cons.append(max(
            abs(g.integrate(d)) / g.integrate(np.abs(d))
            for d in (g.laplacian_neumann(rough),
                      g.taxis_divergence(
                          rough, *g.face_diff(0.5 * X ** 2 + np.cos(np.pi * Y))))))
    lo = orders(lap_err)
    to = orders(tax_err)
    mo = orders(mode_err)
    return [
        Row("laplacian truncation", lap_err, _order_text(lo), min(lo) >= 1.7),
        Row("taxis truncation", tax_err, _order_text(to), min(to) >= 0.8),
        Row("flux conservation", cons, "exact", max(cons) <= 1e-10),
        Row("gradient identity", ident, "exact", max(ident) <= 1e-10),
        Row("elliptic residual", ell, "n/a", max(ell) <= 1e-8),
        Row("laplacian 2d mode", mode_err, _order_text(mo),
            all(1.8 <= o <= 2.2 for o in mo)),
        Row("relative conservation", rel_cons, "exact", max(rel_cons) <= 1e-12),
    ]


def identity() -> list:
    """Energy-identity residual under joint dt ~ h^2 refinement."""
    levels = [32, 64, 128]
    rows = []
    for m in (None, 1):
        errs = []
        for nx in levels:
            g = Grid(nx, nx)
            X, Y = g.mesh()
            u0 = 1.0 + np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.2 ** 2))
            w0 = 0.3 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y)
            params = ModelParams(chi=0.5, xi=0.25, tau=0.0,
                                 kinetics=LogisticKinetics(1.0))
            ic = InitialData(u0=u0, w0=w0)
            num = Numerics(dt_max=20.0 * g.hx ** 2)
            st = initial_state(g, params, ic)
            # sample at the last step: a fixed physical time, clear of the
            # rough-start transient, where the O(dt + h^2) claim is asymptotic
            last = math.nan
            while st.t < 0.04 - 1e-12:
                prev = st
                st = step(g, st, params, num.dt_max, num)
                last = identity_residual(g, params, prev, st, m=m)
            errs.append(last)
        ords = orders(errs)
        ok = all(b < a for a, b in zip(errs, errs[1:])) and min(ords) >= 0.9
        label = "m=log" if m is None else f"m={m}"
        rows.append(Row(f"residual {label}", errs, _order_text(ords), ok))
    return rows


def iterlog() -> list:
    """Closed-form weight derivatives against finite differences, positivity,
    and damping rates of the zero, logistic and iterated-log sources."""
    rows = []
    z = np.geomspace(1e-6, 1e9, 400)
    steps = [1e-3, 5e-4, 2.5e-4]
    for m in (1, 2, 3):
        shift = e_tower(m)
        errs = []
        for rel in steps:
            h = rel * (z + shift)
            fd = (iter_log(m, z + shift + h) - iter_log(m, z + shift - h)) / (2 * h)
            exact = shifted_log_deriv(m, z)
            errs.append(float(np.max(np.abs(fd - exact) / np.abs(exact))))
        ords = orders(errs)
        rows.append(Row(f"deriv fd match m={m}", errs, _order_text(ords),
                        min(ords) >= 1.7))
        d = shifted_log_deriv(m, z)
        w = shifted_log_weight(m, z)
        floor = 1.0 - (m - 1) / e_tower(m - 1) if m >= 2 else 1.0
        bound = float(np.min(w / d))   # = 1 - sum of reciprocal products
        rows.append(Row(f"weight positivity m={m}",
                        [float(np.min(d)), float(np.min(w)), bound],
                        "n/a", np.min(d) > 0 and np.min(w) > 0
                        and bound >= floor - 1e-12))
    # mu_r of the order-k iterated-log source for r <= k; the spot table
    # reads two of these estimates
    est = {(k, mu, r): damping_rate_estimate(IteratedLogKinetics(k, mu), r)
           for k in (1, 2, 3) for mu in (1.0, 2.5) for r in range(1, k + 1)}
    zero = [damping_rate_estimate(ZeroKinetics(), r) for r in (1, 2, 3)]
    spot = [zero[0], damping_rate_estimate(LogisticKinetics(1.0), 1),
            est[1, 1.0, 1], est[2, 1.0, 2]]
    rows.append(Row("damping-rate spot table",
                    [x if math.isfinite(x) else 1e99 for x in spot], "n/a",
                    abs(spot[0]) <= 0.05 and math.isinf(spot[1])
                    and all(abs(x - 1.0) <= 0.05 for x in spot[2:])))
    rows.append(Row("damping-rate zero r=1..3", zero, "exact",
                    all(x == 0.0 for x in zero)))
    top = [(x, mu) for (k, mu, r), x in est.items() if r == k]
    rows.append(Row("damping-rate mu_k k=1..3", [x for x, _ in top], "n/a",
                    all(abs(x - mu) <= 0.05 * mu for x, mu in top)))
    low = [(x, mu) for (k, mu, r), x in est.items() if r < k]
    rows.append(Row("damping-rate mu_r r<k", [x for x, _ in low], "n/a",
                    all(abs(x) < 1e-2 * mu for x, mu in low)))
    return rows


def loggn() -> list:
    """Constructed log-interpolation bound on batches of random fields."""
    import mpmath as mp

    rows = []
    rng = np.random.default_rng(7)
    for nx in (16, 32, 48):
        g = Grid(nx, nx)
        X, Y = g.mesh()
        fails, min_margin = 0, math.inf
        for _ in range(20):
            kx, ky = rng.integers(1, 4, size=2)
            phi = np.abs(1.0 + 0.8 * rng.random() * np.cos(kx * np.pi * X)
                         * np.cos(ky * np.pi * Y) + 0.2 * rng.random((nx, nx)))
            for m in (1, 2):
                rep = log_gn_check(g, phi, m)
                if not rep.holds:
                    fails += 1
                else:
                    # decades of slack; the constructed constants are huge
                    margin = float(mp.log10(rep.rhs) - mp.log10(max(rep.lhs, 1e-300)))
                    min_margin = min(min_margin, margin)
        c = gn_constant_estimate(g, 4, 2)
        floor = g.area ** (1.0 / 4.0 - 1.0 / 2.0)
        rows.append(Row(f"log-gn holds nx={nx}", [float(fails), min_margin, c],
                        "n/a", fails == 0 and c >= floor - 1e-12))
    # fifty more fields, cycling through the three grids: odd ones squared
    # uniform noise, even ones shifted cosine products
    rng = np.random.default_rng(2026)
    grids = [Grid(16, 16), Grid(32, 32), Grid(48, 48)]
    fails = checked = 0
    for i in range(50):
        g = grids[i % 3]
        X, Y = g.mesh()
        if i % 2:
            phi = 0.05 + rng.random(g.shape) ** 2
        else:
            phi = 0.2 + rng.uniform(0.1, 2.0) * np.abs(
                np.cos(rng.integers(1, 4) * np.pi * X)
                * np.cos(rng.integers(1, 4) * np.pi * Y)
                + rng.uniform(0.0, 1.0))
        for m in (1, 2):
            checked += 1
            if not log_gn_check(g, phi, m).holds:
                fails += 1
    rows.append(Row("log-gn seed-2026 fields", [float(fails), float(checked)],
                    "n/a", fails == 0 and checked == 100))
    return rows
