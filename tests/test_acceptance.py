"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a "[criterion N] PASS/FAIL" line (visible under
pytest -s) and asserts the same condition, so the suite doubles as a
readable checklist of what the package promises.  Criteria 1, 5, 6 and 9
print below it the rows of the `chemohapto verify` suite they assert on.
"""

import math
import multiprocessing
import os
import time

import numpy as np

from chemohapto import (
    CLASS_DIVERGED,
    CLASS_PLATEAU,
    Grid,
    InitialData,
    IteratedLogKinetics,
    LogLogSubLogistic,
    LogisticKinetics,
    ModelParams,
    Numerics,
    PowerSubLogistic,
    ZeroKinetics,
    check_boundedness,
    classify_run,
    initial_state,
    mass_cap,
    run,
    solve_elliptic_v,
    step,
)
from chemohapto import verify
from chemohapto.cli import main as cli_main
from chemohapto.io import read_report, write_report


def _verdict(n: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"\n[criterion {n:2d}] {mark}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _bump_ic(g: Grid, mass: float, sigma: float, w_level: float) -> InitialData:
    X, Y = g.mesh()
    u0 = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2.0 * sigma ** 2))
    u0 *= mass / g.integrate(u0)
    w0 = np.full(g.shape, w_level)
    return InitialData(u0=u0, w0=w0)


def _suite_verdict(n: int, suite, limit: float = math.inf) -> None:
    """Criterion n: every row of a verify suite passes, within `limit` s."""
    t0 = time.perf_counter()
    rows = suite()
    elapsed = time.perf_counter() - t0
    passed = sum(1 for row in rows if row.ok)
    bound = "" if math.isinf(limit) else f" < {limit:.0f}s"
    _verdict(n, passed == len(rows) and elapsed < limit,
             f"verify {suite.__name__}: {passed}/{len(rows)} rows pass, "
             f"{elapsed:.1f}s{bound}\n"
             + "\n".join(verify.format_row(*row) for row in rows))


# ---------------------------------------------------------------- 1


def test_criterion_01_operator_correctness():
    _suite_verdict(1, verify.operators, limit=10.0)


# ---------------------------------------------------------------- 2


def test_criterion_02_diffusion_decay_anchor():
    t0 = time.perf_counter()
    g = Grid(128, 128)
    X, _ = g.mesh()
    ic = InitialData(u0=1.0 + 0.5 * np.cos(np.pi * X),
                     w0=np.zeros(g.shape))
    params = ModelParams(chi=0.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    dt = 1e-4
    res = run(g, params, ic, t_end=0.05, num=Numerics(dt_max=dt),
              observe_interval=1e-3)
    t = np.array([r.t for r in res.records])
    amp = np.array([r.linf_u - r.mass for r in res.records])
    rate = -np.polyfit(t, np.log(amp), 1)[0]
    rational = math.log(1.0 + math.pi ** 2 * dt) / dt
    rel_rat = abs(rate - rational) / rational
    rel_pi2 = abs(rate - math.pi ** 2) / math.pi ** 2
    elapsed = time.perf_counter() - t0
    ok = rel_rat <= 0.02 and rel_pi2 <= 0.05 and elapsed < 60.0
    _verdict(2, ok,
             f"fitted decay rate {rate:.4f}: off rational rate by "
             f"{rel_rat:.2e} (<= 2%), off pi^2 by {rel_pi2:.2e} (<= 5%), "
             f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------- 3


def test_criterion_03_mass_law():
    # part one: pure transport conserves the integral
    g = Grid(64, 64)
    ic = _bump_ic(g, mass=2.0, sigma=0.12, w_level=0.4)
    params = ModelParams(chi=1.0, xi=0.5, tau=0.0, kinetics=ZeroKinetics())
    res = run(g, params, ic, t_end=0.5, num=Numerics(dt_max=5e-4))
    masses = np.array([r.mass for r in res.records])
    drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
    enough = res.steps >= 1000

    # part two: every built-in source respects its a-priori cap
    kins = (LogisticKinetics(1.0), PowerSubLogistic(1.0, 1.0, 0.5),
            LogLogSubLogistic(1.0, 1.0), IteratedLogKinetics(1, 1.0),
            IteratedLogKinetics(2, 1.0))
    worst_excess = -math.inf
    g2 = Grid(32, 32)
    ic2 = _bump_ic(g2, mass=2.0, sigma=0.12, w_level=0.4)
    m0 = g2.integrate(ic2.u0)
    area = g2.Lx * g2.Ly
    for kin in kins:
        p = ModelParams(chi=0.5, xi=0.25, tau=0.0, kinetics=kin)
        r = run(g2, p, ic2, t_end=1.0, num=Numerics(dt_max=2e-3))
        cap = mass_cap(kin, m0, area)
        worst_excess = max(worst_excess,
                           max(rec.mass for rec in r.records) - cap)
    ok = enough and drift <= 1e-9 and worst_excess <= 1e-3
    _verdict(3, ok,
             f"zero-source drift {drift:.2e} <= 1e-9 over {res.steps} steps; "
             f"worst mass excess over cap {worst_excess:+.2e} <= 1e-3 "
             f"across 5 sources")


# ---------------------------------------------------------------- 4


def test_criterion_04_structural_bounds():
    # stepping checks: positivity and monotone matrix decay, both signal modes
    worst = {"u": 0.0, "v": 0.0, "w_lo": 0.0, "w_up": 0.0, "w_mono": 0.0}
    for tau in (0.0, 1.0):
        g = Grid(32, 32)
        ic = _bump_ic(g, mass=2.0, sigma=0.12, w_level=0.4)
        if tau > 0:
            ic = InitialData(u0=ic.u0, w0=ic.w0,
                             v0=solve_elliptic_v(g, ic.u0))
        params = ModelParams(chi=0.5, xi=0.25, tau=tau,
                             kinetics=LogisticKinetics(1.0))
        num = Numerics(dt_max=2e-3)
        st = initial_state(g, params, ic)
        w_cap = float(np.max(ic.w0))
        for _ in range(150):
            prev_w = st.w
            st = step(g, st, params, 2e-3, num)
            worst["u"] = min(worst["u"], float(np.min(st.u)))
            worst["v"] = min(worst["v"], float(np.min(st.v)))
            worst["w_lo"] = min(worst["w_lo"], float(np.min(st.w)))
            worst["w_up"] = max(worst["w_up"], float(np.max(st.w)) - w_cap)
            worst["w_mono"] = max(worst["w_mono"], float(np.max(st.w - prev_w)))
    bounds_ok = (worst["u"] >= 0.0 and worst["v"] >= 0.0
                 and worst["w_lo"] >= 0.0 and worst["w_up"] <= 0.0
                 and worst["w_mono"] <= 0.0)

    # curvature-bound excess must fall under joint refinement
    viols = []
    for nx in (32, 64, 128):
        g = Grid(nx, nx)
        X, Y = g.mesh()
        u0 = 1.0 + np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.2 ** 2))
        w0 = 0.3 + 0.1 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        params = ModelParams(chi=0.5, xi=0.25, tau=0.0,
                             kinetics=LogisticKinetics(1.0))
        ic = InitialData(u0=u0, w0=w0)
        res = run(g, params, ic, t_end=0.2, num=Numerics(dt_max=20.0 * g.hx ** 2))
        viols.append(max(r.delta_w_violation_max for r in res.records))
    pos = [max(v, 0.0) for v in viols]
    decay_ok = (viols[0] > viols[1] > viols[2]
                and pos[0] >= pos[1] >= pos[2])
    ok = bounds_ok and decay_ok
    _verdict(4, ok,
             f"min u {worst['u']:.1e}, min v {worst['v']:.1e}, w in "
             f"[0, max w0] with pointwise decrease (worst rise "
             f"{worst['w_mono']:.1e}); curvature excess "
             f"{viols[0]:.4f} > {viols[1]:.4f} > {viols[2]:.4f} "
             f"falls under refinement")


# ---------------------------------------------------------------- 5


def test_criterion_05_energy_identity_refinement():
    _suite_verdict(5, verify.identity)


# ---------------------------------------------------------------- 6


def test_criterion_06_kinetics_analytics():
    _suite_verdict(6, verify.iterlog, limit=5.0)


# ---------------------------------------------------------------- 7


def _sweep_point(args):
    chi, kind, k = args
    g = Grid(128, 128)
    ic = _bump_ic(g, mass=4.0, sigma=0.1, w_level=0.5)
    kin = LogisticKinetics(1.0) if kind == "logistic" \
        else IteratedLogKinetics(k, 1.0)
    params = ModelParams(chi=chi, xi=0.5, tau=0.0, kinetics=kin)
    res = run(g, params, ic, t_end=1.0, num=Numerics(dt_max=2e-3))
    rep = check_boundedness(g, params, ic)
    cls = classify_run(res)
    return rep.satisfied, cls.label, cls.plateau


def test_criterion_07_condition_sweep():
    t0 = time.perf_counter()
    points = [(chi, kind, k)
              for chi in (0.5, 1.0, 2.0)
              for kind, k in (("logistic", 0), ("iterlog", 1), ("iterlog", 2))]
    with multiprocessing.Pool(min(4, os.cpu_count() or 1)) as pool:
        results = pool.map(_sweep_point, points)
    elapsed = time.perf_counter() - t0
    n_sat = sum(1 for sat, _, _ in results if sat)
    n_plat = sum(1 for _, label, plat in results
                 if label == CLASS_PLATEAU and plat <= 1.05)
    ok = n_sat == 9 and n_plat == 9 and elapsed < 900.0
    _verdict(7, ok,
             f"{n_sat}/9 points satisfy the condition, {n_plat}/9 classified "
             f"bounded_plateau with ratio <= 1.05, {elapsed:.0f}s < 900s")


# ---------------------------------------------------------------- 8


def test_criterion_08_blowup_contrast():
    g = Grid(64, 64)
    params = ModelParams(chi=1.0, xi=0.0, tau=0.0, kinetics=ZeroKinetics())
    num = Numerics(dt_max=2e-3, overflow_guard=1e4)
    small = run(g, params, _bump_ic(g, 4.0, 0.08, 0.0), t_end=1.0, num=num)
    large = run(g, params, _bump_ic(g, 60.0, 0.08, 0.0), t_end=1.0, num=num)
    cls_small = classify_run(small)
    cls_large = classify_run(large)
    ok = (cls_small.label == CLASS_PLATEAU
          and cls_large.label == CLASS_DIVERGED
          and large.status == "diverged"
          and large.diverged_t is not None and large.diverged_t < 1.0)
    _verdict(8, ok,
             f"mass 4 -> {cls_small.label}; mass 60 -> {cls_large.label} "
             f"at t={large.diverged_t:.4g} < t_end")


# ---------------------------------------------------------------- 9


def test_criterion_09_log_gn_holds_on_random_fields():
    _suite_verdict(9, verify.loggn)


# ---------------------------------------------------------------- 10


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    cfg = tmp_path / "seeded.ini"
    cfg.write_text("""
[model]
chi = 0.5
xi = 0.25
tau = 0.0
kinetics = logistic

[kinetics]
mu = 1.0

[grid]
nx = 32
ny = 32

[ic]
preset = gaussian-bump
width = 0.12
mass = 2.0
w_value = 0.4
noise = 0.2
seed = 11

[time]
t_end = 0.5
dt_max = 2e-3

[output]
dir = unused
""")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["run", str(cfg), "--out", out_a]) == 0
    assert cli_main(["run", str(cfg), "--out", out_b]) == 0
    series_same = (open(os.path.join(out_a, "series.csv"), "rb").read()
                   == open(os.path.join(out_b, "series.csv"), "rb").read())
    report_same = (open(os.path.join(out_a, "report.json"), "rb").read()
                   == open(os.path.join(out_b, "report.json"), "rb").read())
    rep = read_report(os.path.join(out_a, "report.json"))
    write_report(str(tmp_path / "again.json"), rep)
    cycle_same = read_report(str(tmp_path / "again.json")) == rep
    ok = series_same and report_same and cycle_same
    _verdict(10, ok,
             f"series byte-identical: {series_same}; report byte-identical: "
             f"{report_same}; JSON numeric round-trip exact: {cycle_same}")
