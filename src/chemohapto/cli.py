"""Command-line front end: run, check, verify, and sweep subcommands.

`run <config>` integrates the system and writes series.csv, final-state
field dumps, heatmap SVGs, and report.json.  `check <config>` evaluates
the boundedness-condition report without integrating.  `verify <suite>`
executes one of the built-in property suites (operators, identity,
iterlog, loggn) at three refinement levels and prints convergence
orders.  `sweep <config> --axis name=start:stop:steps[:log]` runs a
Cartesian grid of parameter points in parallel.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import math
import os
import sys
import time
from multiprocessing import Pool

import numpy as np

from .condition import (
    CLASS_UNCLASSIFIED,
    Classification,
    check_boundedness,
    classify_run,
)
from .config import (
    ConfigError,
    RunConfig,
    build_initial_data,
    build_run_config,
    load_config,
)
from .diagnostics import identity_residual, log_gn_check, gn_constant_estimate
from .grid import Grid
from .io import (
    ensure_dir,
    write_field,
    write_field_svg,
    write_report,
    write_series,
)
from .kinetics import (
    IteratedLogKinetics,
    LogisticKinetics,
    ZeroKinetics,
    damping_rate_estimate,
    e_tower,
    iter_log,
    make_kinetics,
    shifted_log_deriv,
    shifted_log_weight,
)
from .solver import InitialDataError, initial_state, run, solve_elliptic_v, step


# glibc mallopt parameters (malloc.h) and the values glibc's dynamic rule
# reaches for a 32 MiB block, its 64-bit maximum mmap threshold
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 64 * 1024 * 1024


def _keep_freed_buffers() -> None:
    """Keep freed field-sized blocks in the heap for the next step (glibc).

    glibc serves a 512 KiB field by mmap until its dynamic threshold rises,
    then hands freed heap memory back to the OS whenever more than twice
    the largest freed block sits at the top of the heap; every step's
    temporaries, the cosine-transform outputs included, are then faulted
    in again by the next step.  Fixing both thresholds from the start keeps
    blocks below 32 MiB in the heap and trims only beyond 64 MiB.  On any
    other C library this does nothing.  Calling it again is harmless.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not libc or not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _fail(msg: str, code: int = 2) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _apply_cli_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    threads = getattr(args, "threads", None)
    if threads is not None:
        if threads < 1:
            raise ConfigError(f"--threads must be an integer >= 1, got {threads}")
        cfg.threads = threads
    if getattr(args, "seed", None) is not None:
        cfg.ic_spec.seed = args.seed
    return cfg


def _run_report(cfg: RunConfig, result, threshold, classification) -> dict:
    rec = result.records
    return {
        "config": cfg.origin,
        "run": {
            "status": result.status,
            "steps": result.steps,
            "t_final": result.final.t,
            "diverged_t": result.diverged_t,
            "records": len(rec),
            "peak_linf_u": max(r.linf_u for r in rec) if rec else math.nan,
            "final_mass": rec[-1].mass if rec else math.nan,
            "clipped_mass": result.clipped_mass,
        },
        "threshold": threshold.to_dict(),
        "classification": classification.to_dict(),
    }


def _classify(result) -> Classification:
    """classify_run, or the unclassified label for a history it rejects
    (a run that ended with too few records); the artifacts are kept."""
    try:
        return classify_run(result)
    except ValueError:
        return Classification(CLASS_UNCLASSIFIED, math.nan)


def cmd_run(args) -> int:
    try:
        cfg = _apply_cli_overrides(load_config(args.config), args)
        ic = build_initial_data(cfg)
        ic.validate(cfg.grid, cfg.params.tau)
    except (ConfigError, InitialDataError, ValueError, OSError) as exc:
        return _fail(str(exc))

    out = ensure_dir(cfg.out_dir)
    t0 = time.time()
    try:
        result = run(cfg.grid, cfg.params, ic, cfg.t_end,
                     num=cfg.numerics, observe_interval=cfg.observe_every)
    except RuntimeError as exc:
        write_report(os.path.join(out, "report.json"),
                     {"config": cfg.origin, "run": {"status": "solver_error",
                                                    "error": str(exc)}})
        return _fail(f"solver failed: {exc}", code=1)
    elapsed = time.time() - t0

    threshold = check_boundedness(cfg.grid, cfg.params, ic)
    classification = _classify(result)

    write_series(os.path.join(out, "series.csv"), result.records)
    if cfg.write_fields:
        for name, f in (("u", result.final.u), ("v", result.final.v),
                        ("w", result.final.w)):
            write_field(os.path.join(out, f"{name}_final.field"), cfg.grid, f)
    if cfg.write_svg:
        for name, f in (("u", result.final.u), ("v", result.final.v),
                        ("w", result.final.w)):
            write_field_svg(os.path.join(out, f"{name}_final.svg"), cfg.grid, f,
                            title=f"{name}(x, t={result.final.t:.4g})")
    write_report(os.path.join(out, "report.json"),
                 _run_report(cfg, result, threshold, classification))

    last = result.records[-1]
    print(f"run: {result.status}, {result.steps} steps to t={result.final.t:.6g} "
          f"({elapsed:.1f}s)")
    print(f"final: mass={last.mass:.9g} linf_u={last.linf_u:.6g} "
          f"clipped={result.clipped_mass:.3g}")
    print(f"condition: {threshold.case}; classification: {classification.label} "
          f"(plateau {classification.plateau:.4g})")
    print(f"artifacts in {out}/")
    return 0


def _print_threshold(rep) -> None:
    print("damping rates:")
    for r, val in enumerate(rep.mu_r, start=1):
        shown = "+inf" if math.isinf(val) else f"{val:.6g}"
        print(f"  mu_{r} = {shown}")
    print(f"mass cap M1        = {rep.m1:.9g}  (u0 mass {rep.u0_mass:.9g})")
    print(f"w_max              = {rep.w_max:.6g}")
    print(f"C_GN estimate      = {rep.cgn:.9g}  (fourth power {rep.cgn4:.9g})")
    print(f"inequality         : (chi - mu_1)^+ * M1 = {rep.inequality_lhs:.6g}"
          f"  vs  1/(2 C_GN^4) = {rep.inequality_rhs:.6g}")
    print(f"case               : {rep.case} (satisfied={rep.satisfied})")


def cmd_check(args) -> int:
    try:
        cfg = _apply_cli_overrides(load_config(args.config), args)
        ic = build_initial_data(cfg)
        ic.validate(cfg.grid, cfg.params.tau)
    except (ConfigError, InitialDataError, ValueError, OSError) as exc:
        return _fail(str(exc))
    rep = check_boundedness(cfg.grid, cfg.params, ic)
    _print_threshold(rep)
    out = ensure_dir(cfg.out_dir)
    write_report(os.path.join(out, "report.json"),
                 {"config": cfg.origin, "threshold": rep.to_dict()})
    print(f"report in {out}/report.json")
    return 0


# ----------------------------------------------------------------------
# verify suites


def _orders(errs) -> list:
    out = []
    for a, b in zip(errs, errs[1:]):
        if a > 0 and b > 0:
            out.append(math.log2(a / b))
        else:
            out.append(math.inf)
    return out


def _fmt_row(name, values, order_text, ok) -> str:
    vals = "  ".join(f"{v:11.4e}" for v in values)
    mark = "PASS" if ok else "FAIL"
    return f"  {name:<26s} {vals}  {order_text:<12s} {mark}"


def _suite_operators() -> list:
    """Conservation, truncation orders, and exact identities of the kernels."""
    levels = [32, 64, 128]
    rows = []
    lap_err, tax_err, cons, ident, ell = [], [], [], [], []
    for nx in levels:
        g = Grid(nx, nx)
        X, _ = g.mesh()
        u = np.exp(0.3 * np.sin(2 * np.pi * X) + 0.2 * X)
        phi = np.cos(np.pi * X)
        cons.append(max(abs(g.integrate(g.laplacian_neumann(u))),
                        abs(g.integrate(g.taxis_divergence(u, phi)))))
        f = np.cos(np.pi * X)
        lap_err.append(float(np.max(np.abs(
            g.laplacian_neumann(f) + math.pi ** 2 * f))))
        ub = 0.5 + 0.25 * np.cos(np.pi * X)
        # continuum d/dx(u dphi/dx) for these two profiles
        exact = -math.pi ** 2 * (np.cos(np.pi * X) * ub
                                 - 0.25 * np.sin(np.pi * X) ** 2)
        tax_err.append(float(np.max(np.abs(g.taxis_divergence(ub, phi) - exact))))
        ident.append(abs(g.dirichlet_energy(u, u) - g.grad_norm(u, 2) ** 2))
        v = solve_elliptic_v(g, u, tol=1e-12)
        ell.append(float(np.max(np.abs(v - g.laplacian_neumann(v) - u))))
    lo = _orders(lap_err)
    to = _orders(tax_err)
    rows.append(("laplacian truncation", lap_err,
                 ", ".join(f"{o:.2f}" for o in lo), min(lo) >= 1.7))
    rows.append(("taxis truncation", tax_err,
                 ", ".join(f"{o:.2f}" for o in to), min(to) >= 0.8))
    rows.append(("flux conservation", cons, "exact", max(cons) <= 1e-10))
    rows.append(("gradient identity", ident, "exact", max(ident) <= 1e-10))
    rows.append(("elliptic residual", ell, "n/a", max(ell) <= 1e-8))
    return rows


def _suite_identity() -> list:
    """Energy-identity residual under joint dt ~ h^2 refinement."""
    from .solver import ModelParams, Numerics, InitialData, compatibility_constant
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
            ic = InitialData(u0=u0, w0=w0, A=compatibility_constant(g, w0))
            num = Numerics(dt_max=20.0 * g.hx ** 2)
            st = initial_state(g, params, ic, num)
            dt = num.dt_max
            # sample at the last step: a fixed physical time, clear of the
            # rough-start transient, where the O(dt + h^2) claim is asymptotic
            last = math.nan
            while st.t < 0.04 - 1e-12:
                prev = st
                st = step(g, st, params, dt, num)
                last = identity_residual(
                    g, params.chi, params.xi, params.kinetics,
                    prev.u, st.u, prev.v, st.v, prev.w, st.w, dt, m=m)
            errs.append(last)
        orders = _orders(errs)
        ok = all(b < a for a, b in zip(errs, errs[1:])) and min(orders) >= 0.9
        label = "m=log" if m is None else f"m={m}"
        rows.append((f"residual {label}", errs,
                     ", ".join(f"{o:.2f}" for o in orders), ok))
    return rows


def _suite_iterlog() -> list:
    """Closed-form weight derivatives against finite differences, positivity."""
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
        orders = _orders(errs)
        rows.append((f"deriv fd match m={m}", errs,
                     ", ".join(f"{o:.2f}" for o in orders), min(orders) >= 1.7))
        d = shifted_log_deriv(m, z)
        w = shifted_log_weight(m, z)
        floor = 1.0 - (m - 1) / e_tower(m - 1) if m >= 2 else 1.0
        bound = float(np.min(w / d))   # = 1 - sum of reciprocal products
        rows.append((f"weight positivity m={m}",
                     [float(np.min(d)), float(np.min(w)), bound],
                     "n/a", np.min(d) > 0 and np.min(w) > 0
                     and bound >= floor - 1e-12))
    table = [
        (ZeroKinetics(), 1, 0.0, 0.05),
        (LogisticKinetics(1.0), 1, math.inf, 0.0),
        (IteratedLogKinetics(1, 1.0), 1, 1.0, 0.05),
        (IteratedLogKinetics(2, 1.0), 2, 1.0, 0.05),
    ]
    vals, ok_all = [], True
    for kin, r, expect, tol in table:
        got = damping_rate_estimate(kin, r, w_max=1.0)
        if math.isinf(expect):
            ok = math.isinf(got)
        else:
            ok = abs(got - expect) <= tol
        ok_all = ok_all and ok
        vals.append(got if math.isfinite(got) else 1e99)
    rows.append(("damping-rate spot table", vals, "n/a", ok_all))
    return rows


def _suite_loggn() -> list:
    """Constructed log-interpolation bound on batches of random fields."""
    rows = []
    rng = np.random.default_rng(7)
    for nx in (16, 32, 48):
        g = Grid(nx, nx)
        X, Y = g.mesh()
        import mpmath as mp
        fails, min_margin = 0, math.inf
        for _ in range(20):
            kx, ky = rng.integers(1, 4, size=2)
            phi = np.abs(1.0 + 0.8 * rng.random() * np.cos(kx * np.pi * X)
                         * np.cos(ky * np.pi * Y) + 0.2 * rng.random((nx, nx)))
            for m in (1, 2):
                rep = log_gn_check(g, phi, m, 3.0, 1.0, 0.1)
                if not rep.holds:
                    fails += 1
                else:
                    # decades of slack; the constructed constants are huge
                    margin = float(mp.log10(rep.rhs) - mp.log10(max(rep.lhs, 1e-300)))
                    min_margin = min(min_margin, margin)
        c = gn_constant_estimate(g, 4, 2, 2)
        floor = g.area ** (1.0 / 4.0 - 1.0 / 2.0)
        rows.append((f"log-gn holds nx={nx}", [float(fails), min_margin, c],
                     "n/a", fails == 0 and c >= floor - 1e-12))
    return rows


_SUITES = {
    "operators": _suite_operators,
    "identity": _suite_identity,
    "iterlog": _suite_iterlog,
    "loggn": _suite_loggn,
}


def cmd_verify(args) -> int:
    fn = _SUITES[args.suite]
    print(f"suite: {args.suite}")
    t0 = time.time()
    rows = fn()
    ok_all = True
    for name, values, order_text, ok in rows:
        ok_all = ok_all and ok
        print(_fmt_row(name, values, order_text, ok))
    print(f"result: {'PASS' if ok_all else 'FAIL'} ({time.time() - t0:.1f}s)")
    return 0 if ok_all else 1


# ----------------------------------------------------------------------
# sweep

_AXIS_TARGETS = {
    "chi": ("model", "chi"),
    "tau": ("model", "tau"),
    "mu": ("kinetics", "mu"),
    "k": ("kinetics", "k"),
    "mass": ("ic", "mass"),
}


def _parse_axis(text: str) -> tuple:
    """name=start:stop:steps[:log] -> (name, values)."""
    if "=" not in text:
        raise ConfigError(f"bad --axis {text!r}: expected name=start:stop:steps")
    name, rhs = text.split("=", 1)
    name = name.strip().lower()
    if name not in _AXIS_TARGETS:
        raise ConfigError(
            f"bad --axis name {name!r}: choose from {sorted(_AXIS_TARGETS)}")
    bits = rhs.split(":")
    if len(bits) not in (3, 4) or (len(bits) == 4 and bits[3] != "log"):
        raise ConfigError(f"bad --axis {text!r}: expected start:stop:steps[:log]")
    start, stop, steps = float(bits[0]), float(bits[1]), int(bits[2])
    if steps < 1:
        raise ConfigError(f"bad --axis {text!r}: steps must be >= 1")
    if steps == 1:
        values = np.array([start])
    elif len(bits) == 4:
        if start <= 0 or stop <= 0:
            raise ConfigError(f"bad --axis {text!r}: log spacing needs positive ends")
        values = np.geomspace(start, stop, steps)
    else:
        values = np.linspace(start, stop, steps)
    if name == "k":
        ints = []
        for v in values:
            i = int(round(v))
            if i not in ints:
                ints.append(i)
        return name, ints
    return name, [float(v) for v in values]


def _sweep_point(arg) -> dict:
    """One sweep point: build, run, check, classify; never raises."""
    idx, sections, origin, assignment, out_root = arg
    row = {"point": idx, "status": "error", "case": "", "satisfied": "",
           "label": "", "plateau": math.nan, "peak_linf_u": math.nan,
           "final_mass": math.nan, "error": ""}
    row.update(assignment)
    try:
        cfg = build_run_config(sections, origin=origin)
        ic = build_initial_data(cfg)
        ic.validate(cfg.grid, cfg.params.tau)
        result = run(cfg.grid, cfg.params, ic, cfg.t_end,
                     num=cfg.numerics, observe_interval=cfg.observe_every)
        rep = check_boundedness(cfg.grid, cfg.params, ic)
        cls = _classify(result)
        pdir = ensure_dir(os.path.join(out_root, f"point_{idx:04d}"))
        write_series(os.path.join(pdir, "series.csv"), result.records)
        write_report(os.path.join(pdir, "report.json"),
                     _run_report(cfg, result, rep, cls))
        row.update(status=result.status, case=rep.case,
                   satisfied=str(rep.satisfied), label=cls.label,
                   plateau=cls.plateau,
                   peak_linf_u=max(r.linf_u for r in result.records),
                   final_mass=result.records[-1].mass)
    except Exception as exc:   # individual failures must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(args) -> int:
    try:
        cfg = _apply_cli_overrides(load_config(args.config), args)
        axes = [_parse_axis(a) for a in args.axis]
    except (ConfigError, OSError) as exc:
        return _fail(str(exc))
    if not axes:
        return _fail("sweep needs at least one --axis")
    names = [n for n, _ in axes]
    if len(set(names)) != len(names):
        return _fail(f"duplicate sweep axes in {names}")
    grids = [vals for _, vals in axes]
    total = 1
    for vals in grids:
        total *= len(vals)
    if total > 10_000:
        return _fail(f"sweep has {total} points, limit is 10000")

    out_root = ensure_dir(cfg.out_dir)
    jobs = []
    for idx, combo in enumerate(itertools.product(*grids)):
        sections = {s: dict(kv) for s, kv in cfg.sections.items()}
        assignment = {}
        for name, value in zip(names, combo):
            sec, key = _AXIS_TARGETS[name]
            sections.setdefault(sec, {})[key] = repr(value)
            assignment[name] = value
        if args.seed is not None:
            sections.setdefault("ic", {})["seed"] = repr(args.seed)
        jobs.append((idx, sections, cfg.origin, assignment, out_root))

    workers = min(cfg.threads, len(jobs))
    t0 = time.time()
    if workers > 1:
        with Pool(processes=workers, initializer=_keep_freed_buffers) as pool:
            rows = list(pool.imap_unordered(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    rows.sort(key=lambda r: r["point"])

    cols = ["point"] + names + ["status", "case", "satisfied", "label",
                                "plateau", "peak_linf_u", "final_mass", "error"]
    with open(os.path.join(out_root, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for c in cols:
                v = row[c]
                cells.append("%.17g" % v if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")

    confusion = {}
    for row in rows:
        key = (row["case"] or "error", row["label"] or "error")
        confusion[key] = confusion.get(key, 0) + 1
    lines = [f"{total} points in {time.time() - t0:.1f}s "
             f"({workers} thread{'s' if workers > 1 else ''})"]
    lines.append("condition-case vs run-classification:")
    for (case, label), n in sorted(confusion.items()):
        lines.append(f"  {case:<22s} {label:<18s} {n}")
    summary = "\n".join(lines)
    with open(os.path.join(out_root, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary + "\n")
    print(summary)
    print(f"table in {out_root}/sweep.csv")
    failures = [r for r in rows if r["error"]]
    if failures:
        print(f"{len(failures)} point(s) failed; see sweep.csv error column")
    return 0


# ----------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chemohapto",
        description="2D chemotaxis-haptotaxis simulator and "
                    "boundedness-condition analyzer",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--threads", type=int, help="worker count (overrides config)")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed for randomized IC presets")

    sp = sub.add_parser("run", help="integrate one configured run")
    sp.add_argument("config")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("check", help="evaluate the boundedness condition only")
    sp.add_argument("config")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("verify", help="run a built-in property suite")
    sp.add_argument("suite", choices=sorted(_SUITES))
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    sp.add_argument("config")
    sp.add_argument("--axis", action="append", default=[],
                    metavar="name=start:stop:steps[:log]",
                    help="sweep axis (repeatable); names: chi, tau, mu, k, mass")
    common(sp)
    sp.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    _keep_freed_buffers()
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
