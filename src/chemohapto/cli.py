"""Command-line front end: run, check, verify, and sweep subcommands.

`run <config>` integrates the system and writes series.csv, final-state
field dumps, heatmap SVGs, and report.json.  `check <config>` evaluates
the boundedness-condition report without integrating.  `verify <suite>`
prints the rows of one property suite in `verify.py` (operators,
identity, iterlog, loggn): values, orders and pass flags.  `sweep
<config> --axis name=start:stop:steps[:log]` runs a Cartesian grid of
parameter points in parallel.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import math
import os
import sys
import time

import numpy as np

from .condition import check_boundedness, classify_run
from .config import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    build_initial_data,
    build_run_config,
    load_config,
)
from .io import (
    ensure_dir,
    write_field,
    write_field_svg,
    write_report,
    write_series,
    write_table,
)
from .solver import run


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
    if args.out:
        cfg.out_dir = args.out
    return cfg


def _run_config(cfg: RunConfig, out: str) -> tuple:
    """Build the initial data, check the condition, integrate, classify, and
    write series.csv, the configured field dumps and heatmaps, and
    report.json into out (created if missing).

    Returns (result, summary, threshold, classification), where summary is
    the report's "run" block.  A RuntimeError from the solver leaves a
    solver_error report in out and is re-raised.
    """
    ic = build_initial_data(cfg)
    threshold = check_boundedness(cfg.grid, cfg.params, ic)
    report = os.path.join(ensure_dir(out), "report.json")
    try:
        result = run(cfg.grid, cfg.params, ic, cfg.t_end,
                     num=cfg.numerics, observe_interval=cfg.observe_every)
    except RuntimeError as exc:
        write_report(report, {"config": cfg.origin,
                              "run": {"status": "solver_error", "error": str(exc)}})
        raise
    classification = classify_run(result)

    write_series(os.path.join(out, "series.csv"), result.records)
    for name in ("u", "v", "w"):
        f = getattr(result.final, name)
        if cfg.write_fields:
            write_field(os.path.join(out, f"{name}_final.field"), cfg.grid, f)
        if cfg.write_svg:
            write_field_svg(os.path.join(out, f"{name}_final.svg"), cfg.grid, f,
                            title=f"{name}(x, t={result.final.t:.4g})")
    rec = result.records
    summary = {
        "status": result.status,
        "steps": result.steps,
        "t_final": result.final.t,
        "diverged_t": result.diverged_t,
        "extinct_t": result.extinct_t,
        "records": len(rec),
        "peak_linf_u": max(r.linf_u for r in rec),
        "final_mass": rec[-1].mass,
        "clipped_mass": result.clipped_mass,
    }
    write_report(report, {
        "config": cfg.origin,
        "run": summary,
        "threshold": threshold.to_dict(),
        "classification": classification.to_dict(),
    })
    return result, summary, threshold, classification


def cmd_run(args) -> int:
    t0 = time.perf_counter()
    try:
        cfg = _apply_cli_overrides(load_config(args.config), args)
        result, _, threshold, classification = _run_config(cfg, cfg.out_dir)
    except RuntimeError as exc:
        return _fail(f"solver failed: {exc}", code=1)
    except (ValueError, OSError) as exc:    # ConfigError, InitialDataError too
        return _fail(str(exc))
    elapsed = time.perf_counter() - t0

    last = result.records[-1]
    print(f"run: {result.status}, {result.steps} steps to t={result.final.t:.6g} "
          f"({elapsed:.1f}s)")
    print(f"final: mass={last.mass:.9g} linf_u={last.linf_u:.6g} "
          f"clipped={result.clipped_mass:.3g}")
    print(f"condition: {threshold.case}; classification: {classification.label} "
          f"(plateau {classification.plateau:.4g})")
    print(f"artifacts in {cfg.out_dir}/")
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
        rep = check_boundedness(cfg.grid, cfg.params, ic)
        out = ensure_dir(cfg.out_dir)
        write_report(os.path.join(out, "report.json"),
                     {"config": cfg.origin, "threshold": rep.to_dict()})
    except (ValueError, OSError) as exc:    # ConfigError, InitialDataError too
        return _fail(str(exc))
    _print_threshold(rep)
    print(f"report in {out}/report.json")
    return 0


# ----------------------------------------------------------------------
# verify suites


def cmd_verify(args) -> int:
    # imported here so that run, check and sweep do not load the suites
    from . import verify

    print(f"suite: {args.suite}")
    t0 = time.perf_counter()
    rows = getattr(verify, args.suite)()
    for row in rows:
        print(verify.format_row(*row))
    ok_all = all(row.ok for row in rows)
    print(f"result: {'PASS' if ok_all else 'FAIL'} ({time.perf_counter() - t0:.1f}s)")
    return 0 if ok_all else 1


# ----------------------------------------------------------------------
# sweep

# each axis sets the config key of its name; this maps it to its section
_AXIS_TARGETS = {name: next(sec for sec, keys in _SCHEMA.items() if name in keys)
                 for name in ("chi", "tau", "mu", "k", "mass")}
_MAX_POINTS = 10_000    # per axis and per sweep


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
    try:
        start, stop, steps = float(bits[0]), float(bits[1]), int(bits[2])
    except ValueError:
        raise ConfigError(f"bad --axis {text!r}: start and stop must be numbers, "
                          f"steps an integer") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"bad --axis {text!r}: start and stop must be finite")
    if not 1 <= steps <= _MAX_POINTS:
        raise ConfigError(f"bad --axis {text!r}: steps must be in [1, {_MAX_POINTS}]")
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
    """One sweep point: a run without field dumps or heatmaps; never raises."""
    idx, sections, origin, assignment, out_root = arg
    row = {"point": idx, "status": "error", "case": "", "satisfied": "",
           "label": "", "plateau": math.nan, "peak_linf_u": math.nan,
           "final_mass": math.nan, "error": ""}
    row.update(assignment)
    try:
        cfg = build_run_config(sections, origin=origin)
        cfg.write_fields = cfg.write_svg = False
        _, summary, rep, cls = _run_config(
            cfg, os.path.join(out_root, f"point_{idx:04d}"))
        row.update(status=summary["status"], case=rep.case,
                   satisfied=str(rep.satisfied), label=cls.label,
                   plateau=cls.plateau, peak_linf_u=summary["peak_linf_u"],
                   final_mass=summary["final_mass"])
    except Exception as exc:   # individual failures must not kill the sweep
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def cmd_sweep(args) -> int:
    if args.threads is not None and args.threads < 1:
        return _fail(f"--threads must be an integer >= 1, got {args.threads}")
    try:
        cfg = _apply_cli_overrides(load_config(args.config), args)
        axes = [_parse_axis(a) for a in args.axis]
        if not axes:
            return _fail("sweep needs at least one --axis")
        names = [n for n, _ in axes]
        if len(set(names)) != len(names):
            return _fail(f"duplicate sweep axes in {names}")
        grids = [vals for _, vals in axes]
        total = math.prod(len(vals) for vals in grids)
        if total > _MAX_POINTS:
            return _fail(f"sweep has {total} points, limit is {_MAX_POINTS}")
        out_root = ensure_dir(cfg.out_dir)
    except (ConfigError, OSError) as exc:
        return _fail(str(exc))

    jobs = []
    for idx, combo in enumerate(itertools.product(*grids)):
        sections = {s: dict(kv) for s, kv in cfg.sections.items()}
        assignment = {}
        for name, value in zip(names, combo):
            sections.setdefault(_AXIS_TARGETS[name], {})[name] = repr(value)
            assignment[name] = value
        jobs.append((idx, sections, cfg.origin, assignment, out_root))

    workers = min(args.threads or 1, len(jobs))
    t0 = time.perf_counter()
    if workers > 1:
        # only a parallel sweep forks, so only it loads the process pool; it
        # imports scipy.fft first so that the forked workers inherit it
        import multiprocessing
        import scipy.fft  # noqa: F401
        with multiprocessing.Pool(processes=workers,
                                  initializer=_keep_freed_buffers) as pool:
            rows = list(pool.imap_unordered(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    rows.sort(key=lambda r: r["point"])

    confusion = {}
    for row in rows:
        key = (row["case"] or "error", row["label"] or "error")
        confusion[key] = confusion.get(key, 0) + 1
    lines = [f"{total} points in {time.perf_counter() - t0:.1f}s "
             f"({workers} thread{'s' if workers > 1 else ''})"]
    lines.append("condition-case vs run-classification:")
    for (case, label), n in sorted(confusion.items()):
        lines.append(f"  {case:<22s} {label:<18s} {n}")
    summary = "\n".join(lines)

    cols = ["point"] + names + ["status", "case", "satisfied", "label",
                                "plateau", "peak_linf_u", "final_mass", "error"]
    try:
        write_table(os.path.join(out_root, "sweep.csv"), cols,
                    ([row[c] for c in cols] for row in rows))
        with open(os.path.join(out_root, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(summary + "\n")
    except OSError as exc:
        return _fail(str(exc))
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
        sp.add_argument("config")
        sp.add_argument("--out", help="output directory (overrides config)")

    sp = sub.add_parser("run", help="integrate one configured run")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("check", help="evaluate the boundedness condition only")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("verify", help="run a built-in property suite")
    sp.add_argument("suite",
                    choices=("identity", "iterlog", "loggn", "operators"))
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    common(sp)
    sp.add_argument("--axis", action="append", default=[],
                    metavar="name=start:stop:steps[:log]",
                    help="sweep axis (repeatable); names: chi, tau, mu, k, mass")
    sp.add_argument("--threads", type=int,
                    help="worker processes, at most one per point (default 1)")
    sp.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    _keep_freed_buffers()
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
