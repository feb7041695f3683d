"""Benchmark of the chemohapto command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Workloads (workloads.py): run-256-tau1, check-families, sweep-96-tau0.  The
seed generates the workload's INI files; the program sees only those.  Each
chemohapto command runs in a fresh Python process (invoke.py), which times
`import chemohapto.cli` (setup_s) apart from the `cli.main` call.  Passes
over the workload repeat until S seconds have passed; every pass's outputs
are checked against reference.json and the run's guarantees.  An item whose
reference entry is null (the iterlog k=3 sweep points, which raise today) may
fail; any other failure, or a pass where nothing succeeds, makes the run
incorrect.

--trace 0 reports the end-to-end metrics, medians over passes:
  setup_s           import time of chemohapto.cli, over every measured process
                    (the warm-up imports before the first pass are left out)
  wall_per_ok_op_s  pass wall time / operations that passed their checks; an
                    operation is the run call, one check call or one sweep
                    point, so this is run_s, check_s / 6 or
                    1 / sweep_points_per_s
  ok_ratio          1 - failed_ratio, over all operations of the run
  peak_rss_mb       largest, over a pass's commands, of the command process's
                    peak RSS plus (forked children) x (largest child's peak
                    RSS): an upper bound of the footprint of the process and
                    its pool workers
--trace 1 alternates untraced passes with passes traced by tracer.py and
reports the per-layer metrics: calls and self time per traced function, self
time per module, work counters, trace_overhead (traced / untraced wall) and
unattributed_s (worker capacity not covered by any layer).  Exact counts must
repeat between traced passes or the run is marked incorrect.  The listing
shows every metric; the result line carries those BENCHMARK.json declares.

BLAS threads are pinned to the number of usable CPUs, OpenBLAS's own
default.  Scratch files live in .bench_tmp/; a record of each run
(environment, passes, metrics) and the raw spans of the last traced pass go to
.bench_out/, both at the root of the checkout.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.metadata
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
INVOKE = os.path.join(HERE, "invoke.py")
REFERENCE = os.path.join(HERE, "reference.json")
DECLARED = os.path.join(ROOT, "BENCHMARK.json")   # names the reported metrics
OUT = os.path.join(ROOT, ".bench_out")
WARM_IMPORTS = 2          # import-only processes before the first pass
MIN_PASSES = 3            # a median of two passes is just their mean
INVOKE_TIMEOUT_S = 150

COUNTS = ("grid.face_diff.cells", "kinetics.f.elements", "solver.steps",
          "cli.sweep.points_failed")


def unit_of(key: str) -> str:
    """Unit of a per-layer metric."""
    if key.endswith(".calls") or key in COUNTS:
        return "count"
    if key == "io.bytes_written":
        return "B"
    return "s" if key.endswith("_s") else "ratio"


def is_exact(key: str) -> bool:
    """Counts that must repeat exactly between traced passes at one seed."""
    return unit_of(key) in ("count", "B") or key == "solver.spectral_solves_per_helmholtz"


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _cache_size(index: int) -> str:
    path = f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(env: dict, seed: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": cpu_count(),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        "l2_per_core": _cache_size(2),
        "l3": _cache_size(3),
        "seed": seed,
    }


class Bench:
    """One benchmark run: a work directory, pinned environment, passes."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        if not os.path.isfile(os.path.join(SRC, "chemohapto", "cli.py")):
            raise BenchError(f"no chemohapto sources under {SRC}")
        self.workload = workload
        self.work = os.path.join(ROOT, ".bench_tmp", f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        n = str(cpu_count())
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                        TMPDIR=self.work, PYTHONHASHSEED="0")
        self.ops = workloads.build(workload, seed, self.work, tiny=tiny)
        self.setup_samples = []
        self.absent = []
        self.log = os.path.join(self.work, "commands.log")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:     # another run still uses it
            pass

    def invoke(self, argv: list, trace_dir: str | None = None,
               measured: bool = True) -> dict:
        """Run invoke.py with argv; returns its record (None if it died).
        Only measured invocations add a setup_s sample."""
        result = os.path.join(self.work, "invoke.json")
        if os.path.exists(result):
            os.remove(result)
        cmd = [sys.executable, INVOKE, SRC, result, trace_dir or "-"] + argv
        with open(self.log, "ab") as log:
            log.write(("$ chemohapto " + " ".join(argv) + "\n").encode())
            log.flush()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=INVOKE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise BenchError(f"'chemohapto {' '.join(argv)}' exceeded "
                                 f"{INVOKE_TIMEOUT_S} s") from None
        if proc.returncode == 3:
            raise BenchError(self._log_tail())
        if proc.returncode != 0 or not os.path.exists(result):
            return None
        with open(result, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        if measured:
            self.setup_samples.append(rec["setup_s"])
        self.absent = rec["absent"] or self.absent
        return rec

    def _log_tail(self) -> str:
        with open(self.log, "r", encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-20:])

    def warm_up(self) -> None:
        for _ in range(WARM_IMPORTS):
            if self.invoke([], measured=False) is None:
                raise BenchError("cannot import chemohapto.cli:\n" + self._log_tail())

    def run_pass(self, index: int, traced: bool, reference: dict) -> dict:
        rel = f"pass-{index}"
        pdir = os.path.join(self.work, rel)
        trace_dir = os.path.join(pdir, "trace") if traced else None
        os.makedirs(trace_dir or pdir)
        wall, rss, rss_parts, items, written, points_failed = 0.0, 0.0, "", [], 0, 0
        for op in self.ops:
            out = os.path.join(rel, op.name)
            rec = self.invoke(op.argv(out), trace_dir)
            n_items = len(workloads.SWEEP_POINTS) if op.kind == "sweep" else 1
            if rec is None or rec["exit_code"] != 0 or rec["error"]:
                why = (rec["error"] or f"exit code {rec['exit_code']}") if rec \
                    else "process died"
                items += [(op.name, None, [why])] * n_items
                if rec is None:
                    continue
            else:
                try:
                    rows = workloads.check_op(op, os.path.join(self.work, out),
                                              reference)
                except (OSError, ValueError, KeyError) as exc:
                    # a command that reports success owes readable outputs
                    rows = [(op.name, {}, [f"unreadable output: {exc}"])] * n_items
                if op.kind == "sweep":
                    points_failed += sum(1 for _, got, _ in rows if got is None)
                items += rows
            wall += rec["wall_s"]
            if rec["peak_rss_mb"] > rss:
                rss = rec["peak_rss_mb"]
                rss_parts = (f"{rec['own_rss_mb']:.1f} + {rec['children']} x "
                             f"{rec['child_rss_mb']:.1f}")
            written += workloads.bytes_written(os.path.join(self.work, out))
        ok = sum(1 for _, _, errs in items if not errs)
        # wrong outputs, and failures the reference does not expect
        wrong = [(item, errs) for item, got, errs in items
                 if errs and (got is not None or item not in reference
                              or reference[item] is not None)]
        if ok == 0:
            wrong.append(("pass", ["no operation succeeded"]))
        result = {"traced": traced, "wall_s": wall, "peak_rss_mb": rss,
                  "rss_parts": rss_parts,
                  "attempted": len(items), "ok": ok, "items": items,
                  "wrong": wrong, "bytes_written": written}
        if traced:
            workers = max(op.workers for op in self.ops)
            result["layers"] = summarize_trace(trace_dir, workers, wall)
            keep_spans(trace_dir, self.workload)
            result["layers"]["io.bytes_written"] = written
            result["layers"]["cli.sweep.points_failed"] = points_failed
        shutil.rmtree(pdir, ignore_errors=True)
        return result


def _chunks(trace_dir: str):
    """Span chunks flushed by the traced processes of one pass."""
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), "r", encoding="utf-8") as fh:
            for line in fh:
                yield json.loads(line)


def keep_spans(trace_dir: str, workload: str) -> None:
    """Copy a pass's raw spans to .bench_out/<workload>-spans.jsonl.gz."""
    os.makedirs(OUT, exist_ok=True)
    with gzip.open(os.path.join(OUT, f"{workload}-spans.jsonl.gz"), "wb") as out:
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), "rb") as fh:
                shutil.copyfileobj(fh, out)


def summarize_trace(trace_dir: str, workers: int, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, self_s, total_s, counters = {}, {}, {}, {}
    for chunk in _chunks(trace_dir):
        spans = chunk["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            total_s[name] = total_s.get(name, 0.0) + (end - start)
        for key, n in chunk["counters"].items():
            counters[key] = counters.get(key, 0) + n

    out = {}
    layers = {}
    for name, _, _ in tracer.TRACED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        layer = name.split(".")[0] + ".self_s"
        layers[layer] = layers.get(layer, 0.0) + self_s.get(name, 0.0)
    out.update(layers)
    for key in ("grid.face_diff.cells", "kinetics.f.elements", "solver.steps"):
        out[key] = counters.get(key, 0)
    cg = calls.get("solver._cg_helmholtz", 0)
    out["solver.spectral_solves_per_helmholtz"] = (
        calls.get("solver._NeumannSpectral.solve", 0) / cg if cg else 0.0)
    inputs = counters.get("condition.inputs.calls", 0)
    out["condition.inputs_repeat_ratio"] = (
        counters.get("condition.inputs.repeats", 0) / inputs if inputs else 0.0)
    points = total_s.get("cli._sweep_point", 0.0)
    out["cli.sweep.worker_utilization"] = (
        points / (workers * wall) if points and workers > 1 else 0.0)
    out["unattributed_s"] = workers * wall - sum(layers.values())
    return out


def _median(values: list) -> float:
    return float(statistics.median(values))


def run_benchmark(args) -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})
    bench = Bench(args.workload, args.seed)
    try:
        bench.warm_up()
        passes = []
        start = time.perf_counter()
        while True:
            if args.trace:
                # untraced, traced, traced, then alternate
                traced = len(passes) in (1, 2) or (len(passes) > 2 and len(passes) % 2 == 0)
            else:
                traced = False
            passes.append(bench.run_pass(len(passes), traced, reference))
            done = (time.perf_counter() - start >= args.seconds
                    and len(passes) >= MIN_PASSES)
            if done and (not args.trace or len(passes) % 2 == 1):
                break
    finally:
        bench.close()
    return {"bench": bench, "passes": passes}


def end_to_end(bench: Bench, passes: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    ok = sum(p["ok"] for p in passes)
    return {
        "setup_s": (_median(bench.setup_samples), "s", len(bench.setup_samples)),
        # a pass with ok == 0 has made the run incorrect
        "wall_per_ok_op_s": (_median([p["wall_s"] / max(p["ok"], 1) for p in plain]),
                             "s", len(plain)),
        "ok_ratio": (ok / attempted, "ratio", attempted),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in plain]), "MiB", len(plain)),
    }


def per_layer(passes: list) -> tuple:
    """Per-layer metrics; the second value lists counts that did not repeat."""
    traced = [p["layers"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    first = traced[0]
    unstable = [k for k in first if is_exact(k) and any(t[k] != first[k] for t in traced)]
    metrics = {k: (first[k] if is_exact(k) else _median([t[k] for t in traced]),
                   unit_of(k)) for k in first}
    if plain:
        metrics["trace_overhead"] = (
            _median([p["wall_s"] for p in passes if p["traced"]]) / _median(plain),
            "ratio")
    return metrics, unstable


def report(args, bench: Bench, passes: list) -> dict:
    env = environment(bench.env, args.seed)
    print(f"chemohapto benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    n = bench.ops[0].grid_n
    field_kib = n * n * 8 / 1024
    print(f"inputs: {len(bench.ops)} command(s), fields {n}x{n} float64 = "
          f"{field_kib:g} KiB each, L2 per core {env['l2_per_core']}")
    for i, p in enumerate(passes):
        print(f"pass {i}: {'traced' if p['traced'] else 'untraced'}, "
              f"wall {p['wall_s']:.3f} s, {p['ok']}/{p['attempted']} ok, "
              f"peak RSS {p['peak_rss_mb']:.1f} MiB ({p['rss_parts']})")
    failures = {}
    for p in passes:
        for item, _, errs in p["items"]:
            for err in errs:
                failures[(item, err)] = failures.get((item, err), 0) + 1
    for (item, err), count in sorted(failures.items()):
        print(f"failed {count}x: {item}: {err}")
    wrong = sorted({(item, err) for p in passes for item, errs in p["wrong"]
                    for err in errs})
    for item, err in wrong:
        print(f"unexpected: {item}: {err}")

    attempted = sum(p["attempted"] for p in passes)
    failed = attempted - sum(p["ok"] for p in passes)
    record = {"workload": args.workload, "env": env, "field_kib": field_kib,
              "passes": passes}
    if args.trace:
        metrics, unstable = per_layer(passes)
        for name in bench.absent:
            print(f"absent: {name} is not in this version of chemohapto"
                  + ("" if name in tracer.PRIVATE else " (public name!)"))
        if unstable:
            print("counts differ between traced passes: " + ", ".join(unstable))
        else:
            print("exact counts repeat across "
                  f"{sum(p['traced'] for p in passes)} traced passes")
        correct = not wrong and not unstable
        workers = max(op.workers for op in bench.ops)
        wall = _median([p["wall_s"] for p in passes if p["traced"]])
        unattributed = metrics["unattributed_s"][0]
        print(f"reconcile: traced wall {wall:.3f} s x {workers} worker(s), layer self "
              f"time {workers * wall - unattributed:.3f} s, unattributed "
              f"{unattributed:.3f} s, trace_overhead {metrics['trace_overhead'][0]:.3f}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<44s} {value:.6g} {unit}")
    else:
        e2e = end_to_end(bench, passes)
        correct = not wrong
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
        for key, (value, unit, count) in e2e.items():
            print(f"  {key:<20s} {value:.6g} {unit}  (n={count})")
        per_op = e2e["wall_per_ok_op_s"][0]
        derived = {"run-256-tau1": ("run_s", per_op, "s"),
                   "check-families": ("check_s", per_op * len(bench.ops), "s"),
                   "sweep-96-tau0": ("sweep_points_per_s", 1.0 / per_op, "1/s")}
        name, value, unit = derived[args.workload]
        print(f"  {name:<20s} {value:.6g} {unit}  (from wall_per_ok_op_s)")
        print(f"  {'failed_ratio':<20s} {failed / attempted:.6g}  ({failed}/{attempted})")
    record["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    # the result line carries the declared metrics; per-function self times
    # of functions some workload never calls would read a constant 0 s there,
    # so only the record and the listing above carry those
    with open(DECLARED, "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                    "unit": metrics[m["name"]][1]} for m in declared}}


def self_test() -> int:
    """Tiny traced passes of every workload: each public traced name is called
    at least once, and exact counts repeat between two traced passes."""
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    calls, problems = {}, []
    for workload in workloads.WHY:
        # tiny grids change the condition inputs: keep only which items may fail
        may_fail = {k: None for k, v in reference.get(workload, {}).items() if v is None}
        bench = Bench(workload, seed=1, tiny=True)
        try:
            bench.warm_up()
            passes = [bench.run_pass(i, True, may_fail) for i in range(2)]
        finally:
            bench.close()
        metrics, unstable = per_layer(passes)
        problems += [f"{workload}: {k} differs between passes" for k in unstable]
        problems += [f"{workload}: {item}: {errs}" for p in passes
                     for item, errs in p["wrong"]]
        for name, _, _ in tracer.TRACED:
            calls[name] = calls.get(name, 0) + metrics[f"{name}.calls"][0]
        print(f"{workload}: " + ", ".join(f"{k}={v[0]}" for k, v in metrics.items()
                                         if k.endswith(".calls") and v[0]))
    problems += [f"{name} recorded no call" for name, n in calls.items()
                 if n == 0 and name not in tracer.PRIVATE]
    for line in problems:
        print("self-test FAIL: " + line)
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        result = run_benchmark(args)
        print(json.dumps(report(args, result["bench"], result["passes"])))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
