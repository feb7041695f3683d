"""The benchmark workloads: generated configs, CLI calls and output checks.

Each workload is a list of operations.  An operation is one `chemohapto`
command line, run in a fresh process by invoke.py.  Its outputs are checked
against reference values recorded in reference.json and against the
guarantees every run must keep (final mass <= M1, u >= 0, w <= w0).

The workload seed sets `[ic] noise` and `[ic] seed` of every generated
config.  build_initial_data rescales u0 to the configured mass after the
noise, so M1, mu_r and C_GN do not depend on the seed and one set of
reference values serves every seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import struct
from dataclasses import dataclass, field

import numpy as np

W0 = 0.5   # uniform initial adhesive level of every workload

_LOGISTIC = {"kinetics": "logistic", "params": {"mu": 1.0}}

# check-families: six sources that share no condition inputs
FAMILIES = {
    "zero": {"kinetics": "zero", "params": {}},
    "logistic": _LOGISTIC,
    "sublog_pow": {"kinetics": "sublog_pow",
                   "params": {"a": 1.0, "b": 1.0, "gamma": 0.5}},
    "sublog_loglog": {"kinetics": "sublog_loglog", "params": {"a": 1.0, "b": 1.0}},
    "iterlog_k1": {"kinetics": "iterlog", "params": {"k": 1, "mu": 1.0}},
    "iterlog_k2": {"kinetics": "iterlog", "params": {"k": 2, "mu": 1.0}},
}

SWEEP_THREADS = 2
SWEEP_AXES = ("chi=0.5:2:3", "k=1:3:3")
SWEEP_POINTS = [(chi, k) for chi in (0.5, 1.25, 2.0) for k in (1, 2, 3)]

WHY = {
    "run-256-tau1": "one 256^2 parabolic-signal run: stepping, artifact output "
                    "and the closing condition check; a step's working set exceeds L2",
    "check-families": "six condition checks at 128^2 with no shared inputs: "
                      "kinetics-bound, nothing is time-stepped",
    "sweep-96-tau0": "nine-point iterlog sweep on two workers at 96^2: elliptic "
                     "signal, dense diagnostics, repeated condition inputs, fields fit in L2",
}


@dataclass
class Op:
    """One CLI call of a workload and what its outputs must satisfy."""

    name: str          # key into reference.json
    kind: str          # run | check | sweep
    config: str        # path of the generated INI, relative to the work dir
    extra: list = field(default_factory=list)
    workers: int = 1
    grid_n: int = 0

    def argv(self, out_dir: str) -> list:
        return [self.kind, self.config, "--out", out_dir] + self.extra


def _ini(sections: dict) -> str:
    lines = []
    for sec, items in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
        lines.append("")
    return "\n".join(lines)


def _sections(n: int, chi: float, xi: float, tau: float, source: dict,
              mass: float, width: float, t_end: float, dt_max: float,
              observe_every: float, write_fields: bool, noise: float,
              ic_seed: int) -> dict:
    sections = {"model": {"chi": chi, "xi": xi, "tau": tau,
                          "kinetics": source["kinetics"]}}
    if source["params"]:
        sections["kinetics"] = dict(source["params"])
    sections["grid"] = {"nx": n, "ny": n}
    sections["ic"] = {"preset": "gaussian-bump", "centers": "0.5:0.5",
                      "width": width, "mass": mass, "w_value": W0,
                      "noise": repr(noise), "seed": ic_seed}
    sections["time"] = {"t_end": t_end, "dt_max": dt_max,
                        "observe_every": observe_every}
    sections["output"] = {"dir": "out", "fields": int(write_fields),
                          "svg": int(write_fields)}
    return sections


def build(workload: str, seed: int, work_dir: str, tiny: bool = False) -> list:
    """Write the workload's configs under work_dir/inputs; return its ops.

    tiny shrinks grids and horizons so that a pass takes about a second;
    the tracer self-test uses it.
    """
    rng = random.Random(seed)

    def ic_noise():
        return 0.02 + 0.06 * rng.random(), rng.randrange(2 ** 31)

    os.makedirs(os.path.join(work_dir, "inputs"), exist_ok=True)
    ops = []

    def add(name, kind, sections, **kw):
        rel = os.path.join("inputs", f"{name}.ini")
        with open(os.path.join(work_dir, rel), "w", encoding="utf-8") as fh:
            fh.write(_ini(sections))
        ops.append(Op(name=name, kind=kind, config=rel,
                      grid_n=sections["grid"]["nx"], **kw))

    if workload == "run-256-tau1":
        noise, ic_seed = ic_noise()
        n, t_end = (32, 0.05) if tiny else (256, 0.5)
        add("run", "run", _sections(
            n, 0.5, 0.25, 1.0, _LOGISTIC, 2.0, 0.12, t_end, 2e-3,
            t_end / 20, True, noise, ic_seed))
    elif workload == "check-families":
        n = 16 if tiny else 128
        for name, source in FAMILIES.items():
            noise, ic_seed = ic_noise()
            add(name, "check", _sections(
                n, 0.5, 0.25, 1.0, source, 2.0, 0.12, 1.0, 2e-3, 0.0,
                False, noise, ic_seed))
    elif workload == "sweep-96-tau0":
        noise, ic_seed = ic_noise()
        n, t_end = (16, 0.05) if tiny else (96, 1.0)
        source = {"kinetics": "iterlog", "params": {"k": 2, "mu": 1.0}}
        # observe_every = 0 keeps the default cadence of t_end / 128
        extra = ["--threads", str(SWEEP_THREADS)]
        for axis in SWEEP_AXES:
            extra += ["--axis", axis]
        add("sweep", "sweep", _sections(
            n, 1.0, 0.5, 0.0, source, 4.0, 0.1, t_end, 2e-3, 0.0,
            False, noise, ic_seed),
            extra=extra, workers=SWEEP_THREADS)
    else:
        raise KeyError(workload)
    return ops


# ----------------------------------------------------------------------
# output checks


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_field(path: str) -> np.ndarray:
    """Field dump: 32-byte header (magic, nx, ny, Lx, Ly), then float64."""
    with open(path, "rb") as fh:
        magic, nx, ny, _, _ = struct.unpack("<8sIIdd", fh.read(32))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if magic != b"CHFIELD1" or data.size != nx * ny:
        raise ValueError(f"{path}: malformed field dump")
    return data.reshape(nx, ny)


def _close(got: float, want: float, rel: float = 1e-6) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rel * max(abs(want), 1e-12)


def condition_summary(threshold: dict, label: str | None) -> dict:
    """The reference-checked part of a report: condition inputs and verdict."""
    out = {"case": threshold["case"], "satisfied": threshold["satisfied"],
           "m1": threshold["m1"], "mu_r": threshold["mu_r"],
           "cgn": threshold["cgn"]}
    if label is not None:
        out["label"] = label
    return out


def _compare(got: dict, want: dict | None) -> list:
    """Differences between a report summary and its reference values."""
    if want is None:
        return []
    errs = []
    for key in ("case", "satisfied", "label"):
        if key in want and got.get(key) != want[key]:
            errs.append(f"{key} {got.get(key)!r} != reference {want[key]!r}")
    for key in ("m1", "cgn"):
        if not _close(got[key], want[key]):
            errs.append(f"{key} {got[key]!r} != reference {want[key]!r}")
    if len(got["mu_r"]) != len(want["mu_r"]) or not all(
            _close(g, w) for g, w in zip(got["mu_r"], want["mu_r"])):
        errs.append(f"mu_r {got['mu_r']!r} != reference {want['mu_r']!r}")
    return errs


def _mass_within_cap(final_mass: float, m1: float) -> list:
    if not final_mass <= m1 * (1.0 + 1e-12):
        return [f"final mass {final_mass!r} exceeds M1 {m1!r}"]
    return []


def check_op(op: Op, out_dir: str, reference: dict) -> list:
    """Check one finished operation; returns (item, summary, errors) rows.

    A run or check yields one row; a sweep yields one row per point.
    `reference` maps item names to reference summaries; items it lacks are
    held only to the guarantees (mass cap, positivity, w decay).
    """
    if op.kind == "check":
        rep = _read_json(os.path.join(out_dir, "report.json"))
        got = condition_summary(rep["threshold"], None)
        return [(op.name, got, _compare(got, reference.get(op.name)))]

    if op.kind == "run":
        rep = _read_json(os.path.join(out_dir, "report.json"))
        got = condition_summary(rep["threshold"], rep["classification"]["label"])
        errs = _compare(got, reference.get(op.name))
        if rep["run"]["status"] != "ok":
            errs.append(f"run status {rep['run']['status']!r}")
        errs += _mass_within_cap(rep["run"]["final_mass"], got["m1"])
        u = _read_field(os.path.join(out_dir, "u_final.field"))
        w = _read_field(os.path.join(out_dir, "w_final.field"))
        if not np.all(u >= 0.0):
            errs.append(f"u_final has negative values (min {u.min()!r})")
        if not np.all(w <= W0):
            errs.append(f"w_final exceeds w0 = {W0} (max {w.max()!r})")
        return [(op.name, got, errs)]

    rows = []
    with open(os.path.join(out_dir, "sweep.csv"), "r", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    if len(table) != len(SWEEP_POINTS):
        raise ValueError(f"sweep.csv has {len(table)} rows, "
                         f"expected {len(SWEEP_POINTS)}")
    for row in table:
        item = f"chi={float(row['chi']):g},k={int(row['k'])}"
        if row["error"]:
            rows.append((item, None, [row["error"]]))
            continue
        pdir = os.path.join(out_dir, f"point_{int(row['point']):04d}")
        rep = _read_json(os.path.join(pdir, "report.json"))
        got = condition_summary(rep["threshold"], rep["classification"]["label"])
        errs = _compare(got, reference.get(item))
        if row["status"] != "ok":
            errs.append(f"point status {row['status']!r}")
        errs += _mass_within_cap(rep["run"]["final_mass"], got["m1"])
        rows.append((item, got, errs))
    return rows


def bytes_written(out_dir: str) -> int:
    """Size of an operation's outputs.  The sweep's summary.txt is left out:
    its elapsed-time figure changes width from run to run."""
    total = 0
    for dirpath, _, files in os.walk(out_dir):
        for name in files:
            if name != "summary.txt":
                total += os.path.getsize(os.path.join(dirpath, name))
    return total
