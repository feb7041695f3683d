"""Span tracer that times chemohapto's layers from outside the package.

install() replaces each function in TRACED with a wrapper that records a
span (name, start, end, parent) and a few work counters.  A module-level
function is replaced in its defining module and at every module of the
package that bound it by `from ... import`; a method is replaced on its
class and on every subclass that overrides it.  Nothing under src/ changes.

Spans are held in memory and appended, one JSON line per flush, to
`<trace_dir>/spans-<pid>.jsonl` whenever a process's outermost span ends.
Pool workers forked by `chemohapto sweep` inherit the wrappers; their state
is reset at fork and each finished point is flushed before its result goes
back to the parent, so the workers' spans reach the benchmark even though
the pool terminates them.

A traced name whose target is missing (private helpers may be removed) is
listed in Tracer.absent and left out; nothing fails.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute); the span name is also the metric prefix
TRACED = (
    ("grid.face_diff", "chemohapto.grid", "Grid.face_diff"),
    ("grid.laplacian_neumann", "chemohapto.grid", "Grid.laplacian_neumann"),
    ("grid.taxis_divergence", "chemohapto.grid", "Grid.taxis_divergence"),
    ("grid.grad_norm", "chemohapto.grid", "Grid.grad_norm"),
    ("grid.norm", "chemohapto.grid", "Grid.norm"),
    ("grid.integrate", "chemohapto.grid", "Grid.integrate"),
    ("grid.dirichlet_energy", "chemohapto.grid", "Grid.dirichlet_energy"),
    ("solver.run", "chemohapto.solver", "run"),
    ("solver.step", "chemohapto.solver", "step"),
    ("solver.dt_cfl", "chemohapto.solver", "dt_cfl"),
    ("solver.solve_elliptic_v", "chemohapto.solver", "solve_elliptic_v"),
    ("solver.initial_state", "chemohapto.solver", "initial_state"),
    ("solver._NeumannSpectral.solve", "chemohapto.solver", "_NeumannSpectral.solve"),
    ("solver._cg_helmholtz", "chemohapto.solver", "_cg_helmholtz"),
    ("kinetics.f", "chemohapto.kinetics", "Kinetics.f"),
    ("kinetics.mass_cap", "chemohapto.kinetics", "mass_cap"),
    ("kinetics.damping_rate_estimate", "chemohapto.kinetics", "damping_rate_estimate"),
    ("diagnostics.make_record", "chemohapto.diagnostics", "make_record"),
    ("diagnostics.identity_residual", "chemohapto.diagnostics", "identity_residual"),
    ("diagnostics.gn_constant_estimate", "chemohapto.diagnostics", "gn_constant_estimate"),
    ("diagnostics.entropy", "chemohapto.diagnostics", "entropy"),
    ("diagnostics.g_functional", "chemohapto.diagnostics", "g_functional"),
    ("diagnostics.matrix_decay_violation", "chemohapto.diagnostics",
     "matrix_decay_violation"),
    ("condition.check_boundedness", "chemohapto.condition", "check_boundedness"),
    ("condition.classify_run", "chemohapto.condition", "classify_run"),
    ("io.write_series", "chemohapto.io", "write_series"),
    ("io.write_report", "chemohapto.io", "write_report"),
    ("io.write_field", "chemohapto.io", "write_field"),
    ("io.write_field_svg", "chemohapto.io", "write_field_svg"),
    ("config.load_config", "chemohapto.config", "load_config"),
    ("config.build_initial_data", "chemohapto.config", "build_initial_data"),
)

# names whose absence is tolerated: private helpers a refactor may delete
PRIVATE = {"solver._NeumannSpectral.solve", "solver._cg_helmholtz", "cli._sweep_point"}

# glue spans: timed for worker utilization, not counted as a layer
GLUE = (("cli._sweep_point", "chemohapto.cli", "_sweep_point"),)

# the three inputs of the boundedness condition, watched for repeated arguments
CONDITION_INPUTS = {"kinetics.mass_cap", "kinetics.damping_rate_estimate",
                    "diagnostics.gn_constant_estimate"}


def _key(value):
    """Hashable, content-based key of a call argument."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str,
                hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest())
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _key(v)) for k, v in value.items()))
    if hasattr(value, "__dict__") and not isinstance(value, type):
        public = {k: v for k, v in vars(value).items() if not k.startswith("_")}
        return (type(value).__qualname__, _key(public))
    return value


class Tracer:
    """Per-process span buffer and counters, flushed to trace_dir."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.absent = []
        self.spans = []
        self.stack = []
        self.counters = {}
        self.seen = set()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counters = {}
        self.seen = set()

    def count(self, name: str, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if not self.stack:
            self.flush()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def flush(self) -> None:
        if not self.spans and not self.counters:
            return
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "spans": self.spans,
                                 "counters": self.counters}) + "\n")
        self.spans = []
        self.counters = {}

    def wrap(self, fn, name: str):
        hook = _HOOKS.get(name)
        if name in CONDITION_INPUTS:
            hook = _repeat_hook

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return traced


def _count_cells(tr, name, args, kwargs, result):
    tr.count("grid.face_diff.cells", np.size(args[1]))


def _count_elements(tr, name, args, kwargs, result):
    tr.count("kinetics.f.elements", np.broadcast(args[1], args[2]).size)


def _count_steps(tr, name, args, kwargs, result):
    tr.count("solver.steps", result.steps)


def _repeat_hook(tr, name, args, kwargs, result):
    key = (name, _key(args), _key(kwargs))
    tr.count("condition.inputs.calls", 1)
    if key in tr.seen:
        tr.count("condition.inputs.repeats", 1)
    tr.seen.add(key)


_HOOKS = {"grid.face_diff": _count_cells, "kinetics.f": _count_elements,
          "solver.run": _count_steps}


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every TRACED and GLUE target of the imported chemohapto modules."""
    package = [m for n, m in sys.modules.items()
               if m is not None and (n == "chemohapto" or n.startswith("chemohapto."))]
    for name, modname, attr in TRACED + GLUE:
        mod = sys.modules.get(modname)
        owner, _, leaf = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner, None)
            targets = [c for c in (_subclasses(cls) if cls else []) if leaf in vars(c)]
            for c in targets:
                setattr(c, leaf, tracer.wrap(vars(c)[leaf], name))
        else:
            fn = getattr(mod, leaf, None)
            targets = [fn] if callable(fn) else []
            if targets:
                wrapped = tracer.wrap(fn, name)
                for m in package:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapped)
        if not targets:
            tracer.absent.append(name)
