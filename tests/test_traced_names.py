"""The benchmark's span tracer wraps package functions by name: every public
name it lists must still resolve, or the benchmark would silently drop a
layer.  bench/tracer.py is read, not changed."""

import importlib
import os
import types

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _load_tracer():
    # executed from source so that no bytecode cache is written under bench/
    module = types.ModuleType("bench_tracer")
    with open(TRACER, "r", encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, modname, attr", [
    t for t in tracer.TRACED + tracer.GLUE if t[0] not in tracer.PRIVATE])
def test_traced_public_name_resolves(name, modname, attr):
    target = importlib.import_module(modname)
    for part in attr.split("."):
        assert hasattr(target, part), f"{name}: {modname}.{attr} is gone"
        target = getattr(target, part)
    assert callable(target)
