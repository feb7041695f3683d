"""Run configuration: sectioned INI files mapped onto validated objects.

A config is a flat, human-editable INI file with sections [model],
[kinetics], [grid], [ic], [time], [numerics], [output].  Values carry
units in inline comments.  Parsing is strict: unknown sections or keys,
out-of-range values, and missing required keys all fail with a message
naming the offending field, the legal range, and the line in the file.
"""

from __future__ import annotations

import configparser
import copy
import functools
import math
import re
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np
# numpy loads np.random on first use; load it with the package instead, so
# that a noisy preset's first draw (and its secrets/hashlib imports) is not
# paid inside a command
import numpy.random  # noqa: F401

from .grid import Grid
from .kinetics import _KINETICS_TYPES
from .solver import TIME_RESOLUTION, InitialData, ModelParams, Numerics, check_time_floor


class ConfigError(ValueError):
    """Raised for unparseable or out-of-range configuration input."""


class _Key(NamedTuple):
    """One config key: its kind, its default when absent, and the values it
    accepts.  Reals are range-checked against lo (open or closed) and hi
    (closed), integers against lo; a string with choices matches them
    case-blind.  The kinds modes and pairs read "mx,my" integers and
    "x:y, ..." reals."""

    kind: str               # real | integer | boolean | string | modes | pairs
    default: object = None
    required: bool = False
    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    choices: Optional[tuple] = None


# Every section and key a config may hold, in the order they are checked.
# Defaults of keys that fill a Grid or Numerics are read from there.
_SCHEMA = {
    "grid": {
        "nx": _Key("integer", required=True, lo=4),
        "ny": _Key("integer", required=True, lo=4),
        "lx": _Key("real", Grid.__init__.__defaults__[0], lo=0.0, lo_open=True),
        "ly": _Key("real", Grid.__init__.__defaults__[1], lo=0.0, lo_open=True),
    },
    "model": {
        "chi": _Key("real", required=True, lo=0.0),
        "xi": _Key("real", required=True, lo=0.0),
        "tau": _Key("real", required=True, lo=0.0),
        "kinetics": _Key("string", required=True, choices=tuple(_KINETICS_TYPES)),
    },
    # the chosen source reads its own PARAMS, every one required
    "kinetics": {n: _Key("real", required=True)
                 for cls in _KINETICS_TYPES.values() for n in cls.PARAMS},
    "ic": {
        "preset": _Key("string", required=True,
                       choices=("homogeneous", "cosine-perturbation", "gaussian-bump", "file")),
        "mass": _Key("real", lo=0.0, lo_open=True),
        "u_value": _Key("real", 1.0, lo=0.0),
        "w_value": _Key("real", 0.0, lo=0.0),
        "v_value": _Key("real", lo=0.0),
        "u_base": _Key("real", 1.0, lo=0.0),
        "u_eps": _Key("real", 0.1),
        "width": _Key("real", 0.1, lo=0.0, lo_open=True),
        "amplitude": _Key("real", 1.0, lo=0.0, lo_open=True),
        "noise": _Key("real", 0.0, lo=0.0, hi=0.9),
        "seed": _Key("integer", 0, lo=0),
        "u0_path": _Key("string"),
        "w0_path": _Key("string"),
        "v0_path": _Key("string"),
        "modes": _Key("modes", (1, 1)),
        "centers": _Key("pairs", ((0.5, 0.5),)),
    },
    "time": {
        "t_end": _Key("real", required=True, lo=0.0, lo_open=True),
        "dt_max": _Key("real", Numerics.dt_max, lo=0.0, lo_open=True),
        "observe_every": _Key("real", 0.0, lo=0.0),
    },
    "numerics": {
        "overflow_guard": _Key("real", Numerics.overflow_guard, lo=0.0, lo_open=True),
    },
    "output": {
        "dir": _Key("string", "out"),
        "fields": _Key("boolean", True),
        "svg": _Key("boolean", True),
    },
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _locate(text: str, section: str, key: Optional[str] = None) -> str:
    """Best-effort 'line N' tag for error messages, empty when unknown."""
    if not text:
        return ""
    lines = text.splitlines()
    in_section = False
    sec_line = None
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s.startswith("[") and s.endswith("]"):
            if in_section:
                break
            in_section = s[1:-1].strip().lower() == section
            if in_section:
                sec_line = i
            continue
        if in_section and key is not None:
            body = s.split(";")[0].split("#")[0]
            if "=" in body or ":" in body:
                name = body.replace(":", "=").split("=", 1)[0].strip().lower()
                if name == key:
                    return f" (line {i})"
    if sec_line is not None:
        return f" (line {sec_line})"
    return ""


@dataclass
class RunConfig:
    """Everything a run needs, validated; built from an INI file.  ic holds
    every [ic] key by name, defaults filled in and the preset lower-cased."""

    grid: Grid
    params: ModelParams
    ic: SimpleNamespace
    t_end: float
    observe_every: Optional[float]
    numerics: Numerics
    out_dir: str
    write_fields: bool
    write_svg: bool
    origin: str
    sections: dict = field(repr=False)


def read_ini(path: str) -> tuple:
    """Parse an INI file into {section: {key: str}} plus the raw text."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        cp.read_string(text, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser syntax errors already carry line numbers
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    sections = {s.lower(): {k.lower(): v for k, v in cp.items(s)} for s in cp.sections()}
    return sections, text


def _fail(origin: str, text: str, sec: str, key: str, need: str, got) -> ConfigError:
    return ConfigError(f"{origin}: {sec}.{key} {need}, got {got!r}{_locate(text, sec, key)}")


def _range_text(spec: _Key) -> str:
    left = "(" if spec.lo_open else "["
    a = "-inf" if spec.lo is None else f"{spec.lo:g}"
    b = "+inf" if spec.hi is None else f"{spec.hi:g}"
    return f"{left}{a}, {b}]"


def _parse(sections: dict, origin: str, text: str, sec: str, keys=None) -> dict:
    """{key: value} of one section, typed and range-checked as _SCHEMA says,
    for the given keys (all of the section's by default) in order; an
    absent key takes its default, and an absent required key fails."""
    given = sections.get(sec, {})
    out = {}
    for key in _SCHEMA[sec] if keys is None else keys:
        spec = _SCHEMA[sec][key]
        if key not in given:
            if spec.required:
                raise ConfigError(f"{origin}: missing required key {sec}.{key}"
                                  f"{_locate(text, sec)}")
            out[key] = spec.default
            continue
        raw = given[key]

        def bad(need, got=raw):
            return _fail(origin, text, sec, key, need, got)

        if spec.kind == "real":
            try:
                val = float(raw)
            except ValueError:
                raise bad("must be a real number") from None
            if not math.isfinite(val):
                raise bad("must be finite")
            below = spec.lo is not None and (val <= spec.lo if spec.lo_open else val < spec.lo)
            above = spec.hi is not None and val > spec.hi
            if below or above:
                raise bad(f"must be in {_range_text(spec)}", val)
        elif spec.kind == "integer":
            try:
                val = int(str(raw), 10)
            except ValueError:
                raise bad("must be an integer") from None
            if spec.lo is not None and val < spec.lo:
                raise bad(f"must be an integer >= {spec.lo}", val)
        elif spec.kind == "boolean":
            val = _BOOLEANS.get(str(raw).strip().lower())
            if val is None:
                raise bad("must be a boolean (1/0/true/false/yes/no)")
        else:
            val = str(raw).strip()
            if spec.choices is not None and val.lower() not in spec.choices:
                raise bad(f"must be one of {sorted(spec.choices)}", val)
            if spec.kind == "modes":
                try:
                    mx, my = (int(b) for b in val.split(","))
                except ValueError:
                    raise bad("must look like mx,my with integers", val) from None
                val = (mx, my)
            elif spec.kind == "pairs":
                pairs = []
                for part in filter(None, (p.strip() for p in val.split(","))):
                    try:
                        x, y = (float(b) for b in part.split(":"))
                    except ValueError:
                        x = y = math.nan
                    if not (math.isfinite(x) and math.isfinite(y)):
                        raise bad("entries must look like x:y with finite numbers", part)
                    pairs.append((x, y))
                if not pairs:
                    raise ConfigError(f"{origin}: {sec}.{key} is empty"
                                      f"{_locate(text, sec, key)}")
                val = tuple(pairs)
        out[key] = val
    return out


def build_run_config(sections: dict, origin: str = "<memory>", text: str = "") -> RunConfig:
    """Validate a parsed section tree and assemble the run objects."""
    for sec, kv in sections.items():
        if sec not in _SCHEMA:
            raise ConfigError(
                f"{origin}: unknown section [{sec}]{_locate(text, sec)}; "
                f"expected one of {sorted(_SCHEMA)}"
            )
        for key in kv:
            if key not in _SCHEMA[sec]:
                raise ConfigError(
                    f"{origin}: unknown key {sec}.{key}{_locate(text, sec, key)}; "
                    f"allowed keys: {sorted(_SCHEMA[sec])}"
                )
    read = functools.partial(_parse, sections, origin, text)

    g = read("grid")
    grid = Grid(g["nx"], g["ny"], g["lx"], g["ly"])

    model = read("model")
    kind = model["kinetics"]
    source = _KINETICS_TYPES[kind.lower()]
    names = source.PARAMS
    kin_params = read("kinetics", names)
    extra = set(sections.get("kinetics", {})) - set(names)
    if extra:
        raise ConfigError(
            f"{origin}: kinetics '{kind}' does not take "
            f"{sorted('kinetics.' + e for e in extra)}"
            f"{_locate(text, 'kinetics', sorted(extra)[0])}"
        )
    try:
        kinetics = source(**kin_params)
    except ValueError as exc:
        # the parameter the message names as a word ('a' is in 'damping')
        key = next((n for n in names if re.search(rf"\b{n}\b", str(exc))),
                   names[0] if names else None)
        raise ConfigError(
            f"{origin}: kinetics.{key}: {exc}{_locate(text, 'kinetics', key)}"
        ) from exc
    params = ModelParams(chi=model["chi"], xi=model["xi"], tau=model["tau"],
                         kinetics=kinetics)

    ic = SimpleNamespace(**read("ic"))
    ic.preset = ic.preset.lower()

    t = read("time")
    t_end, dt_max, observe = t["t_end"], t["dt_max"], t["observe_every"]
    observe_every = None if observe == 0.0 else observe
    try:
        check_time_floor("dt_max", dt_max, t_end)
    except ValueError as exc:
        raise ConfigError(f"{origin}: time.{exc}{_locate(text, 'time', 'dt_max')}") from None
    tiny = TIME_RESOLUTION * t_end
    if observe_every is not None and observe_every < tiny:
        raise _fail(origin, text, "time", "observe_every", f"must be 0 or at least "
                    f"{TIME_RESOLUTION:g} * t_end = {tiny:.3g}", observe)

    num = read("numerics")
    out = read("output")
    return RunConfig(
        grid=grid,
        params=params,
        ic=ic,
        t_end=t_end,
        observe_every=observe_every,
        numerics=Numerics(dt_max=dt_max, overflow_guard=num["overflow_guard"]),
        out_dir=out["dir"],
        write_fields=out["fields"],
        write_svg=out["svg"],
        origin=origin,
        sections=copy.deepcopy(sections),
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a run configuration file."""
    sections, text = read_ini(path)
    return build_run_config(sections, origin=path, text=text)


def build_initial_data(cfg: RunConfig) -> InitialData:
    """Materialize the configured IC preset on the configured grid.  v0
    stays None unless ic.v0_path or (tau > 0) ic.v_value sets it; a run
    then starts at the elliptic equilibrium of u0, which check never solves."""
    grid, spec, tau = cfg.grid, cfg.ic, cfg.params.tau
    X, Y = grid.mesh()
    v0 = None

    if spec.preset == "homogeneous":
        u0 = np.full(grid.shape, spec.u_value)
        w0 = np.full(grid.shape, spec.w_value)
    elif spec.preset == "cosine-perturbation":
        mx, my = spec.modes
        u0 = spec.u_base + spec.u_eps * np.cos(mx * np.pi * X / grid.Lx) \
            * np.cos(my * np.pi * Y / grid.Ly)
        if np.min(u0) < 0:
            raise ConfigError(
                f"{cfg.origin}: ic.u_eps too large, u0 dips to {np.min(u0):.3g} < 0"
            )
        w0 = np.full(grid.shape, spec.w_value)
    elif spec.preset == "gaussian-bump":
        u0 = np.zeros(grid.shape)
        for (cx, cy) in spec.centers:
            u0 += spec.amplitude * np.exp(
                -((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * spec.width ** 2))
        w0 = np.full(grid.shape, spec.w_value)
    elif spec.preset == "file":
        from .io import read_field
        if spec.u0_path is None or spec.w0_path is None:
            raise ConfigError(
                f"{cfg.origin}: ic preset 'file' requires ic.u0_path and ic.w0_path"
            )
        u0 = read_field(spec.u0_path, grid)
        w0 = read_field(spec.w0_path, grid)
        if spec.v0_path is not None:
            v0 = read_field(spec.v0_path, grid)
    else:  # unreachable after validation
        raise ConfigError(f"unknown ic preset {spec.preset!r}")

    if spec.noise > 0.0:
        rng = np.random.default_rng(spec.seed)
        u0 = u0 * (1.0 + spec.noise * (2.0 * rng.random(grid.shape) - 1.0))

    if spec.mass is not None:
        total = grid.integrate(u0)
        if total <= 0.0:
            raise ConfigError(f"{cfg.origin}: cannot rescale zero-mass u0")
        u0 = u0 * (spec.mass / total)

    if tau > 0.0 and v0 is None and spec.v_value is not None:
        v0 = np.full(grid.shape, spec.v_value)

    return InitialData(u0=u0, w0=w0, v0=v0)
