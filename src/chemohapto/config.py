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
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# numpy loads np.random on first use; load it with the package instead, so
# that a noisy preset's first draw (and its secrets/hashlib imports) is not
# paid inside a command
import numpy.random  # noqa: F401

from .grid import Grid
from .kinetics import _KINETICS_TYPES, make_kinetics
from .solver import TIME_RESOLUTION, InitialData, ModelParams, Numerics


class ConfigError(ValueError):
    """Raised for unparseable or out-of-range configuration input."""


_SECTIONS = {
    "model": {"chi", "xi", "tau", "kinetics"},
    "kinetics": {n for cls in _KINETICS_TYPES.values() for n in cls.PARAMS},
    "grid": {"nx", "ny", "lx", "ly"},
    "ic": {
        "preset", "mass", "u_value", "w_value", "v_value",
        "u_base", "u_eps", "modes", "centers", "width", "amplitude",
        "noise", "seed", "u0_path", "w0_path", "v0_path",
    },
    "time": {"t_end", "dt_max", "observe_every"},
    "numerics": {
        "elliptic_tol", "overflow_guard", "cfl_safety", "g_order", "threads",
    },
    "output": {"dir", "fields", "svg"},
}

_PRESETS = ("homogeneous", "cosine-perturbation", "gaussian-bump", "file")


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
class ICSpec:
    """Initial-condition preset plus its raw parameters."""

    preset: str
    mass: Optional[float] = None
    u_value: float = 1.0
    w_value: float = 0.0
    v_value: Optional[float] = None
    u_base: float = 1.0
    u_eps: float = 0.1
    modes: tuple = (1, 1)
    centers: tuple = ((0.5, 0.5),)
    width: float = 0.1
    amplitude: float = 1.0
    noise: float = 0.0
    seed: int = 0
    u0_path: Optional[str] = None
    w0_path: Optional[str] = None
    v0_path: Optional[str] = None


@dataclass
class RunConfig:
    """Everything a run needs, validated; built from an INI file."""

    grid: Grid
    params: ModelParams
    ic_spec: ICSpec
    t_end: float
    observe_every: Optional[float]
    numerics: Numerics
    threads: int = 1
    out_dir: str = "out"
    write_fields: bool = True
    write_svg: bool = True
    origin: str = "<memory>"
    sections: dict = field(default_factory=dict, repr=False)


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


def _known_or_raise(sections: dict, origin: str, text: str) -> None:
    for sec, kv in sections.items():
        if sec not in _SECTIONS:
            raise ConfigError(
                f"{origin}: unknown section [{sec}]{_locate(text, sec)}; "
                f"expected one of {sorted(_SECTIONS)}"
            )
        for key in kv:
            if key not in _SECTIONS[sec]:
                raise ConfigError(
                    f"{origin}: unknown key {sec}.{key}{_locate(text, sec, key)}; "
                    f"allowed keys: {sorted(_SECTIONS[sec])}"
                )


class _Reader:
    """Typed, range-checked access into one parsed section dict."""

    def __init__(self, sections: dict, origin: str, text: str):
        self.sections = sections
        self.origin = origin
        self.text = text

    def _raw(self, sec: str, key: str, default, required: bool):
        kv = self.sections.get(sec, {})
        if key not in kv:
            if required:
                raise ConfigError(
                    f"{self.origin}: missing required key {sec}.{key}"
                    f"{_locate(self.text, sec)}"
                )
            return default
        return kv[key]

    def _fail(self, sec: str, key: str, need: str, got) -> ConfigError:
        return ConfigError(
            f"{self.origin}: {sec}.{key} must be {need}, got {got!r}"
            f"{_locate(self.text, sec, key)}"
        )

    def real(self, sec, key, default=None, required=False,
             lo=None, hi=None, lo_open=False, hi_open=False):
        raw = self._raw(sec, key, default, required)
        if raw is None or isinstance(raw, float):
            return raw
        try:
            val = float(raw)
        except ValueError:
            raise self._fail(sec, key, "a real number", raw) from None
        if not math.isfinite(val):
            raise self._fail(sec, key, "finite", raw)
        bounds = _range_text(lo, hi, lo_open, hi_open)
        if lo is not None and (val <= lo if lo_open else val < lo):
            raise self._fail(sec, key, f"in {bounds}", val)
        if hi is not None and (val >= hi if hi_open else val > hi):
            raise self._fail(sec, key, f"in {bounds}", val)
        return val

    def integer(self, sec, key, default=None, required=False, lo=None, hi=None):
        raw = self._raw(sec, key, default, required)
        if raw is None or isinstance(raw, int):
            return raw
        try:
            val = int(str(raw), 10)
        except ValueError:
            raise self._fail(sec, key, "an integer", raw) from None
        if lo is not None and val < lo:
            raise self._fail(sec, key, f"an integer >= {lo}", val)
        if hi is not None and val > hi:
            raise self._fail(sec, key, f"an integer <= {hi}", val)
        return val

    def boolean(self, sec, key, default=False):
        raw = self._raw(sec, key, default, required=False)
        if isinstance(raw, bool):
            return raw
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise self._fail(sec, key, "a boolean (1/0/true/false/yes/no)", raw)

    def string(self, sec, key, default=None, required=False, choices=None):
        raw = self._raw(sec, key, default, required)
        if raw is None:
            return None
        val = str(raw).strip()
        if choices is not None and val.lower() not in choices:
            raise self._fail(sec, key, f"one of {sorted(choices)}", val)
        return val


def _range_text(lo, hi, lo_open, hi_open) -> str:
    left = "(" if lo_open else "["
    right = ")" if hi_open else "]"
    a = "-inf" if lo is None else f"{lo:g}"
    b = "+inf" if hi is None else f"{hi:g}"
    return f"{left}{a}, {b}{right}"


def _parse_pairs(raw: str, sec: str, key: str, origin: str, text: str) -> tuple:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            x, y = (float(b) for b in part.split(":"))
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigError(
                f"{origin}: {sec}.{key} entries must look like x:y with finite "
                f"numbers, got {part!r}{_locate(text, sec, key)}"
            )
        out.append((x, y))
    if not out:
        raise ConfigError(f"{origin}: {sec}.{key} is empty{_locate(text, sec, key)}")
    return tuple(out)


def build_run_config(sections: dict, origin: str = "<memory>", text: str = "") -> RunConfig:
    """Validate a parsed section tree and assemble the run objects."""
    _known_or_raise(sections, origin, text)
    rd = _Reader(sections, origin, text)

    nx = rd.integer("grid", "nx", required=True, lo=4)
    ny = rd.integer("grid", "ny", required=True, lo=4)
    lx = rd.real("grid", "lx", default=1.0, lo=0.0, lo_open=True)
    ly = rd.real("grid", "ly", default=1.0, lo=0.0, lo_open=True)
    grid = Grid(nx, ny, lx, ly)

    chi = rd.real("model", "chi", required=True, lo=0.0)
    xi = rd.real("model", "xi", required=True, lo=0.0)
    tau = rd.real("model", "tau", required=True, lo=0.0)
    kind = rd.string("model", "kinetics", required=True,
                     choices=set(_KINETICS_TYPES))
    names = _KINETICS_TYPES[kind.lower()].PARAMS
    kin_params = {name: rd.real("kinetics", name, required=True) for name in names}
    extra = set(sections.get("kinetics", {})) - set(names)
    if extra:
        raise ConfigError(
            f"{origin}: kinetics '{kind}' does not take "
            f"{sorted('kinetics.' + e for e in extra)}"
            f"{_locate(text, 'kinetics', sorted(extra)[0])}"
        )
    try:
        kinetics = make_kinetics(kind, **kin_params)
    except (ValueError, OverflowError) as exc:
        # the parameter the message names as a word ('a' is in 'damping')
        key = next((n for n in names if re.search(rf"\b{n}\b", str(exc))),
                   names[0] if names else None)
        raise ConfigError(
            f"{origin}: kinetics.{key}: {exc}{_locate(text, 'kinetics', key)}"
        ) from exc
    params = ModelParams(chi=chi, xi=xi, tau=tau, kinetics=kinetics)

    preset = rd.string("ic", "preset", required=True, choices=set(_PRESETS))
    ic_spec = ICSpec(
        preset=preset.lower(),
        mass=rd.real("ic", "mass", default=None, lo=0.0, lo_open=True),
        u_value=rd.real("ic", "u_value", default=1.0, lo=0.0),
        w_value=rd.real("ic", "w_value", default=0.0, lo=0.0),
        v_value=rd.real("ic", "v_value", default=None, lo=0.0),
        u_base=rd.real("ic", "u_base", default=1.0, lo=0.0),
        u_eps=rd.real("ic", "u_eps", default=0.1),
        width=rd.real("ic", "width", default=0.1, lo=0.0, lo_open=True),
        amplitude=rd.real("ic", "amplitude", default=1.0, lo=0.0, lo_open=True),
        noise=rd.real("ic", "noise", default=0.0, lo=0.0, hi=0.9),
        seed=rd.integer("ic", "seed", default=0, lo=0),
        u0_path=rd.string("ic", "u0_path"),
        w0_path=rd.string("ic", "w0_path"),
        v0_path=rd.string("ic", "v0_path"),
    )
    raw_modes = rd.string("ic", "modes", default="1,1")
    try:
        mx, my = (int(b) for b in raw_modes.split(","))
    except ValueError:
        raise ConfigError(
            f"{origin}: ic.modes must look like mx,my with integers, got "
            f"{raw_modes!r}{_locate(text, 'ic', 'modes')}"
        ) from None
    ic_spec.modes = (mx, my)
    raw_centers = rd.string("ic", "centers", default="0.5:0.5")
    ic_spec.centers = _parse_pairs(raw_centers, "ic", "centers", origin, text)

    t_end = rd.real("time", "t_end", required=True, lo=0.0, lo_open=True)
    dt_max = rd.real("time", "dt_max", default=1e-2, lo=0.0, lo_open=True)
    observe = rd.real("time", "observe_every", default=0.0, lo=0.0)
    observe_every = None if observe == 0.0 else observe
    tiny = TIME_RESOLUTION * t_end
    if dt_max < tiny:
        raise rd._fail("time", "dt_max",
                       f"at least {TIME_RESOLUTION:g} * t_end = {tiny:.3g}", dt_max)
    if observe_every is not None and observe_every < tiny:
        raise rd._fail("time", "observe_every",
                       f"0 or at least {TIME_RESOLUTION:g} * t_end = {tiny:.3g}", observe)

    numerics = Numerics(
        # at tol >= 1 the solve guard would accept x = 0 for every right side
        elliptic_tol=rd.real("numerics", "elliptic_tol", default=1e-10,
                             lo=0.0, hi=1.0, lo_open=True, hi_open=True),
        cfl_safety=rd.real("numerics", "cfl_safety", default=0.4,
                           lo=0.0, hi=1.0, lo_open=True),
        dt_max=dt_max,
        overflow_guard=rd.real("numerics", "overflow_guard", default=1e12,
                               lo=0.0, lo_open=True),
        g_order=rd.integer("numerics", "g_order", default=1, lo=1, hi=3),
    )
    threads = rd.integer("numerics", "threads", default=1, lo=1)

    return RunConfig(
        grid=grid,
        params=params,
        ic_spec=ic_spec,
        t_end=t_end,
        observe_every=observe_every,
        numerics=numerics,
        threads=threads,
        out_dir=rd.string("output", "dir", default="out"),
        write_fields=rd.boolean("output", "fields", default=True),
        write_svg=rd.boolean("output", "svg", default=True),
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
    grid, spec, tau = cfg.grid, cfg.ic_spec, cfg.params.tau
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
