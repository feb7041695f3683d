"""Config parsing, initial-condition presets, and the command-line entry."""

import ast
import csv
import glob
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chemohapto import (ConfigError, Grid, cli, initial_state, load_config,
                        solve_elliptic_v, solver, verify)
from chemohapto.cli import main as cli_main
from chemohapto.config import _SCHEMA, build_initial_data, build_run_config
from chemohapto.io import read_field, read_series, write_field

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_ini(tmp_path, body, name="case.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def edited(cfg, sec, key, value):
    """cfg rebuilt from its sections with one raw value replaced."""
    sections = {s: dict(kv) for s, kv in cfg.sections.items()}
    sections.setdefault(sec, {})[key] = repr(value)
    return build_run_config(sections, origin=cfg.origin)


BASE = """
[model]
chi = 1.0
xi = 0.0
tau = 0.0
kinetics = zero

[grid]
nx = 16
ny = 16

[ic]
preset = homogeneous
u_value = 1.0
w_value = 0.0

[time]
t_end = 0.1
dt_max = 5e-3

[output]
dir = {out}
"""


# ---------------------------------------------------------------- parsing


def test_bundled_config_parses_fully():
    cfg = load_config(os.path.join(CONFIGS, "logistic-tau1.ini"))
    assert cfg.grid.nx == 64 and cfg.grid.Lx == 1.0
    assert cfg.params.chi == 0.5 and cfg.params.xi == 0.25
    assert cfg.params.tau == 1.0
    assert cfg.params.kinetics.name == "logistic"
    assert cfg.params.kinetics.mu == 1.0
    assert cfg.ic.preset == "gaussian-bump"
    assert cfg.ic.mass == 2.0 and cfg.ic.width == 0.12
    assert cfg.t_end == 2.0 and cfg.observe_every == 0.05
    assert cfg.write_fields and cfg.write_svg


def test_readme_key_table_matches_the_schema():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", fh.read(), re.M)
    assert len(rows) == len(set(rows))
    assert set(rows) == {(sec, key) for sec, keys in _SCHEMA.items() for key in keys}


def test_unknown_key_reports_line_number(tmp_path):
    bad = BASE.format(out=tmp_path) + "\n[grid2]\nnx = 8\n"
    with pytest.raises(ConfigError, match=r"grid2"):
        load_config(write_ini(tmp_path, bad))
    bad = BASE.format(out=tmp_path).replace("nx = 16", "nxx = 16")
    with pytest.raises(ConfigError, match=r"nxx.*line 9"):
        load_config(write_ini(tmp_path, bad))


def test_missing_required_key(tmp_path):
    bad = BASE.format(out=tmp_path).replace("t_end = 0.1", "")
    with pytest.raises(ConfigError, match="t_end"):
        load_config(write_ini(tmp_path, bad))


def test_kinetics_param_error_names_the_key(tmp_path):
    body = BASE.format(out=tmp_path).replace(
        "kinetics = zero",
        "kinetics = sublog_pow\n\n[kinetics]\na = 1.0\nb = 1.0\ngamma = 1.5",
    )
    with pytest.raises(ConfigError, match=r"kinetics\.gamma.*\(0, 1\).*line"):
        load_config(write_ini(tmp_path, body))


def _with_kinetics(out, kind, body):
    return BASE.format(out=out).replace(
        "kinetics = zero", f"kinetics = {kind}\n\n[kinetics]\n{body}")


@pytest.mark.parametrize("kind, body, key", [
    ("logistic", "mu = {v}", "mu"),
    ("iterlog", "k = 2\nmu = {v}", "mu"),
    ("iterlog", "k = {v}\nmu = 1.0", "k"),
    ("sublog_pow", "a = {v}\nb = 1.0\ngamma = 0.5", "a"),
    ("sublog_loglog", "a = 1.0\nb = {v}", "b"),
])
def test_kinetics_values_must_be_finite_reals(tmp_path, capsys, kind, body, key):
    for value, need in (("inf", "finite"), ("nan", "finite"), ("abc", "a real number")):
        ini = write_ini(tmp_path, _with_kinetics(tmp_path, kind, body.format(v=value)))
        with pytest.raises(ConfigError, match=rf"kinetics\.{key} must be {need}.*line"):
            load_config(ini)
        # a non-finite rate used to pass and report M1 = nan as satisfied
        assert cli_main(["check", ini, "--out", str(tmp_path / "chk")]) == 2
        assert f"kinetics.{key}" in capsys.readouterr().err


def test_kinetics_range_error_names_b_not_a(tmp_path):
    body = _with_kinetics(tmp_path, "sublog_pow", "a = 1.0\nb = -1.0\ngamma = 0.5")
    with pytest.raises(ConfigError, match=r"kinetics\.b: damping coefficient b.*line 10"):
        load_config(write_ini(tmp_path, body))


@pytest.mark.parametrize("kind, body, message", [
    ("gompertz", "mu = 1.0", r"model\.kinetics must be one of \[.*\], got 'gompertz' \(line 6\)"),
    ("logistic", "", r"missing required key kinetics\.mu \(line 8\)"),
    ("logistic", "mu = 1.0\na = 2.0",
     r"kinetics 'logistic' does not take \['kinetics\.a'\] \(line 10\)"),
    ("iterlog", "k = 2.5\nmu = 1.0",
     r"kinetics\.k: log depth k must be an integer >= 1, got 2\.5 \(line 9\)"),
], ids=["unknown-kind", "missing-key", "extra-key", "fractional-k"])
def test_config_checks_the_source_kind_and_keys(tmp_path, capsys, kind, body, message):
    ini = write_ini(tmp_path, _with_kinetics(tmp_path, kind, body))
    with pytest.raises(ConfigError, match=message):
        load_config(ini)
    assert cli_main(["check", ini, "--out", str(tmp_path / "chk")]) == 2
    assert re.search(message, capsys.readouterr().err)


def test_config_reads_an_integral_real_k_as_an_int(tmp_path):
    ini = write_ini(tmp_path, _with_kinetics(tmp_path, "iterlog", "k = 2.0\nmu = 1.0"))
    k = load_config(ini).params.kinetics.k
    assert type(k) is int and k == 2
    assert cli_main(["check", ini, "--out", str(tmp_path / "chk")]) == 0


@pytest.mark.parametrize("old, new, message", [
    ("nx = 16", "nx = 3.5", "{ini}: grid.nx must be an integer, got '3.5' (line {line})"),
    ("[output]", "[output]\nfields = maybe", "{ini}: output.fields must be a boolean "
     "(1/0/true/false/yes/no), got 'maybe' (line {line})"),
    ("preset = homogeneous", "preset = gaussian-bump\ncenters = ,",
     "{ini}: ic.centers is empty (line {line})"),
    ("nx = 16", "nx 16", "config parse error in {ini}: Source contains parsing errors: "
     "'{ini}'\n\t[line {line:2d}]: 'nx 16\\n'"),
    ("dt_max = 5e-3", "dt_max = 1e-300", "{ini}: time.dt_max must be at least "
     "1e-12 * t_end = 1e-13, got 1e-300 (line {line})"),
], ids=["fractional-integer", "bad-boolean", "empty-centers", "no-equals", "dt_max-floor"])
def test_config_error_names_the_key_and_line(tmp_path, old, new, message):
    body = BASE.format(out=tmp_path / "o").replace(old, new)
    ini = write_ini(tmp_path, body)
    line = body.splitlines().index(new.split("\n")[-1]) + 1   # the edit's last row
    with pytest.raises(ConfigError) as err:
        load_config(ini)
    assert str(err.value) == message.format(ini=ini, line=line)


def test_modes_format_error(tmp_path):
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous", "preset = cosine-perturbation\nmodes = 1:1")
    with pytest.raises(ConfigError, match="modes"):
        load_config(write_ini(tmp_path, body))


@pytest.mark.parametrize("entry", ["a:0.5", "nan:0.5"])
def test_centers_entries_must_be_finite_numbers(tmp_path, entry):
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous", f"preset = gaussian-bump\ncenters = {entry}")
    with pytest.raises(ConfigError, match=r"ic\.centers.*x:y.*finite.*line"):
        load_config(write_ini(tmp_path, body))


def test_override_revalidates(tmp_path):
    cfg = load_config(write_ini(tmp_path, BASE.format(out=tmp_path)))
    hot = edited(cfg, "model", "chi", 2.5)
    assert hot.params.chi == 2.5 and cfg.params.chi == 1.0
    with pytest.raises(ConfigError):
        edited(cfg, "grid", "nx", -4)


# ---------------------------------------------------------------- presets


def test_homogeneous_preset(tmp_path):
    cfg = load_config(write_ini(tmp_path, BASE.format(out=tmp_path)))
    ic = build_initial_data(cfg)
    assert np.all(ic.u0 == 1.0) and np.all(ic.w0 == 0.0)
    assert ic.v0 is None


def test_cosine_preset_values(tmp_path, capsys):
    body = BASE.format(out=tmp_path / "cos").replace(
        "preset = homogeneous",
        "preset = cosine-perturbation\nu_base = 2.0\nu_eps = 0.5\nmodes = 2,3"
    ).replace("nx = 16\nny = 16", "nx = 16\nny = 12\nlx = 2.0\nly = 0.5")
    ini = write_ini(tmp_path, body)
    cfg = load_config(ini)
    X, Y = cfg.grid.mesh()
    expect = 2.0 + 0.5 * np.cos(2 * np.pi * X / 2.0) * np.cos(3 * np.pi * Y / 0.5)
    ic = build_initial_data(cfg)
    assert ic.u0.tobytes() == expect.tobytes()
    assert np.all(ic.w0 == 0.0)
    assert cli_main(["check", ini]) == 0
    assert "case" in capsys.readouterr().out


def _mesh_u0(cfg):
    """u0 as the presets formed it on two coordinate meshes."""
    g, spec = cfg.grid, cfg.ic
    X, Y = g.mesh()
    if spec.preset == "cosine-perturbation":
        mx, my = spec.modes
        u0 = spec.u_base + spec.u_eps * np.cos(mx * np.pi * X / g.Lx) \
            * np.cos(my * np.pi * Y / g.Ly)
    else:
        u0 = np.zeros(g.shape)
        for (cx, cy) in spec.centers:
            u0 += spec.amplitude * np.exp(
                -((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * spec.width ** 2))
    if spec.noise > 0.0:
        rng = np.random.default_rng(spec.seed)
        u0 = u0 * (1.0 + spec.noise * (2.0 * rng.random(g.shape) - 1.0))
    if spec.mass is not None:
        u0 = u0 * (spec.mass / g.integrate(u0))
    return u0


@pytest.mark.parametrize("ic, grid", [
    ("preset = gaussian-bump\ncenters = 0.3:0.6", "nx = 16\nny = 16"),
    ("preset = gaussian-bump\ncenters = 0.2:0.1, 1.5:0.4, 0.9:0.25\namplitude = 2.5\n"
     "width = 0.15\nnoise = 0.05\nseed = 3\nmass = 2.0", "nx = 24\nny = 10\nlx = 1.7\nly = 0.6"),
    ("preset = cosine-perturbation\nu_base = 2.0\nu_eps = 0.5\nmodes = 2,3\nnoise = 0.1\n"
     "mass = 3.0", "nx = 20\nny = 12\nlx = 1.3\nly = 0.7"),
], ids=["bump", "bumps-noise-mass", "cosine-noise-mass"])
def test_initial_data_matches_the_mesh_formulas_bitwise(tmp_path, ic, grid):
    # the presets read the 1-D cell centres, broadcast; a mesh gives the
    # same operations on the same operands
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous", ic).replace("nx = 16\nny = 16", grid)
    cfg = load_config(write_ini(tmp_path, body))
    u0 = build_initial_data(cfg).u0
    want = _mesh_u0(cfg)
    assert u0.shape == want.shape == cfg.grid.shape
    assert u0.tobytes() == want.tobytes()


def test_cosine_preset_rejects_negative_dip(tmp_path):
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous",
        "preset = cosine-perturbation\nu_base = 1.0\nu_eps = 1.5")
    cfg = load_config(write_ini(tmp_path, body))
    with pytest.raises(ConfigError, match="dips"):
        build_initial_data(cfg)


def test_gaussian_mass_rescale_is_exact(tmp_path):
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous",
        "preset = gaussian-bump\nmass = 3.0\nwidth = 0.1")
    cfg = load_config(write_ini(tmp_path, body))
    ic = build_initial_data(cfg)
    assert cfg.grid.integrate(ic.u0) == pytest.approx(3.0, rel=1e-14)


def test_file_preset_roundtrip(tmp_path):
    g = Grid(16, 16)
    X, Y = g.mesh()
    u = 1.0 + 0.2 * np.cos(np.pi * X)
    w = 0.3 * np.ones(g.shape)
    write_field(str(tmp_path / "u.field"), g, u)
    write_field(str(tmp_path / "w.field"), g, w)
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous",
        f"preset = file\nu0_path = {tmp_path}/u.field\nw0_path = {tmp_path}/w.field")
    ic = build_initial_data(load_config(write_ini(tmp_path, body)))
    np.testing.assert_array_equal(ic.u0, u)
    np.testing.assert_array_equal(ic.w0, w)


def test_file_preset_reads_v0_at_positive_tau(tmp_path):
    g = Grid(16, 16)
    X, Y = g.mesh()
    fields = {"u": 1.0 + 0.2 * np.cos(np.pi * X), "w": 0.3 * np.ones(g.shape),
              "v": 0.5 + 0.1 * np.cos(np.pi * Y)}
    for name, f in fields.items():
        write_field(str(tmp_path / f"{name}.field"), g, f)
    paths = "".join(f"\n{n}0_path = {tmp_path}/{n}.field" for n in fields)
    body = BASE.format(out=tmp_path).replace("tau = 0.0", "tau = 1.0")
    ic = build_initial_data(load_config(write_ini(
        tmp_path, body.replace("preset = homogeneous", "preset = file" + paths))))
    np.testing.assert_array_equal(ic.v0, fields["v"])
    no_w = body.replace("preset = homogeneous",
                        f"preset = file\nu0_path = {tmp_path}/u.field")
    with pytest.raises(ConfigError, match=r"'file' requires ic\.u0_path and ic\.w0_path"):
        build_initial_data(load_config(write_ini(tmp_path, no_w)))


def test_v_value_sets_v0_only_at_positive_tau(tmp_path):
    body = BASE.format(out=tmp_path).replace("u_value = 1.0", "u_value = 1.0\nv_value = 0.7")
    assert build_initial_data(load_config(write_ini(tmp_path, body))).v0 is None
    parabolic = body.replace("tau = 0.0", "tau = 1.0")
    v0 = build_initial_data(load_config(write_ini(tmp_path, parabolic))).v0
    assert v0.shape == (16, 16) and np.all(v0 == 0.7)


def test_noise_is_seed_deterministic(tmp_path):
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous", "preset = homogeneous\nnoise = 0.1\nseed = 7")
    cfg = load_config(write_ini(tmp_path, body))
    a = build_initial_data(cfg).u0
    b = build_initial_data(cfg).u0
    np.testing.assert_array_equal(a, b)
    other = build_initial_data(edited(cfg, "ic", "seed", 8)).u0
    assert np.any(other != a)
    assert np.min(a) >= 0.9 and np.max(a) <= 1.1


def test_parabolic_start_uses_elliptic_signal(tmp_path):
    body = BASE.format(out=tmp_path).replace("tau = 0.0", "tau = 1.0")
    cfg = load_config(write_ini(tmp_path, body))
    ic = build_initial_data(cfg)
    assert ic.v0 is None          # the equilibrium is solved when a run starts
    st = initial_state(cfg.grid, cfg.params, ic)
    expect = solve_elliptic_v(cfg.grid, ic.u0)
    assert np.array_equal(st.v, expect)


# ---------------------------------------------------------------- commands


def test_run_homogeneous_minimal(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = cli_main(["run", os.path.join(CONFIGS, "homogeneous-minimal.ini"),
                   "--out", out])
    assert rc == 0
    assert "bounded_plateau" in capsys.readouterr().out
    series = read_series(os.path.join(out, "series.csv"))
    # flat profile stays put to the last ulp of the spectral solves
    assert np.max(np.abs(series["mass"] - 1.0)) < 1e-13
    assert np.max(np.abs(series["linf_u"] - 1.0)) < 1e-13
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["run"]["status"] == "ok"
    assert rep["classification"]["label"] == "bounded_plateau"


def test_run_reports_when_the_cells_die_out(tmp_path):
    # iterlog k = 2 has f(0+) = -mu e, so its cells die out in finite time;
    # k = 1 keeps them alive
    ini = os.path.join(CONFIGS, "iterlog-tau0.ini")
    k1 = write_ini(tmp_path, open(ini).read().replace("\nk = 2 ", "\nk = 1 "))
    for path, out in ((ini, tmp_path / "k2"), (k1, tmp_path / "k1")):
        assert cli_main(["run", path, "--out", str(out)]) == 0
    k2 = json.load(open(tmp_path / "k2" / "report.json"))["run"]
    assert k2["extinct_t"] == pytest.approx(0.666, abs=1e-3)
    assert k2["final_mass"] == 0.0
    assert json.load(open(tmp_path / "k1" / "report.json"))["run"]["extinct_t"] is None


def _run_in_child(tmp_path, observe_every):
    body = BASE.format(out=tmp_path / "obs").replace(
        "t_end = 0.1", f"t_end = 0.05\nobserve_every = {observe_every}")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    try:
        return subprocess.run(
            [sys.executable, "-m", "chemohapto.cli", "run", write_ini(tmp_path, body)],
            env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail(f"run with observe_every = {observe_every} did not finish in 60 s")


def test_observe_every_finer_than_the_step_records_every_step(tmp_path):
    proc = _run_in_child(tmp_path, 1e-13)
    assert proc.returncode == 0, proc.stderr
    rep = json.load(open(tmp_path / "obs" / "report.json"))["run"]
    assert rep["records"] == rep["steps"] + 1


def test_observe_every_below_the_time_resolution_is_an_error(tmp_path):
    # rejected with the config's own key and line before any work starts,
    # so no output directory is made
    proc = _run_in_child(tmp_path, 1e-18)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "time.observe_every" in proc.stderr and "line" in proc.stderr
    assert not (tmp_path / "obs").exists()


@pytest.mark.parametrize("old, new, message", [
    ("u_value = 1.0", "u_value = 0.0\nmass = 1.0", "cannot rescale zero-mass u0"),
    ("t_end = 0.1", "t_end = 0.1\nobserve_every = 1e-18",
     r"time\.observe_every must be 0 or at least 1e-12 \* t_end = 1e-13, got 1e-18 \(line"),
], ids=["zero-mass-rescale", "observe-every-below-resolution"])
def test_check_rejects_a_config_it_cannot_use(tmp_path, capsys, old, new, message):
    out = tmp_path / "chk"
    ini = write_ini(tmp_path, BASE.format(out=out).replace(old, new))
    assert cli_main(["check", ini]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def test_run_writes_field_and_svg_artifacts(tmp_path):
    out = tmp_path / "art"
    body = BASE.format(out=out) + "fields = 1\nsvg = 1\n"
    rc = cli_main(["run", write_ini(tmp_path, body)])
    assert rc == 0
    g = Grid(16, 16)
    for name in ("u", "v", "w"):
        f = read_field(str(out / f"{name}_final.field"), g)
        assert f.shape == (16, 16)
        svg = (out / f"{name}_final.svg").read_text()
        assert svg.startswith("<svg") and "rect" in svg
    assert np.max(np.abs(read_field(str(out / "u_final.field"), g) - 1.0)) < 1e-13


def test_run_rejects_bad_config(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path / "absent.ini")]) == 2
    bad = write_ini(tmp_path, BASE.format(out=tmp_path).replace("nx = 16", "nx = 0"))
    assert cli_main(["run", bad]) == 2
    assert "nx" in capsys.readouterr().err


def test_check_writes_threshold_report(tmp_path, capsys):
    out = str(tmp_path / "chk")
    rc = cli_main(["check", os.path.join(CONFIGS, "logistic-tau1.ini"),
                   "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mu_1 = +inf" in text and "satisfied=True" in text
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["threshold"]["case"] == "threshold_inequality"
    assert rep["threshold"]["mu_r"][0] == float("inf")


@pytest.mark.parametrize("suite", ["operators", "identity", "iterlog", "loggn"])
def test_verify_suites_pass(suite, monkeypatch, capsys):
    # the real rows are asserted by acceptance criteria 1, 5, 6 and 9; here
    # only the dispatch, the printed table and the exit code are checked
    stub = verify.Row(f"{suite} stub", [1.0], "n/a", True)
    monkeypatch.setattr(verify, suite, lambda: [stub])
    assert cli_main(["verify", suite]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"suite: {suite}", verify.format_row(*stub)]
    assert lines[2].startswith("result: PASS")


def test_verify_prints_a_failing_row_and_exits_1(monkeypatch, capsys):
    failing = verify.Row("forced failure", [2.0, 0.5], "1.00", False)
    monkeypatch.setattr(verify, "iterlog", lambda: [
        verify.Row("holds", [1.0], "n/a", True), failing])
    assert cli_main(["verify", "iterlog"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("PASS") and lines[2].endswith("FAIL")
    assert lines[2] == verify.format_row(*failing)
    assert lines[3].startswith("result: FAIL")


def test_orders_maps_a_zero_error_to_inf():
    inf = float("inf")
    assert verify.orders([4.0, 1.0, 0.5]) == [2.0, 1.0]
    # exact stays exact (+inf); an error that grows from exact fails (-inf)
    assert verify.orders([1e-3, 0.0, 0.0, 1e-3]) == [inf, inf, -inf]
    assert verify.orders([0.0, 1e-3]) == [-inf]


_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
_IMPORT_THEN_LOGGN = """
import sys
import chemohapto.cli as cli
heavy = ("scipy.optimize", "scipy.linalg", "mpmath")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
code = cli.main(["verify", "loggn"])
print("mpmath" in sys.modules)
sys.exit(code)
"""


def test_cli_import_leaves_out_optimize_linalg_and_mpmath():
    """A fresh `import chemohapto.cli` loads none of the heavy modules, and
    `verify loggn` still passes by importing mpmath on first use."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_THEN_LOGGN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert lines[-1] == "True"


_FFT_ON_FIRST_SOLVE = """
import sys
loaded = lambda *names: print("loaded", *(n in sys.modules for n in names))
import chemohapto.cli as cli
loaded("scipy.fft", "multiprocessing.pool", "numpy.random")
code = cli.main(["check", sys.argv[1], "--out", sys.argv[3]])
loaded("scipy.fft")
code = code or cli.main(["run", sys.argv[2], "--out", sys.argv[4]])
loaded("scipy.fft")
sys.exit(code)
"""


def test_scipy_fft_loads_on_the_first_solve(tmp_path):
    """`import chemohapto.cli` loads neither scipy.fft nor the process pool,
    but does load numpy.random; a check with tau > 0 still makes no solve,
    and a run imports scipy.fft."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    argv = [os.path.join(CONFIGS, "logistic-tau1.ini"),
            os.path.join(CONFIGS, "homogeneous-minimal.ini"),
            str(tmp_path / "check"), str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-c", _FFT_ON_FIRST_SOLVE] + argv,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("loaded")]
    assert lines == ["loaded False False True", "loaded False", "loaded True"]


def test_check_calls_no_least_squares_routine(tmp_path, no_least_squares):
    # iterlog k = 2 and k = 3 both extrapolate a damping-rate tail
    assert cli_main(["check", os.path.join(CONFIGS, "iterlog-tau0.ini"),
                     "--out", str(tmp_path / "k2")]) == 0
    assert cli_main(["check", write_ini(tmp_path, _iterlog_k3(tmp_path / "k3"))]) == 0


_BLAS_NAMES = {"polyfit", "lstsq", "linalg", "dot", "vdot", "matmul", "tensordot",
               "inner", "outer"}


def test_source_makes_no_blas_or_lapack_call():
    # the package's array work is elementwise or a reduction; a matrix
    # product or a dense solve would load BLAS or LAPACK buffers into
    # every process that reaches it
    for path in glob.glob(os.path.join(_SRC, "chemohapto", "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(a.name for a in node.names)
                names.update((getattr(node, "module", None) or "").split("."))
            elif isinstance(getattr(node, "op", None), ast.MatMult):
                names.add("@")
        assert names & (_BLAS_NAMES | {"@"}) == set(), path


def test_sweep_single_point_matches_run(tmp_path):
    cfg = os.path.join(CONFIGS, "homogeneous-minimal.ini")
    out = str(tmp_path / "sw")
    rc = cli_main(["sweep", cfg, "--axis", "chi=1:1:1", "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert rows[0].split(",")[:2] == ["point", "chi"]
    assert len(rows) == 2
    cells = rows[1].split(",")
    assert cells[2] == "ok" and "bounded_plateau" in cells
    point = json.load(open(os.path.join(out, "point_0000", "report.json")))
    assert point["run"]["status"] == "ok"


def test_sweep_row_repeats_the_run_block_of_its_report(tmp_path):
    cfg = os.path.join(CONFIGS, "homogeneous-minimal.ini")
    out = tmp_path / "sw"
    assert cli_main(["sweep", cfg, "--axis", "chi=0.5:1:2", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["point"] for r in rows] == ["0", "1"]
    for r in rows:
        run = json.loads((out / f"point_{int(r['point']):04d}" / "report.json")
                         .read_text())["run"]
        assert r["status"] == run["status"]
        for key in ("peak_linf_u", "final_mass"):
            assert r[key] == "%.17g" % run[key]


def test_sweep_log_axis_is_geometric(tmp_path):
    out = tmp_path / "log"
    assert cli_main(["sweep", os.path.join(CONFIGS, "homogeneous-minimal.ini"),
                     "--axis", "mass=1:8:4:log", "--out", str(out)]) == 0
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # geomspace pins the ratio-2 points to exact doubles
    assert [float(r["mass"]) for r in rows] == [1.0, 2.0, 4.0, 8.0]
    assert all(r["error"] == "" for r in rows)


def test_sweep_csv_quotes_an_error_with_commas(tmp_path):
    out = tmp_path / "neg"
    assert cli_main(["sweep", os.path.join(CONFIGS, "homogeneous-minimal.ini"),
                     "--axis", "mass=-1:-1:1", "--out", str(out)]) == 0
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 10
    error = dict(zip(header, row))["error"]
    assert error.startswith("ConfigError: ")
    assert error.endswith("ic.mass must be in (0, +inf], got -1.0")


def test_sweep_mass_transition_hits_blowup(tmp_path):
    # conservative transport keeps linf below mass/cell_area, so the
    # overflow guard separates the two masses cleanly
    body = """
[model]
chi = 1.0
xi = 0.0
tau = 0.0
kinetics = zero

[grid]
nx = 64
ny = 64

[ic]
preset = gaussian-bump
width = 0.08
mass = 4.0
w_value = 0.0

[time]
t_end = 1.0
dt_max = 2e-3

[numerics]
overflow_guard = 1e4

[output]
dir = {out}
""".format(out=tmp_path / "probe")
    cfg = write_ini(tmp_path, body)
    out = str(tmp_path / "probe")
    rc = cli_main(["sweep", cfg, "--axis", "mass=4:60:2", "--out", out])
    assert rc == 0
    rows = [r.split(",") for r in
            open(os.path.join(out, "sweep.csv")).read().splitlines()[1:]]
    by_mass = {float(r[1]): r for r in rows}
    assert "bounded_plateau" in by_mass[4.0]
    assert "diverged" in by_mass[60.0]
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "diverged" in summary


def test_sweep_axis_errors(tmp_path, capsys):
    cfg = os.path.join(CONFIGS, "homogeneous-minimal.ini")
    assert cli_main(["sweep", cfg, "--axis", "bogus=1:2:2",
                     "--out", str(tmp_path / "a")]) == 2
    assert cli_main(["sweep", cfg, "--axis", "chi=1:2",
                     "--out", str(tmp_path / "b")]) == 2
    assert cli_main(["sweep", cfg, "--axis", "chi=2:1:0",
                     "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "axis" in err


# ---------------------------------------------------------------- regressions


def _iterlog_k3(out):
    return BASE.format(out=out).replace(
        "kinetics = zero", "kinetics = iterlog\n\n[kinetics]\nk = 3\nmu = 1.0")


def test_check_iterlog_k3_reports_orders_one_to_three(tmp_path, capsys):
    # order k + 1 = 4 needs samples above e^[4], which overflows a double
    out = str(tmp_path / "chk")
    rc = cli_main(["check", write_ini(tmp_path, _iterlog_k3(out))])
    assert rc == 0
    assert "mu_3 = " in capsys.readouterr().out
    rep = json.load(open(os.path.join(out, "report.json")))["threshold"]
    assert len(rep["mu_r"]) == 3
    assert abs(rep["mu_r"][2] - 1.0) <= 0.05
    assert rep["case"] == "tau0_damping"


def test_sweep_iterlog_k3_point_completes(tmp_path):
    out = str(tmp_path / "sw")
    cfg = write_ini(tmp_path, _iterlog_k3(out))
    assert cli_main(["sweep", cfg, "--axis", "k=3:3:1"]) == 0
    header, row = open(os.path.join(out, "sweep.csv")).read().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["error"] == ""
    assert cells["case"] == "tau0_damping"


def test_short_run_keeps_artifacts_and_is_unclassified(tmp_path):
    # 6 records are too few for classify_run; the run must still be reported
    out = tmp_path / "short"
    body = BASE.format(out=out).replace(
        "kinetics = zero", "kinetics = logistic\n\n[kinetics]\nmu = 1.0"
    ).replace("t_end = 0.1", "t_end = 0.1\nobserve_every = 0.02")
    cfg = write_ini(tmp_path, body)
    assert cli_main(["run", cfg]) == 0
    assert len(read_series(str(out / "series.csv"))["t"]) == 6
    rep = json.load(open(out / "report.json"))
    assert rep["classification"]["label"] == "unclassified"
    assert np.isnan(rep["classification"]["plateau"])
    assert rep["run"]["status"] == "ok"

    sweep_out = str(tmp_path / "short-sweep")
    assert cli_main(["sweep", cfg, "--axis", "chi=1:1:1", "--out", sweep_out]) == 0
    header, row = open(os.path.join(sweep_out, "sweep.csv")).read().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["error"] == "" and cells["label"] == "unclassified"


def test_report_clipped_mass_counts_unobserved_steps(tmp_path):
    # mu * dt * (u - 1) = 4.5 > 1 drives the flat state u = 10 to
    # 10 - 45 = -35 in the first step, which is not an observed one; the
    # clip removes 35 from the unit square and nothing afterwards
    out = tmp_path / "clip"
    body = BASE.format(out=out).replace(
        "kinetics = zero", "kinetics = logistic\n\n[kinetics]\nmu = 100.0"
    ).replace("u_value = 1.0", "u_value = 10.0").replace(
        "t_end = 0.1", "t_end = 0.1\nobserve_every = 0.1")
    assert cli_main(["run", write_ini(tmp_path, body)]) == 0
    series = read_series(str(out / "series.csv"))
    assert np.all(series["clipped_mass"] == 0.0)
    rep = json.load(open(out / "report.json"))
    assert rep["run"]["clipped_mass"] == pytest.approx(35.0, rel=1e-12)


def test_wide_domain_parabolic_start_is_accepted(tmp_path):
    # on a 60 x 60 domain u0 underflows to 0 far from the bump, and the
    # elliptic start signal rounds slightly below 0 there; that is the
    # program's own output, not bad input, so check and run must accept it
    body = BASE.format(out=tmp_path / "wide").replace(
        "tau = 0.0", "tau = 1.0"
    ).replace(
        "kinetics = zero", "kinetics = logistic\n\n[kinetics]\nmu = 1.0"
    ).replace(
        "nx = 16\nny = 16", "nx = 64\nny = 64\nlx = 60.0\nly = 60.0"
    ).replace(
        "preset = homogeneous\nu_value = 1.0",
        "preset = gaussian-bump\ncenters = 30:30\nwidth = 1.0\nmass = 2.0",
    ).replace("t_end = 0.1", "t_end = 0.02") + "fields = 1\n"
    cfg = write_ini(tmp_path, body)
    assert cli_main(["check", cfg, "--out", str(tmp_path / "chk")]) == 0
    assert cli_main(["run", cfg]) == 0
    u = read_field(str(tmp_path / "wide" / "u_final.field"))
    assert np.min(u) >= 0.0


def test_run_report_survives_non_finite_final_state(tmp_path, monkeypatch):
    # a diverged run returns a non-finite final state; the heatmaps are
    # written before report.json and must not crash on it
    import chemohapto.cli as cli

    real_run = cli.run

    def diverging_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        result.final.u[3, 4] = np.nan
        result.final.v[0, 0] = np.inf
        result.status = result.final.status = "diverged"
        result.diverged_t = result.final.t
        return result

    monkeypatch.setattr(cli, "run", diverging_run)
    out = tmp_path / "nan"
    body = BASE.format(out=out) + "fields = 1\nsvg = 1\n"
    assert cli_main(["run", write_ini(tmp_path, body)]) == 0
    rep = json.load(open(out / "report.json"))
    assert rep["run"]["status"] == "diverged"
    assert 'fill="#ff0000"' in (out / "u_final.svg").read_text()


# ---------------------------------------------------------------- allocator and workers


def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="the malloc thresholds are glibc's")
def test_keep_freed_buffers_stops_step_page_faults():
    resource = pytest.importorskip("resource")
    from chemohapto import (InitialData, LogisticKinetics, ModelParams, Numerics,
                            initial_state, step)
    cli._keep_freed_buffers()
    g = Grid(256, 256)
    X, Y = g.mesh()
    u0 = 1.0 + np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.02)
    w0 = np.full(g.shape, 0.5)
    ic = InitialData(u0=u0, w0=w0, v0=u0.copy())
    params = ModelParams(chi=1.0, xi=0.5, tau=1.0, kinetics=LogisticKinetics(1.0))
    num = Numerics()
    st = initial_state(g, params, ic)
    for _ in range(10):
        st = step(g, st, params, 1e-4, num)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(40):
        st = step(g, st, params, 1e-4, num)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40
    # without the helper every step faults its temporaries back in (~800 here)
    assert per_step < g.nx * g.ny * 8 / resource.getpagesize()


@pytest.mark.parametrize("libc", ["unsupported", "absent", "musl", "none"])
def test_keep_freed_buffers_is_a_noop_off_glibc(monkeypatch, libc):
    def confstr(name):
        if libc == "unsupported":
            raise ValueError("unrecognized configuration name")
        return None if libc == "none" else "musl 1.2.4"

    def no_libc(*args, **kwargs):
        raise AssertionError("mallopt looked up off glibc")

    if libc == "absent":
        monkeypatch.delattr(os, "confstr")
    else:
        monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert cli._keep_freed_buffers() is None


def test_keep_freed_buffers_twice_is_harmless(tmp_path):
    cli._keep_freed_buffers()
    cli._keep_freed_buffers()
    cfg = os.path.join(CONFIGS, "homogeneous-minimal.ini")
    assert cli_main(["run", cfg, "--out", str(tmp_path / "run")]) == 0
    mass = read_series(str(tmp_path / "run" / "series.csv"))["mass"]
    assert np.max(np.abs(mass - 1.0)) < 1e-12


class _FakePool:
    """Stands in for multiprocessing.Pool: records its arguments, runs serially."""

    made = []

    def __init__(self, processes=None, initializer=None):
        _FakePool.made.append((processes, initializer))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_starts_at_most_one_worker_per_point(tmp_path, monkeypatch):
    monkeypatch.setattr(_FakePool, "made", [])
    monkeypatch.setattr(multiprocessing, "Pool", _FakePool)
    cfg = os.path.join(CONFIGS, "homogeneous-minimal.ini")
    out = tmp_path / "sw"
    rc = cli_main(["sweep", cfg, "--axis", "chi=0.5:1:2", "--threads", "8",
                   "--out", str(out)])
    assert rc == 0
    assert _FakePool.made == [(2, cli._keep_freed_buffers)]
    assert "(2 threads)" in (out / "summary.txt").read_text()
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_rejected(tmp_path, monkeypatch, capsys, command, threads):
    monkeypatch.setattr(multiprocessing, "Pool", None)      # no worker may be started
    cfg = os.path.join(CONFIGS, "homogeneous-minimal.ini")
    argv = [command, cfg, "--threads", threads, "--out", str(tmp_path / "o")]
    if command == "sweep":
        argv += ["--axis", "chi=0.5:1:2"]
        assert cli_main(argv) == 2
        assert f"--threads must be an integer >= 1, got {threads}" in capsys.readouterr().err
    else:
        # --threads is a sweep flag: run and check reject it as a usage error
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_threads_is_a_sweep_only_flag(tmp_path, capsys, command):
    argv = [command, os.path.join(CONFIGS, "homogeneous-minimal.ini"),
            "--threads", "2", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("axis", ["chi=0:1:abc", "chi=x:1:3", "chi=0:1:2.5",
                                  "chi=nan:1:2", "chi=0:inf:2", "k=1:inf:3:log",
                                  "chi=0:1:10001", "k=1:3:20001", "chi",
                                  "mass=0:8:4:log", "mass=1:-8:4:log"])
def test_malformed_axis_numbers_are_rejected(tmp_path, monkeypatch, capsys, axis):
    monkeypatch.setattr(multiprocessing, "Pool", None)
    cfg = os.path.join(CONFIGS, "homogeneous-minimal.ini")
    assert cli_main(["sweep", cfg, "--axis", axis, "--out", str(tmp_path / "o")]) == 2
    assert f"error: bad --axis {axis!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("axes, message", [
    ([], "sweep needs at least one --axis"),
    (["chi=0:1:2", "chi=1:2:2"], "duplicate sweep axes in ['chi', 'chi']"),
    (["chi=0:1:101", "mass=1:2:100"], "sweep has 10100 points, limit is 10000"),
], ids=["none", "duplicate", "too-many-points"])
def test_sweep_axis_set_errors(tmp_path, monkeypatch, capsys, axes, message):
    monkeypatch.setattr(multiprocessing, "Pool", None)
    argv = ["sweep", os.path.join(CONFIGS, "homogeneous-minimal.ini"),
            "--out", str(tmp_path / "o")]
    for axis in axes:
        argv += ["--axis", axis]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
def test_unusable_out_path_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(multiprocessing, "Pool", None)      # no worker may be started
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [command, os.path.join(CONFIGS, "homogeneous-minimal.ini"),
            "--out", str(taken)]
    if command == "sweep":
        argv += ["--axis", "chi=0.5:1:2"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "mu_1" not in captured.out           # check prints nothing first
    assert taken.read_text() == ""


def _failing_run(*args, **kwargs):
    raise RuntimeError("spectral Helmholtz solve missed the residual target")


def test_run_solver_error_exits_1_with_a_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run", _failing_run)
    out = tmp_path / "se"
    assert cli_main(["run", os.path.join(CONFIGS, "homogeneous-minimal.ini"),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: solver failed: spectral Helmholtz solve missed the residual target\n")
    rep = json.load(open(out / "report.json"))
    assert rep["run"] == {"status": "solver_error",
                          "error": "spectral Helmholtz solve missed the residual target"}


def test_sweep_point_solver_error_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run", _failing_run)
    out = tmp_path / "sw"
    assert cli_main(["sweep", os.path.join(CONFIGS, "homogeneous-minimal.ini"),
                     "--axis", "chi=1:1:1", "--threads", "1",
                     "--out", str(out)]) == 0
    rep = json.load(open(out / "point_0000" / "report.json"))
    assert rep["run"]["status"] == "solver_error"
    header, row = (out / "sweep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["error"].startswith("RuntimeError:")


def test_run_whose_cfl_step_vanishes_stops_at_its_step_budget(tmp_path, capsys):
    # chi = 1e150 puts the CFL step near 1e-150, so t_end = 1e-3 is out of
    # reach: the run stops after STEP_FACTOR * ceil(t_end / dt_max) steps
    # with a solver_error report, and the sweep point with an error cell
    body = BASE.format(out=tmp_path / "runaway").replace("chi = 1.0", "chi = 1e150") \
        .replace("nx = 16\nny = 16", "nx = 8\nny = 8") \
        .replace("preset = homogeneous\nu_value = 1.0\nw_value = 0.0",
                 "preset = gaussian-bump").replace("t_end = 0.1", "t_end = 1e-3")
    ini = write_ini(tmp_path, body)
    message = f"run reached its budget of {solver.STEP_FACTOR} steps at t = "
    assert cli_main(["run", ini]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed: " + message), err
    assert "Traceback" not in err and err.count("\n") == 1
    rep = json.load(open(tmp_path / "runaway" / "report.json"))
    assert rep["run"]["status"] == "solver_error"
    assert rep["run"]["error"].startswith(message)
    assert rep["run"]["error"].endswith("short of t_end = 0.001")
    assert "," not in rep["run"]["error"]       # it fills one sweep.csv cell

    assert cli_main(["sweep", ini, "--axis", "chi=1e150:1e150:1", "--threads", "1",
                     "--out", str(tmp_path / "sw")]) == 0
    with open(tmp_path / "sw" / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "error"
    assert row["error"] == "RuntimeError: " + rep["run"]["error"]


# ------------------------------------------- config-time and condition limits


def _far_peak(tmp_path, out):
    """A config whose source's envelope peaks beyond the bracket search in s."""
    return write_ini(tmp_path, _with_kinetics(out, "sublog_pow",
                                              "a = 1e70\nb = 1.0\ngamma = 0.5"))


@pytest.mark.parametrize("command", ["check", "run"])
def test_mass_cap_past_the_bracket_limit_is_an_error(tmp_path, capsys, command):
    # no cap is reported, and nothing is written
    out = tmp_path / "far"
    assert cli_main([command, _far_peak(tmp_path, out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1e60" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("side", ["1e200", "1e-200"])
def test_check_rejects_sides_whose_area_overflows_or_underflows(tmp_path, capsys, side):
    # at 1e200 check used to exit 0 with u0 mass inf and C_GN nan in its
    # report; at 1e-200 it failed late, in the mass cap
    out = tmp_path / "area"
    ini = write_ini(tmp_path, _with_kinetics(out, "logistic", "mu = 1.0").replace(
        "tau = 0.0", "tau = 1.0").replace(
        "nx = 16\nny = 16", f"nx = 8\nny = 8\nlx = {side}\nly = {side}"))
    assert cli_main(["check", ini]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: Lx and Ly must give a finite, positive area and cell area, "
                   f"got Lx={float(side)}, Ly={float(side)}\n")
    assert not out.exists()


@pytest.mark.parametrize("side, code", [("1e154", 2), ("1e153", 0)])
def test_check_on_a_domain_near_the_float_range_prints_no_warnings(tmp_path, capsys,
                                                                  side, code):
    # at 1e154 check used to exit 0 with C_GN = inf and rhs 0 in its report,
    # after numpy overflow warnings from Grid.norm and from a bump's exponent
    with open(os.path.join(CONFIGS, "homogeneous-minimal.ini")) as fh:
        text = fh.read()
    out = tmp_path / "huge"
    ini = write_ini(tmp_path, text.replace("[grid]\n", f"[grid]\nlx = {side}\nly = {side}\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["check", ini, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == ("error: C_GN's test fields overflow a double on the "
                       "1e+154 x 1e+154 domain\n")
        assert not out.exists()
    else:
        assert err == ""
        rep = json.loads((out / "report.json").read_text())["threshold"]
        assert rep["cgn"] == 1.7888543819998322e-76 and rep["m1"] == 1e306


@pytest.mark.parametrize("kind, body, grid, code", [
    ("logistic", "mu = 1e300", "nx = 8\nny = 8", 0),
    ("sublog_loglog", "a = 1e300\nb = 0.3", "nx = 8\nny = 8\nlx = 1e100", 2),
], ids=["logistic-mu1e300", "loglog-a1e300"])
def test_check_on_extreme_sources_prints_no_warnings(tmp_path, capsys, kind, body,
                                                     grid, code):
    # the samples of the damping rates and of the mass cap's bracket overflow
    # to inf and nan; the estimators read those as their answer, so the
    # verdict needs no floating-point warning on stderr
    out = tmp_path / "extreme"
    ini = write_ini(tmp_path, _with_kinetics(out, kind, body).replace(
        "nx = 16\nny = 16", grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["check", ini]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        rep = json.loads((out / "report.json").read_text())["threshold"]
        # every rate diverges, and M1 = u0_mass + |Omega| sup(f + eta s) / eta
        # at eta = mu is the closed form 1 + 1 (plus the sup's 1e-9 inflation)
        assert rep["mu_r"] == [math.inf] * 3
        assert rep["m1"] == 2.000000001 and rep["case"] == "tau0_damping"
    else:
        assert err.startswith("error: mass cap") and err.count("\n") == 1
        assert not out.exists()


def test_sweep_records_a_mass_cap_past_the_bracket_limit(tmp_path):
    out = tmp_path / "far"
    assert cli_main(["sweep", _far_peak(tmp_path, out),
                     "--axis", "chi=0.5:1:2", "--threads", "1"]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["error"].startswith("ValueError: mass cap") and "1e60" in cells["error"]
    assert not (out / "point_0000").exists()


@pytest.mark.parametrize("old, new, key", [
    ("[output]", "[numerics]\nelliptic_tol = 1\n\n[output]", "numerics.elliptic_tol"),
    ("dt_max = 5e-3", "dt_max = 1e-300", "time.dt_max"),
    ("[output]", "[numerics]\ncfl_safety = 1e-300\n\n[output]", "numerics.cfl_safety"),
    ("[output]", "[numerics]\ng_order = 1\n\n[output]", "numerics.g_order"),
], ids=["elliptic_tol", "dt_max", "cfl_safety", "g_order"])
def test_numerics_limits_are_config_errors(tmp_path, capsys, old, new, key):
    # a dt_max below the time resolution asks for more than 1e12 steps; the
    # solve tolerance, the Courant number and the g_m order are constants,
    # not keys, so a config that sets elliptic_tol, cfl_safety or g_order
    # fails before any work
    out = tmp_path / "lim"
    ini = write_ini(tmp_path, BASE.format(out=out).replace(old, new))
    with pytest.raises(ConfigError, match=rf"{key}.*line"):
        load_config(ini)
    for command in ("check", "run"):
        assert cli_main([command, ini]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["elliptic_tol = 1e-10", "threads = 2"])
def test_removed_numerics_keys_are_unknown(tmp_path, capsys, line):
    # the solve tolerance is solver.ELLIPTIC_TOL and the worker count is
    # sweep's --threads; a config that still sets either names its line
    text = open(os.path.join(CONFIGS, "logistic-tau1.ini"), encoding="utf-8").read()
    out = tmp_path / "gone"
    text = text.replace("[numerics]\n", f"[numerics]\n{line}\n").replace(
        "dir = out/logistic-tau1", f"dir = {out}")
    ini = write_ini(tmp_path, text)
    where = f"unknown key numerics.{line.split(' =')[0]} " \
            f"(line {text.splitlines().index(line) + 1})"
    for command in ("check", "run"):
        assert cli_main([command, ini]) == 2
        assert where in capsys.readouterr().err
    assert not out.exists()
