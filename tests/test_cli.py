"""Config parsing, initial-condition presets, and the command-line entry."""

import json
import os

import numpy as np
import pytest

from chemohapto import ConfigError, Grid, load_config, solve_elliptic_v
from chemohapto.cli import main as cli_main
from chemohapto.config import build_initial_data, override
from chemohapto.io import read_field, read_series, write_field

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_ini(tmp_path, body, name="case.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


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
    assert cfg.ic_spec.preset == "gaussian-bump"
    assert cfg.ic_spec.mass == 2.0 and cfg.ic_spec.width == 0.12
    assert cfg.t_end == 2.0 and cfg.observe_every == 0.05
    assert cfg.write_fields and cfg.write_svg


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


def test_modes_format_error(tmp_path):
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous", "preset = cosine-perturbation\nmodes = 1:1")
    with pytest.raises(ConfigError, match="modes"):
        load_config(write_ini(tmp_path, body))


def test_override_revalidates(tmp_path):
    cfg = load_config(write_ini(tmp_path, BASE.format(out=tmp_path)))
    hot = override(cfg, "model", "chi", 2.5)
    assert hot.params.chi == 2.5 and cfg.params.chi == 1.0
    with pytest.raises(ConfigError):
        override(cfg, "grid", "nx", -4)


# ---------------------------------------------------------------- presets


def test_homogeneous_preset(tmp_path):
    cfg = load_config(write_ini(tmp_path, BASE.format(out=tmp_path)))
    ic = build_initial_data(cfg)
    assert np.all(ic.u0 == 1.0) and np.all(ic.w0 == 0.0)
    assert ic.v0 is None


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


def test_noise_is_seed_deterministic(tmp_path):
    body = BASE.format(out=tmp_path).replace(
        "preset = homogeneous", "preset = homogeneous\nnoise = 0.1\nseed = 7")
    cfg = load_config(write_ini(tmp_path, body))
    a = build_initial_data(cfg).u0
    b = build_initial_data(cfg).u0
    np.testing.assert_array_equal(a, b)
    other = build_initial_data(override(cfg, "ic", "seed", 8)).u0
    assert np.any(other != a)
    assert np.min(a) >= 0.9 and np.max(a) <= 1.1


def test_parabolic_start_uses_elliptic_signal(tmp_path):
    body = BASE.format(out=tmp_path).replace("tau = 0.0", "tau = 1.0")
    cfg = load_config(write_ini(tmp_path, body))
    ic = build_initial_data(cfg)
    expect = solve_elliptic_v(cfg.grid, ic.u0)
    np.testing.assert_allclose(ic.v0, expect, atol=1e-12)


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
def test_verify_suites_pass(suite, capsys):
    assert cli_main(["verify", suite]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text and "PASS" in text


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
