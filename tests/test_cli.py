"""End-to-end checks of the command line interface and config validation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonlocal_pme
from nonlocal_pme import ConfigError, cli, load_experiment, main, read_frames_binary

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "experiment.json"


def base_config(**overrides):
    config = {
        "grid": {"dims": 1, "points": 64, "halfwidth": 8.0},
        "measure": {"kind": "fractional", "alpha": 1.0},
        "truncation": {"r": 0.25, "tail_cutoff": 4.0},
        "nonlinearity": {"kind": "pme", "m": 2.0, "n": 2},
        "time": {"T": 0.1, "theta": 0.4},
        "initial": {"kind": "gaussian", "params": {"amplitude": 1.0, "width": 1.0}},
        "checks": ["operator", "energy"],
        "output": {"formats": ["csv", "json"]},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def test_load_experiment_happy_path(tmp_path):
    exp = load_experiment(write_config(tmp_path, base_config()))
    assert exp.solver.grid.points_per_axis == 64
    assert exp.solver.nonlinearity.mollification_index == 2
    assert exp.solver.duration == 0.1
    assert exp.solver.dt is None
    assert exp.checks == ("operator", "energy")


@pytest.mark.parametrize(
    "mutation",
    [
        {"extra_section": {}},
        {"grid": {"dims": 1, "points": 64, "halfwidth": 8.0, "shape": "round"}},
        {"grid": {"dims": 1, "points": 64}},
        {"measure": {"kind": "mystery"}},
        {"measure": {"kind": "fractional"}},
        {"nonlinearity": {"kind": "pme", "m": 2.0, "a": 1.0}},
        {"nonlinearity": {"kind": "linear", "knots": [0, 1]}},
        {"time": {"T": -1.0}},
        {"time": {"T": 1.0, "theta": 1.5}},
        {"initial": {"kind": "wavelet"}},
        {"initial": {"kind": "gaussian", "params": {"width": 1.0, "sigma": 2.0}}},
        {"checks": ["operator", "mystery-suite"]},
        {"output": {"formats": ["yaml"]}},
        {"refinement": {"r": [0.5, 0.25, 0.125]}},
        {"time": {"T": 0.1, "theta": [0.5]}},
        {"time": {"T": 10**400}},
        {"initial": {"kind": "gaussian", "params": {"amplitude": [1]}}},
        {"initial": {"kind": "gaussian", "params": {"center": [{}]}}},
        {"initial": {"kind": "gaussian", "params": {"width": True}}},
        {"nonlinearity": {"kind": "table", "knots": [[0], 1], "values": [0, 1]}},
        {"nonlinearity": {"kind": "table", "knots": [0, 1], "values": [0, "1"]}},
        {"measure": {"kind": "atomic", "atoms": [[[{}], 1.0]]}},
    ],
)
def test_bad_configs_are_rejected(tmp_path, mutation):
    with pytest.raises(ConfigError):
        load_experiment(write_config(tmp_path, base_config(**mutation)))


def test_loading_a_config_does_not_import_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle.
    package_root = str(Path(nonlocal_pme.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from nonlocal_pme.cli import load_experiment\n"
        f"load_experiment({str(DEMO_CONFIG)!r})\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.strip() == "[]"


def test_package_exports_are_sorted_unique_and_resolve():
    names = nonlocal_pme.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(nonlocal_pme, name)] == []


def test_running_the_package_as_a_module_is_warning_free():
    package_root = str(Path(nonlocal_pme.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nonlocal_pme", "--help"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert "simulate" in result.stdout


def test_simulate_writes_requested_formats(tmp_path):
    config = base_config(output={"formats": ["csv", "json", "binary"]})
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "frames.bin").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["violation_flags"] == []


def test_simulate_runs_an_atomic_measure(tmp_path):
    config = json.loads(DEMO_CONFIG.read_text())
    config["measure"] = {
        "kind": "atomic",
        "atoms": [[[1.0], 0.5], [[-1.0], 0.5], [[2.0], 0.25], [[-2.0], 0.25]],
    }
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "summary.json").read_text())
    # the spec stores its atoms sorted by location
    atoms = sorted(config["measure"]["atoms"])
    assert payload["config"]["measure"] == {"kind": "atomic", "atoms": atoms}
    assert payload["violation_flags"] == []


def test_simulate_is_bit_deterministic(tmp_path):
    config = base_config(output={"formats": ["binary", "json"]})
    path = write_config(tmp_path, config)
    main(["simulate", "--config", path, "--out", str(tmp_path / "a"), "--quiet"])
    main(["simulate", "--config", path, "--out", str(tmp_path / "b"), "--quiet"])
    assert (tmp_path / "a/frames.bin").read_bytes() == (tmp_path / "b/frames.bin").read_bytes()
    assert (tmp_path / "a/summary.json").read_text() == (tmp_path / "b/summary.json").read_text()


def test_simulate_rejects_nonintegrable_order(tmp_path, capsys):
    config = base_config(measure={"kind": "fractional", "alpha": 2.5})
    assert main(["simulate", "--config", write_config(tmp_path, config), "--quiet"]) == 2
    assert "integrability" in capsys.readouterr().err


def test_simulate_rejects_oversized_step_with_the_bound(tmp_path, capsys):
    config = base_config(time={"T": 0.1, "dt": 0.5, "theta": 0.4})
    assert main(["simulate", "--config", write_config(tmp_path, config), "--quiet"]) == 2
    assert "monotonicity bound" in capsys.readouterr().err


def test_verify_runs_configured_suites(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "reports"
    assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
    for name in ("operator", "energy"):
        report = json.loads((out / f"verify_{name}.json").read_text())
        assert report["ok"] is True
        assert report["seed"] == 0


def test_verify_unknown_suite_is_a_usage_error(tmp_path):
    path = write_config(tmp_path, base_config())
    assert main(["verify", "--config", path, "--suite", "mystery", "--quiet"]) == 2


def test_verify_reports_failures_with_exit_one(tmp_path, capsys):
    # at this coarse resolution the two seminorm routes genuinely disagree
    # by more than 1%, which the suite must report as a failed check
    config = base_config(
        grid={"dims": 1, "points": 128, "halfwidth": 8.0},
        checks=["sobolev"],
    )
    path = write_config(tmp_path, config)
    out = tmp_path / "reports"
    assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "verify_sobolev.json").read_text())
    assert report["ok"] is False
    assert "disagree" in capsys.readouterr().err


def test_verify_seed_changes_the_report(tmp_path):
    path = write_config(tmp_path, base_config(checks=["operator"]))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["verify", "--config", path, "--out", str(out_a), "--seed", "1", "--quiet"])
    main(["verify", "--config", path, "--out", str(out_b), "--seed", "2", "--quiet"])
    rep_a = json.loads((out_a / "verify_operator.json").read_text())
    rep_b = json.loads((out_b / "verify_operator.json").read_text())
    assert rep_a["seed"] == 1 and rep_b["seed"] == 2
    assert rep_a["scale"] != rep_b["scale"]


def test_a_flipped_symbol_fails_the_operator_suite(tmp_path, monkeypatch, capsys):
    # the scheme steps with the FFT route; a symbol of the wrong sign leaves
    # the stencil's identities intact, and only the spectral defect sees it
    path = write_config(tmp_path, base_config(checks=["operator"]))
    out = tmp_path / "reports"
    assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "verify_operator.json").read_text())
    assert report["spectral_defect"] <= report["spectral_tolerance"] == 1e-12

    atomize = cli._atomize

    def flipped(config):
        atoms = atomize(config)
        atoms.__dict__["symbol"] = -atoms.symbol
        return atoms

    monkeypatch.setattr(cli, "_atomize", flipped)
    assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 1
    report = json.loads((out / "verify_operator.json").read_text())
    assert report["ok"] is False
    assert report["spectral_defect"] > 1.0
    assert report["failures"] == [
        f"spectral route defect {report['spectral_defect']:.3e} exceeds 1.000e-12"
    ]
    assert "spectral route defect" in capsys.readouterr().err


def test_convergence_table_and_report(tmp_path):
    config = base_config(
        grid={"dims": 1, "points": 128, "halfwidth": 8.0},
        truncation={"r": 0.5, "tail_cutoff": 4.0},
        refinement={"r": [0.5, 0.25, 0.125], "n": [1, 2, 4]},
    )
    path = write_config(tmp_path, config)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "convergence.json").read_text())
    assert report["decreasing"] is True
    assert len(report["sup_ball_l1_differences"]) == 2


def test_convergence_without_refinement_is_a_usage_error(tmp_path, capsys):
    assert main(["convergence", "--config", write_config(tmp_path, base_config()), "--quiet"]) == 2
    assert "refinement" in capsys.readouterr().err


@pytest.mark.parametrize(
    "refinement", [{"r": 0.5, "n": [1, 2, 3]}, {"r": [0.5, 0.25, 0.125], "n": 3}]
)
def test_refinement_entries_must_be_lists(tmp_path, capsys, refinement):
    path = write_config(tmp_path, base_config(refinement=refinement))
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "refinement needs both r and n lists" in capsys.readouterr().err


def test_convergence_needs_three_levels(tmp_path):
    config = base_config(refinement={"r": [0.5, 0.25], "n": [1, 2]})
    assert main(["convergence", "--config", write_config(tmp_path, config), "--quiet"]) == 2


def test_linear_convergence_reports_spectral_comparison(tmp_path):
    config = base_config(
        grid={"dims": 1, "points": 128, "halfwidth": 8.0},
        nonlinearity={"kind": "linear"},
        truncation={"r": 0.5, "tail_cutoff": 4.0},
        refinement={"r": [0.5, 0.25, 0.125], "n": [0, 1, 2]},
    )
    path = write_config(tmp_path, config)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "convergence.json").read_text())
    assert "untruncated_spectral_sup_error" in report
    assert report["untruncated_spectral_sup_error"] > 0.0


def test_initial_box_profile(tmp_path):
    config = base_config(initial={"kind": "box", "params": {"amplitude": 2.0, "radius": 1.0}})
    exp = load_experiment(write_config(tmp_path, config))
    values = exp.solver.initial.values
    assert set(np.unique(values)) == {0.0, 2.0}
    coords = exp.solver.grid.coordinates()[:, 0]
    np.testing.assert_array_equal(values > 0, np.abs(coords) <= 1.0)


def test_initial_two_bumps_profile(tmp_path):
    params = {"amplitude": 1.0, "width": 1.0, "separation": 4.0}
    config = base_config(initial={"kind": "two_bumps", "params": params})
    exp = load_experiment(write_config(tmp_path, config))
    values = exp.solver.initial.values
    # peak sits between nodes, so the sampled max lands just under the amplitude
    assert 0.9 < np.max(values) <= 1.0 + 1e-12
    assert np.min(values) >= 0.0
    np.testing.assert_allclose(values, values[::-1], atol=1e-15)


def test_initial_from_npy_file(tmp_path):
    values = np.linspace(0.0, 1.0, 64)
    np.save(tmp_path / "start.npy", values)
    config = base_config(initial={"kind": "file", "params": {"path": "start.npy"}})
    exp = load_experiment(write_config(tmp_path, config))
    np.testing.assert_array_equal(exp.solver.initial.values, values)


def test_initial_from_frames_file_takes_the_last_frame(tmp_path):
    config = base_config(output={"formats": ["binary"]})
    path = write_config(tmp_path, config)
    out = tmp_path / "warmup"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    _, _, frames = read_frames_binary(out / "frames.bin")

    restart = base_config(
        initial={"kind": "file", "params": {"path": str(out / "frames.bin")}}
    )
    exp = load_experiment(write_config(tmp_path, restart, name="restart.json"))
    np.testing.assert_array_equal(exp.solver.initial.values, frames[-1])


@pytest.mark.parametrize("broken", ["other-grid", "short-record"])
def test_initial_frames_file_with_a_broken_record_is_a_usage_error(tmp_path, capsys, broken):
    def record(dims, points, t, values):
        return (np.array([dims, points], dtype="<i8").tobytes()
                + np.array([8.0, t], dtype="<f8").tobytes() + values.astype("<f8").tobytes())

    first = record(1, 64, 0.0, np.zeros(64))
    # The 8x8 record holds 64 values too: before the header check its data
    # started the 64-point run as the file's last frame.
    second = record(2, 8, 0.1, np.ones(64)) if broken == "other-grid" else first[:-8]
    (tmp_path / "frames.bin").write_bytes(first + second)
    config = base_config(initial={"kind": "file", "params": {"path": "frames.bin"}})
    path = write_config(tmp_path, config)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: frame record 1 ")


def test_verify_runs_the_companion_suites_at_smoothing_index_at_least_one(tmp_path):
    suites = ("stroock-varopoulos", "oleinik")
    reports = {}
    for n in (None, 1, 2):
        nonlinearity = {"kind": "pme", "m": 2.0, **({} if n is None else {"n": n})}
        config = base_config(nonlinearity=nonlinearity, checks=list(suites))
        path = write_config(tmp_path, config, name=f"n{n}.json")
        out = tmp_path / f"n{n}"
        assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["mollification_index"] == (0 if n is None else n)
        reports[n] = [(out / f"verify_{name}.json").read_text() for name in suites]
    # n omitted is the raw flux, n = 0; both suites run it at n = 1.
    assert reports[None] == reports[1]
    assert all(one != two for one, two in zip(reports[1], reports[2]))
