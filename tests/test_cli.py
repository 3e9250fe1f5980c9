"""Config loading and writing, and the three CLI subcommands (exit codes,
files, flags)."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import caponshape
from caponshape import evaluation
from caponshape.beamformers import BeamformerKind, BeamformerSpec, WeightVector
from caponshape.cli import _method, _method_doc, _scenario, _scenario_doc, load_run_config, main
from caponshape.solver import NumericalError, SolverOptions, SolverStatus

SMALL_SCENARIO = {
    "geometry": {"num_sensors": 4, "spacing_ratio": 0.5},
    "soi": {"doa_deg": 0.0, "power_db": 10.0},
    "interferers": [{"doa_deg": 40.0, "power_db": 20.0}],
    "noise_power_db": 0.0,
    "num_snapshots": 32,
    "presumed_doa_deg": 0.0,
    "seed": 11,
}


def write_config(tmp_path, **overrides):
    doc = {
        "scenario": SMALL_SCENARIO,
        "b": 5,
        "methods": [{"kind": "capon"}, {"kind": "sparse", "gamma": 0.1}],
        "output_dir": str(tmp_path / "out"),
        "trials": 2,
        "mismatch_list": [0.0],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_load_run_config_packaged_defaults():
    config = load_run_config()
    assert config.scenario.geometry.num_sensors == 8
    assert config.scenario.seed == 7
    assert config.trials == 1000
    assert config.mismatch_list == (0.0, 3.0)
    assert config.b == 15
    assert config.output_dir == "out"
    kinds = [m.kind.value for m in config.methods]
    assert kinds == ["capon", "sparse", "weighted_sparse", "mixed_norm", "tvm_sparse", "mspr_relaxed"]


def test_load_run_config_flags_beat_file(tmp_path):
    path = write_config(tmp_path)
    config = load_run_config(str(path), out_dir="elsewhere", trials=7,
                             mismatch_csv=" 0.5 , 2.0 ", seed=123)
    assert config.output_dir == "elsewhere"
    assert config.trials == 7
    assert config.mismatch_list == (0.5, 2.0)
    assert config.scenario.seed == 123


def test_load_run_config_rejects_malformed_content(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("not json{")
    with pytest.raises(ValueError):
        load_run_config(str(bad_json))

    not_object = tmp_path / "list.json"
    not_object.write_text("[]")
    with pytest.raises(ValueError):
        load_run_config(str(not_object))

    with pytest.raises(ValueError):
        load_run_config(str(write_config(tmp_path, methods=[])))

    with pytest.raises(ValueError):
        load_run_config(str(write_config(tmp_path)), mismatch_csv=",")


def test_scenario_round_trip(scenario):
    doc = _scenario_doc(scenario)
    back = _scenario(doc)
    assert back == scenario
    assert _scenario_doc(back) == doc


def test_scenario_reports_missing_keys():
    with pytest.raises(ValueError, match="'scenario.soi'"):
        _scenario({"geometry": {"num_sensors": 4, "spacing_ratio": 0.5}})


def test_beamformer_spec_json_round_trip():
    specs = [
        BeamformerSpec(BeamformerKind.CAPON),
        BeamformerSpec(BeamformerKind.SPARSE),
        BeamformerSpec(BeamformerKind.WEIGHTED_SPARSE, gamma=0.5),
        BeamformerSpec(BeamformerKind.MIXED_NORM, gamma=1.0, b=10),
        BeamformerSpec(BeamformerKind.TVM_SPARSE, gamma=0.1, tv_orders=3),
        BeamformerSpec(BeamformerKind.MSPR_RELAXED, gamma=0.02, b=12),
    ]
    for spec in specs:
        assert _method(json.loads(json.dumps(_method_doc(spec))), "methods[0]") == spec
    assert _method_doc(BeamformerSpec(BeamformerKind.SPARSE))["gamma"] == "auto"
    # the kind is case-insensitive, and a JSON integer is a number
    assert _method({"kind": "SPARSE", "gamma": 1}, "methods[0]") == BeamformerSpec(BeamformerKind.SPARSE, 1.0)


def test_method_entry_errors():
    cases = [({}, "'methods[0].kind'"), ({"kind": "unknown"}, "methods[0].kind"), ({"kind": 5}, "methods[0].kind")]
    # numeric strings and booleans are not numbers
    cases += [({"kind": "sparse", "gamma": bad}, "methods[0].gamma")
              for bad in ("widest", "nan", "inf", "0.5", True, None, math.nan, math.inf)]
    cases += [({"kind": "mixed_norm", "gamma": 0.1, "b": 3.0}, "methods[0].b"),
              ({"kind": "tvm_sparse", "gamma": 0.1, "tv_orders": "2"}, "methods[0].tv_orders"),
              (5, "methods[0] must be an object")]
    for doc, key in cases:
        with pytest.raises(ValueError, match=re.escape(key)):
            _method(doc, "methods[0]")


# one malformed field per config; each names the key it breaks
MALFORMED = {
    "b": {"b": 15.7},
    "trials": {"trials": 2.5},
    "scenario.seed": {"scenario": {**SMALL_SCENARIO, "seed": 7.9}},
    "methods[0].tv_orders": {"methods": [{"kind": "tvm_sparse", "gamma": 0.1, "tv_orders": 2.9}]},
    "methods[1].gamma": {"methods": [{"kind": "capon"}, {"kind": "sparse", "gamma": True}]},
    "manifold": {"manifold": 5},
    "methods[0]": {"methods": [5]},
    "mismatch_list[0]": {"mismatch_list": [None]},
    "scenario.interferers[0]": {"scenario": {**SMALL_SCENARIO, "interferers": [5]}},
    "scenario.geometry.spacing_ratio": {"scenario": {**SMALL_SCENARIO, "geometry": {"num_sensors": 4,
                                                                                  "spacing_ratio": math.nan}}},
}


@pytest.mark.parametrize("key", list(MALFORMED))
def test_malformed_config_exits_2_naming_the_key(tmp_path, key):
    path = write_config(tmp_path, **MALFORMED[key])
    for command in ("pattern", "montecarlo", "sweep"):
        result = CliRunner().invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 2, (command, result.output)
        assert f"error: {key} " in result.stderr, (command, result.stderr)
        assert "Traceback" not in result.output


def test_load_run_config_checks_types(tmp_path):
    # one case per typing rule: integers, numbers, strings, objects, lists
    scenario = SMALL_SCENARIO
    cases = {
        "scenario.geometry.num_sensors": {"scenario": {**scenario, "geometry": {"num_sensors": 4.0,
                                                                                "spacing_ratio": 0.5}}},
        "scenario.num_snapshots": {"scenario": {**scenario, "num_snapshots": True}},
        "scenario.presumed_doa_deg": {"scenario": {**scenario, "presumed_doa_deg": "0"}},
        "scenario.soi.power_db": {"scenario": {**scenario, "soi": {"doa_deg": 0.0, "power_db": 1e5}}},
        "scenario.soi": {"scenario": {**scenario, "soi": [0.0, 10.0]}},
        "scenario": {"scenario": []},
        "manifold.step_deg": {"manifold": {"step_deg": False}},
        "methods": {"methods": {"kind": "capon"}},
        "mismatch_list": {"mismatch_list": 0.0},
        "output_dir": {"output_dir": 5},
    }
    for key, overrides in cases.items():
        with pytest.raises(ValueError, match=f"^{re.escape(key)} "):
            load_run_config(str(write_config(tmp_path, **overrides)))
    # an overridden field is checked too
    with pytest.raises(ValueError, match="trials"):
        load_run_config(str(write_config(tmp_path, trials=2.5)), trials=3)


def test_mismatch_values_may_not_share_a_report_file(tmp_path):
    # report names keep 6 significant digits, so these two would collide
    for values in ("1e-7,1.0000001e-7", "0,0"):
        path = write_config(tmp_path, mismatch_list=[float(v) for v in values.split(",")])
        with pytest.raises(ValueError, match="would both write"):
            load_run_config(str(path))
        result = CliRunner().invoke(main, ["montecarlo", "--config", str(write_config(tmp_path)),
                                           "--mismatch", values])
        assert result.exit_code == 2, result.output
        first, second = values.split(",")
        assert f"error: mismatch values {float(first)!r} and {float(second)!r}" in result.stderr
        assert not (tmp_path / "out").exists()


def test_pattern_writes_csvs_and_manifest(tmp_path):
    path = write_config(tmp_path)
    result = CliRunner().invoke(main, ["pattern", "--config", str(path)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    for name in ("pattern_capon.csv", "pattern_sparse.csv"):
        rows = read_rows(out / name)
        assert rows[0] == ["angle_deg", "gain_db", "gain_re", "gain_im"]
        assert len(rows) == 182
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["scenario"]["geometry"]["num_sensors"] == 4
    assert [entry["file"] for entry in manifest["files"]] == ["pattern_capon.csv", "pattern_sparse.csv"]
    assert manifest["files"][1]["gamma"] == 0.1


def test_pattern_numbers_duplicate_kinds(tmp_path):
    path = write_config(tmp_path, methods=[
        {"kind": "sparse", "gamma": 0.1},
        {"kind": "sparse", "gamma": 0.5},
    ])
    result = CliRunner().invoke(main, ["pattern", "--config", str(path)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    names = [entry["file"] for entry in manifest["files"]]
    assert names == ["pattern_sparse.csv", "pattern_sparse_2.csv"]
    for name in names:
        assert (tmp_path / "out" / name).exists()


def test_pattern_warns_about_capped_solves(tmp_path, monkeypatch):
    # a fixed gamma at the top of the default grid was not selected there,
    # so it draws no grid-endpoint warning
    monkeypatch.setattr("caponshape.cli.BENCHMARK_OPTIONS", SolverOptions(max_iters=1))
    path = write_config(tmp_path, methods=[{"kind": "capon"}, {"kind": "sparse", "gamma": 0.1},
                                           {"kind": "weighted_sparse", "gamma": 10.0}])
    result = CliRunner().invoke(main, ["pattern", "--config", str(path)])
    assert result.exit_code == 0, result.output
    warnings = [line for line in result.stderr.splitlines() if line.startswith("warning")]
    assert warnings == [f"warning: {kind} stopped at its iteration cap on 1 of 1 solves"
                        for kind in ("sparse", "weighted_sparse")]


def test_pattern_rejects_missing_config_file(tmp_path):
    result = CliRunner().invoke(main, ["pattern", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


def test_pattern_exit_2_on_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = CliRunner().invoke(main, ["pattern", "--config", str(bad)])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_pattern_exit_3_on_numerical_failure(tmp_path, monkeypatch):
    def always_fails(*args, **kwargs):
        raise NumericalError("forced")

    monkeypatch.setattr("caponshape.cli.solve_method", always_fails)
    result = CliRunner().invoke(main, ["pattern", "--config", str(write_config(tmp_path))])
    assert result.exit_code == 3
    assert "numerical failure" in result.stderr


def test_montecarlo_writes_reports_and_summary(tmp_path):
    path = write_config(tmp_path, mismatch_list=[0.0, 3.0])
    result = CliRunner().invoke(main, ["montecarlo", "--config", str(path)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    for mismatch in ("0", "3"):
        doc = json.loads((out / f"sinr_mismatch_{mismatch}.json").read_text())
        assert doc["mismatch_deg"] == float(mismatch)
        assert doc["seed"] == 11
        assert len(doc["methods"]) == 2
        for entry in doc["methods"]:
            assert set(entry) == {"kind", "gamma", "mean_sinr_db", "std_db", "trials", "failures", "solver"}
            assert entry["trials"] == 2
            assert entry["failures"] == 0
    rows = read_rows(out / "sinr_summary.csv")
    assert rows[0] == ["kind", "gamma", "mismatch_deg", "mean_sinr_db", "std_db", "failures"]
    assert len(rows) == 1 + 2 * 2
    assert [row[0] for row in rows[1:]] == ["capon", "sparse", "capon", "sparse"]


def test_montecarlo_writes_each_mismatch_value_as_a_run_of_its_own_would(tmp_path):
    # one call draws each seed once for both values; the files must not tell
    runs = {}
    for mismatch in ("0,3", "0", "3"):
        out = tmp_path / mismatch.replace(",", "_")
        result = CliRunner().invoke(main, ["montecarlo", "--trials", "2", "--mismatch", mismatch, "--out", str(out)])
        assert result.exit_code == 0, result.output
        runs[mismatch] = out
    for mismatch in ("0", "3"):
        name = f"sinr_mismatch_{mismatch}.json"
        assert (runs["0,3"] / name).read_bytes() == (runs[mismatch] / name).read_bytes()
    rows = read_rows(runs["0,3"] / "sinr_summary.csv")
    assert rows == read_rows(runs["0"] / "sinr_summary.csv") + read_rows(runs["3"] / "sinr_summary.csv")[1:]


def test_montecarlo_writes_strict_json_when_every_trial_fails(tmp_path, monkeypatch):
    def every_trial_fails(method, covariances, *args, **kwargs):
        return [WeightVector(np.full(4, np.nan, dtype=complex), math.nan, SolverStatus.NUMERICAL_FAILURE, 0)
                for _ in covariances]

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr("caponshape.evaluation.solve_trials", every_trial_fails)
    result = CliRunner().invoke(main, ["montecarlo", "--config", str(write_config(tmp_path))])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "out" / "sinr_mismatch_0.json").read_text(), parse_constant=reject)
    for entry in doc["methods"]:
        assert entry["failures"] == 2
        assert entry["mean_sinr_db"] is None
        assert entry["std_db"] is None
        assert entry["solver"]["numerical_failure"] == 2
    # the CSV leaves a statistic with no finite value empty, as JSON writes null
    rows = read_rows(tmp_path / "out" / "sinr_summary.csv")
    assert [row[0] for row in rows[1:]] == ["capon", "sparse"]
    for row in rows[1:]:
        assert row[3:] == ["", "", "2"]


def test_montecarlo_tunes_each_auto_gamma_once(tmp_path, monkeypatch):
    # the held-out tuning draw does not depend on the mismatch, so two
    # mismatch values share one sweep per auto method
    calls = []
    gamma_sweep = evaluation.gamma_sweep

    def counted(method, *args, **kwargs):
        calls.append(method.kind.value)
        return gamma_sweep(method, *args, **kwargs)

    monkeypatch.setattr("caponshape.evaluation.gamma_sweep", counted)
    path = write_config(tmp_path, trials=1, mismatch_list=[0.0, 3.0],
                        methods=[{"kind": "capon"}, {"kind": "sparse", "gamma": "auto"},
                                 {"kind": "mixed_norm", "gamma": "auto"}])
    result = CliRunner().invoke(main, ["montecarlo", "--config", str(path)])
    assert result.exit_code == 0, result.output
    assert calls == ["sparse", "mixed_norm"]
    for mismatch in ("0", "3"):
        doc = json.loads((tmp_path / "out" / f"sinr_mismatch_{mismatch}.json").read_text())
        assert all(entry["gamma"] > 0 for entry in doc["methods"][1:])


def test_montecarlo_reports_and_warns_about_capped_solves(tmp_path, monkeypatch):
    monkeypatch.setattr("caponshape.cli.BENCHMARK_OPTIONS", SolverOptions(max_iters=1))
    path = write_config(tmp_path, mismatch_list=[0.0, 3.0])
    result = CliRunner().invoke(main, ["montecarlo", "--config", str(path)])
    assert result.exit_code == 0, result.output
    warnings = [line for line in result.stderr.splitlines() if line.startswith("warning")]
    assert warnings == ["warning: sparse stopped at its iteration cap on 4 of 4 solves"]
    doc = json.loads((tmp_path / "out" / "sinr_mismatch_3.json").read_text())
    capon, sparse = (entry["solver"] for entry in doc["methods"])
    assert capon["converged"] == 2 and capon["max_iters"] == 0
    assert sparse["max_iters"] == 2 and sparse["iterations_max"] == 1


def test_montecarlo_and_pattern_warn_about_capped_tuning_sweeps(tmp_path, monkeypatch):
    # the 41-point sweep that tunes an auto gamma is reported as sweep does,
    # beside the command's own solves
    monkeypatch.setattr("caponshape.cli.BENCHMARK_OPTIONS", SolverOptions(max_iters=1, tol=1e-4))
    path = write_config(tmp_path, trials=1, methods=[{"kind": "sparse", "gamma": "auto"}])
    for argv in (["montecarlo"], ["pattern"]):
        result = CliRunner().invoke(main, argv + ["--config", str(path)])
        assert result.exit_code == 0, result.output
        assert "warning: sparse stopped at its iteration cap on 41 of 41 grid points" in result.stderr.splitlines()


def test_packaged_montecarlo_warns_about_a_gamma_tuned_to_a_grid_endpoint(tmp_path):
    # on the packaged held-out draw weighted_sparse tunes to gamma 10, the
    # top of the default grid; no method of one trial stops at its cap
    result = CliRunner().invoke(main, ["montecarlo", "--trials", "1", "--mismatch", "0", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    warnings = [line for line in result.stderr.splitlines() if line.startswith("warning")]
    assert warnings == ["warning: weighted_sparse selects gamma 10, a grid endpoint; widen the grid"]


def test_flags_per_subcommand(tmp_path):
    # pattern and sweep take --config, --out, --seed (and sweep --gammas);
    # only montecarlo takes --trials and --mismatch
    path = write_config(tmp_path)
    for argv in (["pattern", "--trials", "3"], ["pattern", "--mismatch", "1"],
                 ["sweep", "--trials", "3"], ["sweep", "--mismatch", "1"]):
        result = CliRunner().invoke(main, argv + ["--config", str(path)])
        assert result.exit_code == 2, argv
        assert "No such option" in result.output, argv
    result = CliRunner().invoke(main, ["montecarlo", "--config", str(path), "--trials", "1", "--mismatch", "0,2"])
    assert result.exit_code == 0, result.output
    rows = read_rows(tmp_path / "out" / "sinr_summary.csv")
    assert [row[2] for row in rows[1:]] == ["0", "0", "2", "2"]
    assert json.loads((tmp_path / "out" / "sinr_mismatch_2.json").read_text())["methods"][0]["trials"] == 1
    for argv in (["montecarlo", "--mismatch", ","], ["sweep", "--gammas", ","]):
        result = CliRunner().invoke(main, argv + ["--config", str(path)])
        assert result.exit_code == 2, argv
        assert f"error: {argv[1]} needs at least one value" in result.stderr, argv


def test_list_flags_name_the_token_they_refuse(tmp_path):
    path = write_config(tmp_path)
    for argv, token in ((["montecarlo", "--mismatch", "0,abc"], "abc"), (["sweep", "--gammas", "0.1,x"], "x"),
                        (["montecarlo", "--mismatch", "nan"], "nan"), (["sweep", "--gammas", "1e400"], "1e400")):
        result = CliRunner().invoke(main, argv + ["--config", str(path)])
        assert result.exit_code == 2, argv
        assert f"error: {argv[1]} takes finite numbers, got '{token}'" in result.stderr, argv
        assert "Traceback" not in result.output, argv
    assert not (tmp_path / "out").exists()


def test_montecarlo_exit_2_on_zero_trials(tmp_path):
    path = write_config(tmp_path)
    result = CliRunner().invoke(main, ["montecarlo", "--config", str(path), "--trials", "0"])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_sweep_zero_gamma_row_matches_capon(tmp_path):
    path = write_config(tmp_path)
    result = CliRunner().invoke(main, ["sweep", "--config", str(path), "--gammas", "0"])
    assert result.exit_code == 0, result.output
    rows = read_rows(tmp_path / "out" / "gamma_sweep.csv")
    assert rows[0] == ["kind", "gamma", "sinr_db", "sidelobe_mean_db", "mspr", "selected"]
    assert len(rows) == 3
    by_kind = {row[0]: row for row in rows[1:]}
    assert math.isclose(float(by_kind["sparse"][2]), float(by_kind["capon"][2]), abs_tol=1e-6)
    assert by_kind["capon"][5] == "1" and by_kind["sparse"][5] == "1"
    assert "warning" not in result.stderr


def test_sweep_warns_when_selection_hits_grid_endpoints(tmp_path):
    # on the packaged scenario's tuning draw the sparse SINR still rises
    # across the first tiny grid, so its best point lands on the last
    # endpoint; on the second grid sparse peaks inside while weighted_sparse
    # peaks at the top, and the warning names weighted_sparse alone
    doc = json.loads(resources.files("caponshape").joinpath("data/default_config.json").read_text())
    cases = [
        (["sparse"], "0.001,0.002,0.003", {"sparse": 0.003}),
        (["sparse", "weighted_sparse"], "0.1,0.31622776601683794,10", {"weighted_sparse": 10.0}),
    ]
    for n, (kinds, gammas, on_edge) in enumerate(cases):
        doc["methods"] = [{"kind": "capon"}] + [{"kind": kind, "gamma": "auto"} for kind in kinds]
        doc["output_dir"] = str(tmp_path / f"out{n}")
        path = tmp_path / f"config{n}.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["sweep", "--config", str(path), "--gammas", gammas])
        assert result.exit_code == 0, result.output
        warnings = [line for line in result.stderr.splitlines() if line.startswith("warning")]
        assert len(warnings) == len(on_edge)
        rows = read_rows(tmp_path / f"out{n}" / "gamma_sweep.csv")
        assert len(rows) == 1 + 1 + 3 * len(kinds)
        for kind in kinds:
            selected = [row for row in rows[1:] if row[0] == kind and row[5] == "1"]
            assert len(selected) == 1
            named = [line for line in warnings if line.startswith(f"warning: {kind} ")]
            if kind in on_edge:
                assert float(selected[0][1]) == on_edge[kind]
                assert len(named) == 1
            else:
                assert named == []


def test_sweep_rejects_bad_gamma_grids(tmp_path):
    path = write_config(tmp_path)
    for gammas in ("0.1,-0.5", ",", "nan", "0.1,inf"):
        result = CliRunner().invoke(main, ["sweep", "--config", str(path), "--gammas", gammas])
        assert result.exit_code == 2, gammas
        assert "error:" in result.stderr, gammas
        assert "Traceback" not in result.output, gammas


def test_sweep_warns_about_capped_grid_points(tmp_path, monkeypatch):
    monkeypatch.setattr("caponshape.cli.BENCHMARK_OPTIONS", SolverOptions(max_iters=1))
    kinds = ["sparse", "weighted_sparse", "mixed_norm", "tvm_sparse", "mspr_relaxed"]
    path = write_config(tmp_path, methods=[{"kind": "capon"}] + [{"kind": kind, "gamma": "auto"} for kind in kinds])
    result = CliRunner().invoke(main, ["sweep", "--config", str(path), "--gammas", "0,0.1,1"])
    assert result.exit_code == 0, result.output
    capped = [line for line in result.stderr.splitlines() if "iteration cap" in line]
    # the gamma-0 point has no penalty: the convex kinds end it without an
    # iteration, and mspr_relaxed's first step from the unpenalized optimum
    # stops it
    assert capped == [f"warning: {kind} stopped at its iteration cap on 2 of 3 grid points" for kind in kinds]
    rows = read_rows(tmp_path / "out" / "gamma_sweep.csv")
    assert rows[0] == ["kind", "gamma", "sinr_db", "sidelobe_mean_db", "mspr", "selected"]


def test_the_package_runs_without_scipy():
    # importing scipy.linalg would add about a quarter second and 21 MB to
    # every process, so neither the import nor any source file may pull it in
    package = Path(caponshape.__file__).resolve().parent
    paths = [str(package.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = "import sys, caponshape, caponshape.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for path in package.glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+scipy\b", path.read_text(), re.MULTILINE), path.name
