"""End-to-end runs of the command line: synth -> fit -> disaggregate ->
metrics, plus the sweep modes, flag validation, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import pvdisagg
from pvdisagg.cli import main
from pvdisagg.evaluation import ScenarioSpec
from pvdisagg.timeseries import (UNIT_CELSIUS, UNIT_W_PER_M2,
                                 write_csv)

from conftest import highs_stops_short, make_series

SCENARIO = {"days": 3, "period_s": 60, "noise_kw": 0.02, "seed": 17,
            "inrush_per_day": 2.0,
            "cloud_kinds": ["clear", "partly", "clear"]}


def read_table(path):
    """Parse a CLI CSV: (comments, header, timestamp strings, value array)."""
    comments, header, stamps, rows = [], None, [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line
            else:
                parts = line.split(",")
                stamps.append(parts[0])
                rows.append([float(v) for v in parts[1:]])
    return comments, header, stamps, np.asarray(rows)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI run on a small feeder; downstream tests poke at it."""
    root = tmp_path_factory.mktemp("cli")
    scen = root / "scenario.yaml"
    scen.write_text(yaml.safe_dump(SCENARIO))
    site = root / "site.yaml"
    # the fit gets the plant's true plane geometry, so a matched method C
    # should land close to the installed capacities
    site.write_text(yaml.safe_dump({
        "latitude": 47.5, "longitude": 7.5, "altitude": 260.0,
        "albedo": 0.2,
        "planes": [{"tilt": p["tilt"], "azimuth": p["azimuth"]}
                   for p in ScenarioSpec().plant]}))
    data = root / "data"
    assert main(["synth", "--scenario", str(scen),
                 "--out-dir", str(data)]) == 0
    model = root / "model.json"
    report = root / "report.json"
    assert main(["fit", "--site", str(site),
                 "--ghi", str(data / "ghi.csv"),
                 "--t-air", str(data / "t_air.csv"),
                 "--p", str(data / "p.csv"),
                 "--method", "C", "--c", "30",
                 "--out-model", str(model),
                 "--out-report", str(report)]) == 0
    est = root / "estimates.csv"
    assert main(["disaggregate", "--model", str(model),
                 "--site", str(site),
                 "--ghi", str(data / "ghi.csv"),
                 "--t-air", str(data / "t_air.csv"),
                 "--p", str(data / "p.csv"),
                 "--out", str(est)]) == 0
    return {"root": root, "scen": scen, "site": site, "data": data,
            "model": model, "report": report, "est": est}


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_all_series(pipeline):
    data = pipeline["data"]
    for name in ("p", "ghi", "t_air", "g_true", "l_true", "battery"):
        assert (data / f"{name}.csv").exists()
    doc = json.loads((data / "scenario.json").read_text())
    assert doc["capacity_kwp"] == pytest.approx(35.3)
    assert doc["scenario"]["seed"] == 17
    assert doc["provenance"]["tool"] == "pvdisagg"


def test_synth_files_have_provenance_and_lf(pipeline):
    raw = (pipeline["data"] / "p.csv").read_bytes()
    assert raw.startswith(b"# pvdisagg ")
    assert b"\r" not in raw


def test_synth_is_reproducible(pipeline, tmp_path):
    assert main(["synth", "--scenario", str(pipeline["scen"]),
                 "--out-dir", str(tmp_path / "again")]) == 0
    assert ((tmp_path / "again" / "p.csv").read_bytes()
            == (pipeline["data"] / "p.csv").read_bytes())


def test_synth_seed_flag_overrides(pipeline, tmp_path):
    assert main(["synth", "--scenario", str(pipeline["scen"]),
                 "--seed", "99", "--out-dir", str(tmp_path / "s99")]) == 0
    doc = json.loads((tmp_path / "s99" / "scenario.json").read_text())
    assert doc["scenario"]["seed"] == 99
    assert doc["provenance"]["seed"] == 99


def test_synth_out_dir_from_environment(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("PVDISAGG_OUT_DIR", str(tmp_path / "env_out"))
    assert main(["synth", "--scenario", str(pipeline["scen"])]) == 0
    assert (tmp_path / "env_out" / "p.csv").exists()


def test_synth_rejects_unknown_scenario_key(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"days": 2, "sharding": 4}))
    assert main(["synth", "--scenario", str(bad),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown scenario keys" in capsys.readouterr().err


def test_synth_rejects_non_mapping_yaml(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a\n- list\n")
    assert main(["synth", "--scenario", str(bad),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "expected a mapping" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# transpose

def test_transpose_default_bank_has_21_planes(pipeline, tmp_path):
    site21 = tmp_path / "site21.yaml"
    site21.write_text(yaml.safe_dump({"latitude": 47.5, "longitude": 7.5,
                                      "altitude": 260.0}))
    out = tmp_path / "bank.csv"
    assert main(["transpose", "--site", str(site21),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--out", str(out)]) == 0
    comments, header, stamps, vals = read_table(out)
    assert header.split(",")[0] == "timestamp"
    assert len(header.split(",")) == 22
    assert vals.shape[1] == 21
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert any("bank geometry" in c for c in comments)


def test_transpose_zero_ghi_gives_zero_bank(pipeline, tmp_path):
    zero = make_series(np.zeros(288), period=300, unit=UNIT_W_PER_M2)
    tair = make_series(np.full(288, 20.0), period=300, unit=UNIT_CELSIUS)
    write_csv(zero, tmp_path / "ghi0.csv")
    write_csv(tair, tmp_path / "tair.csv")
    out = tmp_path / "bank0.csv"
    assert main(["transpose", "--site", str(pipeline["site"]),
                 "--ghi", str(tmp_path / "ghi0.csv"),
                 "--t-air", str(tmp_path / "tair.csv"),
                 "--out", str(out)]) == 0
    _, _, _, vals = read_table(out)
    assert not vals.any()


# ---------------------------------------------------------------------------
# fit

def test_fit_model_document(pipeline):
    doc = json.loads(pipeline["model"].read_text())
    assert doc["method"] == "C"
    assert doc["params"]["c"] == 30
    assert doc["period_s"] == 60
    assert len(doc["alpha_kwp"]) == 5
    assert all(a >= 0.0 for a in doc["alpha_kwp"])
    # matched demand blocks and low noise: total capacity lands close
    assert doc["total_kwp"] == pytest.approx(35.3, abs=0.7)
    assert doc["train_seconds"] > 0.0
    assert len(doc["bank"]["geometry_hash"]) == 12


def test_fit_report_document(pipeline):
    doc = json.loads(pipeline["report"].read_text())
    assert doc["converged"] is True
    assert doc["status"] == "solved"
    assert doc["provenance"]["tool"] == "pvdisagg"


def test_fit_accepts_cutoffs_as_periods(pipeline, tmp_path):
    out = tmp_path / "model_d.json"
    assert main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", "D",
                 "--f-low-s", "7200", "--f-high-s", "600",
                 "--out-model", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["f_low"] == pytest.approx(1.0 / 7200.0)
    assert doc["params"]["f_high"] == pytest.approx(1.0 / 600.0)
    # the default band straddles the 1800 s demand steps, so the capacity
    # is only roughly right here; the flag conversion is what matters
    assert doc["total_kwp"] == pytest.approx(35.3, abs=4.0)


def test_fit_rejects_cutoff_given_both_ways(pipeline, tmp_path, capsys):
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", "D",
                 "--f-low-hz", "0.001", "--f-low-s", "1000",
                 "--f-high-s", "600",
                 "--out-model", str(tmp_path / "m.json")])
    assert code == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("period", ["0", "-60"])
def test_fit_rejects_non_positive_period(pipeline, tmp_path, capsys, period):
    # 0 used to fall back to the native period without a word
    model = tmp_path / "m.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", "A", "--period-s", period,
                 "--out-model", str(model)])
    assert code == 2
    assert "--period-s" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("method, key", [("B", "lam"), ("C", "c")])
def test_fit_needs_the_method_parameter(pipeline, tmp_path, capsys, method,
                                        key):
    # lam = 0 and c = 1 used to be the defaults: free per-sample demand
    # absorbs P, and the capacities are not identified
    model = tmp_path / "m.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", method, "--out-model", str(model)])
    assert code == 2
    assert f"method {method} needs {key}" in capsys.readouterr().err
    assert not model.exists()


def test_fit_degenerate_band_exits_3(pipeline, tmp_path, capsys):
    # an all-dark sky leaves nothing in any pass band: the robust fit
    # refuses rather than returning an arbitrary capacity
    zero = make_series(np.zeros(288), period=300, unit=UNIT_W_PER_M2)
    tair = make_series(np.full(288, 20.0), period=300, unit=UNIT_CELSIUS)
    p = make_series(np.full(288, 5.0), period=300)
    write_csv(zero, tmp_path / "ghi0.csv")
    write_csv(tair, tmp_path / "tair.csv")
    write_csv(p, tmp_path / "p.csv")
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(tmp_path / "ghi0.csv"),
                 "--t-air", str(tmp_path / "tair.csv"),
                 "--p", str(tmp_path / "p.csv"),
                 "--method", "D",
                 "--f-low-hz", str(1 / 7200), "--f-high-hz", str(1 / 1200),
                 "--no-night-mask",
                 "--out-model", str(tmp_path / "m.json")])
    assert code == 3
    assert "solver error" in capsys.readouterr().err


@pytest.mark.parametrize("with_point", [True, False],
                         ids=["iteration-limit", "no-point"])
def test_fit_a_exits_3_when_highs_stops_short(pipeline, tmp_path, capsys,
                                              monkeypatch, with_point):
    """A's dual LP is never infeasible or unbounded, so a HiGHS run that
    stops short is the only failure: the report says converged=False and
    the fit exits 3."""
    highs_stops_short(monkeypatch, with_point)
    data = pipeline["data"]
    report = tmp_path / "report.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(data / "ghi.csv"),
                 "--t-air", str(data / "t_air.csv"),
                 "--p", str(data / "p.csv"), "--method", "A",
                 "--out-model", str(tmp_path / "m.json"),
                 "--out-report", str(report)])
    assert code == 3
    assert "NOT converged" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["converged"] is False
    assert doc["status"] == ("max_iter" if with_point else "numerical")


# ---------------------------------------------------------------------------
# disaggregate

def test_disaggregate_output_table(pipeline):
    comments, header, stamps, vals = read_table(pipeline["est"])
    assert header == "timestamp,g_hat_kw,l_hat_kw"
    assert any("identity_violations=0" in c for c in comments)
    _, _, _, p = read_table(pipeline["data"] / "p.csv")
    assert len(stamps) == len(p)
    g_hat, l_hat = vals[:, 0], vals[:, 1]
    # the stored columns round-trip exactly, so the demand estimate must
    # be bitwise the clipped sum of flow and generation estimate
    assert np.array_equal(l_hat, np.clip(p[:, 0] + g_hat, 0.0, None))
    assert np.all(g_hat >= 0.0)


def test_disaggregate_recovers_generation(pipeline):
    _, _, _, est = read_table(pipeline["est"])
    _, _, _, g_true = read_table(pipeline["data"] / "g_true.csv")
    err = est[:, 0] - g_true[:, 0]
    assert float(np.sqrt(np.mean(err ** 2))) / 35.3 * 100.0 < 2.0


def test_disaggregate_zero_model_passes_the_flow_through(pipeline, tmp_path):
    doc = json.loads(pipeline["model"].read_text())
    doc["alpha_kwp"] = [0.0] * len(doc["alpha_kwp"])
    model0 = tmp_path / "model0.json"
    model0.write_text(json.dumps(doc))
    out = tmp_path / "est0.csv"
    assert main(["disaggregate", "--model", str(model0),
                 "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--out", str(out)]) == 0
    _, _, _, est = read_table(out)
    _, _, _, p = read_table(pipeline["data"] / "p.csv")
    assert not est[:, 0].any()
    assert np.array_equal(est[:, 1], np.clip(p[:, 0], 0.0, None))


# ---------------------------------------------------------------------------
# metrics

def test_metrics_hand_case_to_stdout(tmp_path, capsys):
    write_csv(make_series([5.0, 3.0]), tmp_path / "true.csv")
    write_csv(make_series([4.0, 4.0]), tmp_path / "hat.csv")
    assert main(["metrics", "--g-true", str(tmp_path / "true.csv"),
                 "--g-hat", str(tmp_path / "hat.csv"),
                 "--capacity-kwp", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["nrmse_pct"] - 10.0) < 1e-12
    assert abs(doc["nmae_pct"] - 10.0) < 1e-12
    assert abs(doc["nme_pct"]) < 1e-12
    assert doc["n_samples"] == 2


def test_metrics_closes_the_pipeline(pipeline, tmp_path):
    _, _, stamps, est = read_table(pipeline["est"])
    g_hat = make_series(est[:, 0], period=60)
    write_csv(g_hat, tmp_path / "g_hat.csv")
    out = tmp_path / "metrics.json"
    assert main(["metrics", "--g-true", str(pipeline["data"] / "g_true.csv"),
                 "--g-hat", str(tmp_path / "g_hat.csv"),
                 "--capacity-kwp", "35.3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["nrmse_pct"] < 2.0
    assert doc["nrmse_pct"] >= doc["nmae_pct"] >= abs(doc["nme_pct"])


def test_metrics_misaligned_series_exit_2(tmp_path, capsys):
    write_csv(make_series([1.0, 2.0], period=60), tmp_path / "a.csv")
    write_csv(make_series([1.0, 2.0], period=300), tmp_path / "b.csv")
    assert main(["metrics", "--g-true", str(tmp_path / "a.csv"),
                 "--g-hat", str(tmp_path / "b.csv"),
                 "--capacity-kwp", "10"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_cv_mode(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"days": 3, "period_s": 300, "noise_kw": 0.05,
                     "seed": 5},
        "methods": [{"method": "C", "c": [3, 6]}],
        "resolutions_s": [900],
        "mode": "cv"}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    rows = (out / "rows.csv").read_text().splitlines()
    assert rows[0].startswith("# pvdisagg ")
    assert rows[1].startswith("method,resolution_s,fold,")
    assert len(rows) == 2 + 2 * 3  # two grid points, three folds each
    summary = json.loads((out / "summary.json").read_text())
    assert summary["grid_points"] == 2
    assert len(summary["fold_stats"]) == 2
    assert set(summary["summary_nrmse"]) == {"min", "max", "mean", "median"}


def test_sweep_penetration_mode(tmp_path):
    cfg = tmp_path / "pen.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"days": 3, "period_s": 300, "noise_kw": 0.05,
                     "seed": 5},
        "methods": [{"method": "A"}],
        "mode": "penetration",
        "fractions": [1.0, 0.5],
        "penetration_resolution_s": 900}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    rows = (out / "penetration.csv").read_text().splitlines()
    assert len(rows) == 2 + 2
    first = rows[2].split(",")
    assert first[0] == "A" and float(first[1]) == 1.0
    assert float(first[2]) == pytest.approx(35.3)


def test_sweep_unknown_mode_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"days": 3, "period_s": 300},
        "methods": [{"method": "A"}],
        "mode": "bootstrap"}))
    assert main(["sweep", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown sweep mode" in capsys.readouterr().err


def test_sweep_rejects_unknown_method_key(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"days": 3, "period_s": 300},
        "methods": [{"method": "B", "lambda": 2.0}]}))
    assert main(["sweep", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown method keys" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, code, message", [
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "B", "lam": None}],
               "resolutions_s": [900]},
     2, "lam: expected a number"),
    ("synth", {"days": "3", "period_s": 300}, 0, ""),
    ("transpose", {"latitude": 47.5, "longitude": None},
     2, "longitude: expected a number"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "C", "c": 2.5}],
               "resolutions_s": [900]},
     2, "c: expected an integer"),  # refused, never truncated
    ("transpose", {"latitude": 47.5, "longitude": 7.5,
                   "planes": [[10, 180]]}, 2, "planes: expected a list"),
    ("transpose", {"latitude": 47.5, "longitude": 7.5,
                   "planes": {"tilt": 10, "azimuth": 180}},
     2, "planes: expected a list"),
    ("synth", {"days": 3, "period_s": 300, "plant": [[10, 180, 5]]},
     2, "plant: expected a list"),
    ("synth", {"days": 3, "period_s": 300, "plant": 5},
     2, "plant: expected a list"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300,
                            "plant": ["south"]},
               "methods": [{"method": "A"}]}, 2, "plant: expected a list"),
    ("synth", {"days": 3, "period_s": 300,
               "plant": [{"tilt": 10, "azimuth": 180}]},
     2, "plant kwp: expected a number, got None"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "fold_seed": None},
     2, "fold_seed: expected a number"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "fold_seed": [1]},
     2, "fold_seed: expected a number"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "resolutions_s": 900},
     0, ""),  # a scalar is a one-value list
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "resolutions_s": [300.5]},
     2, "resolutions_s: expected an integer"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "mode": "penetration",
               "fractions": ["a"]},
     2, "fractions: expected a number"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "mode": "penetration",
               "fractions": [1.0], "penetration_resolution_s": "x"},
     2, "penetration_resolution_s: expected a number"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "mode": "penetration",
               "fractions": []},
     2, "fractions: expected at least one value"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "resolutions_s": []},
     2, "resolutions_s: expected at least one value"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "C", "c": []}],
               "resolutions_s": [900]},
     2, "c: expected at least one value"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "C"}], "resolutions_s": [900]},
     2, "method C needs c"),  # c = 1 interpolates P: not identified
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "B"}], "resolutions_s": [900]},
     2, "method B needs lam"),
])
def test_config_values_of_the_wrong_type(tmp_path, capsys, command, config,
                                         code, message):
    """A YAML value of the wrong type, or a planes or plant list whose
    entries are not mappings, is converted where it is read, or refused
    with exit 2 naming its key, never a traceback."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    flag = {"sweep": "--config", "synth": "--scenario",
            "transpose": "--site"}[command]
    extra = ([f"--{name}={tmp_path / name}" for name in ("ghi", "t-air", "out")]
             if command == "transpose" else ["--out-dir", str(tmp_path)])
    assert main([command, flag, str(path), *extra]) == code
    assert message in capsys.readouterr().err
    if code == 0 and command == "synth":
        doc = json.loads((tmp_path / "scenario.json").read_text())
        assert doc["scenario"]["days"] == 3
    elif code == 0:  # every row of the sweep is at the one resolution
        rows = (tmp_path / "rows.csv").read_text().splitlines()[2:]
        assert rows and all(row.startswith("A,900,") for row in rows)


# ---------------------------------------------------------------------------
# which modules each command loads

_SOLVER_MODULES = ("scipy.signal", "scipy.optimize", "scipy.linalg",
                   "scipy.sparse")

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import pvdisagg
new = {name.split(".")[0] for name in set(sys.modules) - before}
seen = {"import pvdisagg": sorted(new - set(sys.stdlib_module_names))}
import pvdisagg.cli
solvers = %r
seen["import pvdisagg.cli"] = [m for m in solvers if m in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert pvdisagg.cli.main(argv) == 0, argv
    seen[argv[0]] = [m for m in solvers if m in sys.modules]
print(json.dumps(seen))
""" % (_SOLVER_MODULES,)


def test_only_fit_loads_scipy(pipeline, tmp_path):
    """transpose, disaggregate and metrics run without scipy's solver
    modules; a D fit loads scipy.signal; the package needs only numpy."""
    data, site = pipeline["data"], str(pipeline["site"])
    series = [f"--ghi={data / 'ghi.csv'}", f"--t-air={data / 't_air.csv'}"]
    argvs = [
        ["transpose", "--site", site, *series, "--out", str(tmp_path / "b")],
        ["disaggregate", "--model", str(pipeline["model"]), "--site", site,
         *series, f"--p={data / 'p.csv'}", "--out", str(tmp_path / "e")],
        ["metrics", f"--g-true={data / 'g_true.csv'}",
         f"--g-hat={tmp_path / 'e'}", "--capacity-kwp", "35.3",
         "--out", str(tmp_path / "m")],
        ["fit", "--site", site, *series, f"--p={data / 'p.csv'}",
         "--method", "D", "--f-low-s", "7200", "--f-high-s", "600",
         "--out-model", str(tmp_path / "d")],
    ]
    src = str(Path(pvdisagg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("import pvdisagg") == ["numpy", "pvdisagg"]
    assert "scipy.signal" in seen.pop("fit")
    assert seen == {"import pvdisagg.cli": [], "transpose": [],
                    "disaggregate": [], "metrics": []}


# ---------------------------------------------------------------------------
# parser plumbing

def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_input_file_exit_2(tmp_path, capsys):
    assert main(["synth", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
