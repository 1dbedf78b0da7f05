"""End-to-end runs of the command line: synth -> fit -> disaggregate ->
metrics, plus the sweep modes, flag validation, and exit codes."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import pvdisagg
from pvdisagg import cli, evaluation, optim
from pvdisagg.cli import build_parser, main
from pvdisagg.evaluation import ScenarioSpec
from pvdisagg.timeseries import (UNIT_CELSIUS, UNIT_W_PER_M2,
                                 write_csv)

from conftest import make_series

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


def test_synth_refuses_a_negative_seed(tmp_path, capsys):
    scen = tmp_path / "neg.yaml"
    scen.write_text(yaml.safe_dump({**SCENARIO, "seed": -1}))
    assert main(["synth", "--scenario", str(scen),
                 "--out-dir", str(tmp_path / "neg")]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_out_dir_is_required_whatever_the_environment(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("PVDISAGG_OUT_DIR", str(tmp_path / "env_out"))
    flag = "--scenario" if command == "synth" else "--config"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(tmp_path / "x.yaml")])
    assert exc.value.code == 2
    assert "--out-dir" in capsys.readouterr().err
    assert not (tmp_path / "env_out").exists()


def test_synth_rejects_a_scenario_altitude(tmp_path, capsys):
    # the generator reads latitude, longitude and albedo; an altitude
    # would be a setting that changes nothing
    scen = tmp_path / "alt.yaml"
    scen.write_text(yaml.safe_dump({**SCENARIO, "altitude": 260.0}))
    assert main(["synth", "--scenario", str(scen),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown scenario keys: ['altitude']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # one reading of the whole fit feeds both documents
    model = json.loads(pipeline["model"].read_text())
    assert doc["wall_time_s"] == model["train_seconds"] > 0.0


def test_fit_report_says_where_b_started(pipeline, tmp_path):
    report = tmp_path / "report_b.json"
    assert main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", "B", "--lam", "1",
                 "--out-model", str(tmp_path / "model_b.json"),
                 "--out-report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["converged"] is True
    # B starts from C's fit on 900 s blocks of the 60 s samples
    assert doc["start_c"] == 15
    assert doc["start_evaluations"] >= 1
    assert doc["evaluations"] >= 1


def test_fit_b_at_a_tiny_lam_stops_typed(tmp_path, capsys):
    """B with lam = 1e-6 on 3 days at 60 s (scenario seed 1, the default
    21-plane bank): the model Hessian at C's start is zero, its minimizer
    is no descent direction, and the fit stops at line_search after 0
    steps at C's capacities, 36.164 kWp, with exit 3 and a report that
    says so."""
    (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(
        {"days": 3, "period_s": 60, "seed": 1}))
    (tmp_path / "site.yaml").write_text(yaml.safe_dump(
        {"latitude": 47.5, "longitude": 7.5, "albedo": 0.2}))
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(tmp_path / "scenario.yaml"),
                 "--out-dir", str(data)]) == 0
    report = tmp_path / "report.json"
    assert main(["fit", "--site", str(tmp_path / "site.yaml"),
                 "--ghi", str(data / "ghi.csv"),
                 "--t-air", str(data / "t_air.csv"),
                 "--p", str(data / "p.csv"), "--method", "B",
                 "--lam", "1e-6", "--out-model", str(tmp_path / "m.json"),
                 "--out-report", str(report)]) == 3
    assert "total 36.164 kWp" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert (doc["status"], doc["converged"], doc["iterations"],
            doc["evaluations"]) == ("line_search", False, 0, 1)


def test_fit_accepts_cutoffs_as_periods(pipeline, tmp_path):
    out = tmp_path / "model_d.json"
    report = tmp_path / "report_d.json"
    assert main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", "D",
                 "--f-low-s", "7200", "--f-high-s", "600",
                 "--out-model", str(out), "--out-report", str(report)]) == 0
    doc = json.loads(out.read_text())
    # the report's time includes the filter design and filtering, as the
    # model's does
    assert json.loads(report.read_text())["wall_time_s"] \
        == doc["train_seconds"]
    assert doc["params"]["f_low"] == pytest.approx(1.0 / 7200.0)
    assert doc["params"]["f_high"] == pytest.approx(1.0 / 600.0)
    # the default band straddles the 1800 s demand steps, so the capacity
    # is only roughly right here; the flag conversion is what matters
    assert doc["total_kwp"] == pytest.approx(35.3, abs=4.0)


@pytest.mark.parametrize("command, flag", [
    ("synth", "--seed"), ("fit", "--f-low-hz"), ("fit", "--f-high-hz")])
def test_second_spellings_are_refused(pipeline, tmp_path, capsys, command,
                                      flag):
    """The scenario YAML is the one place to set the seed, and D's band is
    given as periods (--f-low-s, --f-high-s) only."""
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--scenario", str(pipeline["scen"]),
                "--out-dir", str(out)]
    else:
        argv = ["fit", "--site", str(pipeline["site"]),
                "--ghi", str(pipeline["data"] / "ghi.csv"),
                "--t-air", str(pipeline["data"] / "t_air.csv"),
                "--p", str(pipeline["data"] / "p.csv"), "--method", "D",
                "--out-model", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "99"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


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


def test_fit_refuses_another_methods_parameter(pipeline, tmp_path, capsys):
    # A used to ignore both flags and exit 0
    model = tmp_path / "m.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", "A", "--lam", "3", "--c", "7",
                 "--out-model", str(model)])
    assert code == 2
    assert "method A takes no lam, c" in capsys.readouterr().err
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


@pytest.mark.parametrize("method, flag, value", [
    ("B", "--lam", "nan"), ("B", "--lam", "inf")])
def test_fit_refuses_a_non_finite_setting(pipeline, tmp_path, capsys, method,
                                          flag, value):
    model = tmp_path / "m.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", method, flag, value,
                 "--out-model", str(model)])
    assert code == 2
    assert (f"{flag[2:].replace('-', '_')} must be finite, got {value}"
            in capsys.readouterr().err)
    assert not model.exists()


@pytest.mark.parametrize("method, flag, value", [
    ("B", "--lam", "0"), ("C", "--c", "1")])
def test_fit_refuses_a_setting_that_leaves_demand_free(
        pipeline, tmp_path, capsys, method, flag, value):
    """lam = 0 and c = 1 let the demand absorb P sample by sample: every
    alpha with P + G >= 0 scores a zero objective, so no answer would be
    the plant's, and both are refused before any fit."""
    model = tmp_path / "m.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", method, flag, value,
                 "--out-model", str(model)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"method {method} needs {flag[2:]}" in err
    assert "leaves the capacities unidentified" in err
    assert not model.exists()


@pytest.mark.parametrize("method, flags", [
    ("A", []), ("B", ["--lam", "1"]), ("C", ["--c", "10"]),
    ("D", ["--f-low-s", "7200", "--f-high-s", "1200"])],
    ids=["A", "B", "C", "D"])
def test_fit_refuses_an_all_dark_sky(pipeline, tmp_path, capsys, method,
                                     flags):
    """GHI zero on every sample makes the whole bank zero, which no
    method can fit a capacity to: all four exit 2 with one message
    before any solver runs."""
    zero = make_series(np.zeros(288), period=300, unit=UNIT_W_PER_M2)
    tair = make_series(np.full(288, 20.0), period=300, unit=UNIT_CELSIUS)
    p = make_series(np.full(288, 5.0), period=300)
    write_csv(zero, tmp_path / "ghi0.csv")
    write_csv(tair, tmp_path / "tair.csv")
    write_csv(p, tmp_path / "p.csv")
    model = tmp_path / "m.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(tmp_path / "ghi0.csv"),
                 "--t-air", str(tmp_path / "tair.csv"),
                 "--p", str(tmp_path / "p.csv"),
                 "--method", method, *flags, "--out-model", str(model)])
    assert code == 2
    assert ("error: the plane bank is zero on every sample"
            in capsys.readouterr().err)
    assert not model.exists()


def test_fit_names_a_band_the_filter_cannot_settle(pipeline, tmp_path,
                                                    capsys):
    # the sections' steady state is a singular solve at this band; the
    # error names the band and the rate, not just the matrix
    model = tmp_path / "m.json"
    code = main(["fit", "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--method", "D", "--period-s", "300",
                 "--f-low-s", "1e12", "--f-high-s", "5e11",
                 "--out-model", str(model)])
    assert code == 2
    assert ("f_low=1e-12 Hz and f_high=2e-12 Hz are too low for rate "
            "0.00333333 Hz" in capsys.readouterr().err)
    assert not model.exists()


@pytest.mark.parametrize("with_point", [True, False],
                         ids=["iteration-limit", "no-point"])
def test_fit_a_exits_3_when_highs_stops_short(pipeline, tmp_path, capsys,
                                              monkeypatch, with_point):
    """A's L1 fit is never infeasible or unbounded, so an LP that stops
    short is the only failure.  iteration-limit caps solve_lp at one pivot
    per plane (status max_iter); no-point sets its machine epsilon to 1,
    so every crossing and capacity along the first edge falls within
    rounding and the edge has no minimum (status numerical, no pivot).
    Either way the report says converged=False and the fit exits 3."""
    if with_point:
        monkeypatch.setattr(optim, "_LP_PIVOTS_PER_COLUMN", 1)
    else:
        monkeypatch.setattr(optim, "_EPS", 1.0)
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
    planes = len(yaml.safe_load(pipeline["site"].read_text())["planes"])
    assert (doc["status"], doc["iterations"]) == (
        ("max_iter", planes) if with_point else ("numerical", 0))


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


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "expected a mapping at top level"),
    ({"alpha_kwp": [1], "bank": 5}, "bank: expected a mapping"),
    ({"alpha_kwp": [1]}, "bank: expected a mapping"),
    ({"alpha_kwp": 1, "bank": {"geometry_hash": "abc"}},
     "alpha_kwp: expected a list"),
    ({"alpha_kwp": ["x"], "bank": {"geometry_hash": "abc"}},
     "alpha_kwp: expected a number"),
    ("{\n bad", "Expecting property name"),  # not JSON at all
], ids=["list", "bank-not-a-mapping", "no-bank", "alpha-not-a-list",
        "alpha-not-numbers", "not-json"])
def test_disaggregate_refuses_a_model_fit_did_not_write(pipeline, tmp_path,
                                                        capsys, doc,
                                                        message):
    """A model document that is not JSON, or lacks fit's keys, exits 2
    naming the file and the key, never a traceback."""
    model = tmp_path / "model.json"
    model.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "est.csv"
    assert main(["disaggregate", "--model", str(model),
                 "--site", str(pipeline["site"]),
                 "--ghi", str(pipeline["data"] / "ghi.csv"),
                 "--t-air", str(pipeline["data"] / "t_air.csv"),
                 "--p", str(pipeline["data"] / "p.csv"),
                 "--out", str(out)]) == 2
    assert f"{model}: {message}" in capsys.readouterr().err
    assert not out.exists()


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


_A_AND_D = [{"method": "A"}, {"method": "D", "f_low_hz": 0.0002,
                             "f_high_hz": 0.0008}]


@pytest.mark.parametrize("config, message", [
    ({"methods": _A_AND_D + [{"method": "C"}], "resolutions_s": [300, 900]},
     "method C needs c"),
    # the band fits at 300 s but lies above the Nyquist rate at 900 s
    ({"methods": _A_AND_D + [{"method": "C", "c": 30}],
      "resolutions_s": [300, 900]}, "f_low < f_high < rate/2"),
    ({"methods": [{"method": "A"}], "resolutions_s": [300, 450]},
     "450 s is not a multiple of 300 s"),
    ({"methods": [{"method": "A"}], "resolutions_s": [300, 2100]},
     "2100 s is not a multiple of 300 s that divides one day"),
    ({"methods": [{"method": "A"}], "mode": "penetration",
      "fractions": [1.0, 0.5, 2.0]}, "fractions must lie in (0, 1]"),
    # a one-day band: its settling time pads more than a day at 300 s
    ({"methods": [{"method": "A"}, {"method": "D",
                                    "f_low_hz": 1.1574074074074073e-05,
                                    "f_high_hz": 0.00025}],
      "resolutions_s": [300]}, "edge padding (291 samples)"),
    # c would fan D out into two identical grid points
    ({"methods": _A_AND_D[:1] + [{**_A_AND_D[1], "c": [5, 10]}],
      "resolutions_s": [300]}, "method D takes no c"),
    ({"methods": [{"method": "A"}, {"method": "B", "lam": float("nan")}],
      "resolutions_s": [300]}, "lam must be finite, got nan"),
    ({"methods": [{"method": "A"}, {"method": "B", "lam": [1.0, np.inf]}],
      "resolutions_s": [300]}, "lam must be finite, got inf"),
    # the night level is a constant, no longer a sweep key
    ({"methods": [{"method": "A",
                   "night_threshold_w_per_m2": float("nan")}],
      "resolutions_s": [300]}, "unknown method keys"),
    ({"methods": [{"method": "A"}], "resolutions_s": [300], "fold_seed": -1},
     "fold_seed: expected a nonnegative integer, got -1"),
    # free per-sample demand leaves the capacities unidentified
    ({"methods": [{"method": "A"}, {"method": "B", "lam": [1.0, 0.0]}],
      "resolutions_s": [300]}, "method B needs lam > 0, got 0.0"),
    ({"methods": [{"method": "A"}, {"method": "C", "c": [10, 1]}],
      "resolutions_s": [300]}, "method C needs c, an integer >= 2, got 1"),
    ({"methods": [{"method": "A"}, {"method": "D", "f_low_hz": 1e-12,
                                    "f_high_hz": 2e-12}],
      "resolutions_s": [300]}, "f_low=1e-12 Hz and f_high=2e-12 Hz"),
], ids=["last-entry", "last-resolution", "not-a-multiple",
        "not-a-day-divisor", "fraction-above-one", "padding-over-a-day",
        "foreign-parameter", "lam-nan", "lam-inf", "night-threshold-nan",
        "negative-fold-seed", "lam-zero", "c-one", "singular-band"])
def test_sweep_checks_the_whole_grid_before_any_fit(
        tmp_path, capsys, monkeypatch, config, message):
    """A grid point any of whose fits would be refused, or a fold seed
    the folds would refuse, exits 2 before the scenario is built, not
    after the fits listed before it."""
    calls = []
    real_fit = evaluation.fit

    def counting_fit(*args, **kwargs):
        calls.append(args[2].method)
        return real_fit(*args, **kwargs)
    monkeypatch.setattr(evaluation, "fit", counting_fit)
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(yaml.safe_dump({
        "scenario": {"days": 3, "period_s": 300}, **config}))
    assert main(["sweep", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


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
    ("sweep", {"scenario": {"days": 3, "period_s": 300}, "methods": 5},
     2, "methods: expected a list of mappings"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300}, "methods": ["A"]},
     2, "methods: expected a list of mappings"),
    ("synth", {"days": 3, "period_s": 300, "cloud_kinds": 5},
     2, "cloud_kinds: expected a list"),
    # YAML reads yes, no, on and off as booleans: never numbers
    ("synth", {"days": 3, "period_s": 300, "noise_kw": True},
     2, "noise_kw: expected a number, got True"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "C", "c": True}],
               "resolutions_s": [900]},
     2, "c: expected a number, got True"),
    ("synth", {"days": 3, "period_s": 300, "self_consumption": "no"},
     2, "self_consumption: expected true or false"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "resolution_s": [900]},
     2, "unknown cv sweep keys: ['resolution_s']"),
    ("sweep", {"scenario": {"days": 3, "period_s": 300},
               "methods": [{"method": "A"}], "mode": "penetration",
               "resolutions_s": [900]},
     2, "unknown penetration sweep keys: ['resolutions_s']"),
    ("transpose", {"latitude": 47.5, "longitude": 7.5, "albdeo": 0.9},
     2, "unknown site keys: ['albdeo']"),
    ("transpose", {"latitude": 47.5, "longitude": 7.5,
                   "planes": [{"tilt": 10, "azimuth": 180, "kwp": 5}]},
     2, "unknown planes keys: ['kwp']"),
    ("synth", {"days": 3, "period_s": 300,
               "plant": [{"tilt": 10, "azimuth": 180, "kwp": 5,
                          "kwh": 9}]},
     2, "unknown plant keys: ['kwh']"),
    # past int64 seconds: refused before the time grid is built
    ("synth", {"days": 3, "period_s": 300, "start_epoch": 10 ** 20},
     2, "start_epoch: the 3-day grid"),
    ("synth", {"days": 3, "period_s": 300, "start_epoch": 4200000000},
     2, "start_epoch: the 3-day grid"),
    ("synth", {"days": 3, "period_s": 300, "start_epoch": -700000000},
     2, "start_epoch: the 3-day grid"),
    ("synth", {"days": 3, "period_s": 300, "seed": -1},
     2, "seed must be >= 0, got -1"),
    # the demand shape and the battery are the simulator's own constants
    ("synth", {"days": 3, "period_s": 300, "demand_base_kw": 6.0,
               "demand_step_s": 1800, "inrush_kw": 4.0,
               "inrush_duration_s": 120, "battery_kva": 12.0,
               "battery_kwh": 26.4},
     2, "unknown scenario keys: ['battery_kva', 'battery_kwh', "
        "'demand_base_kw', 'demand_step_s', 'inrush_duration_s', "
        "'inrush_kw']"),
    ("synth", {"days": 3, "period_s": 3600},  # divides a day, not the step
     2, "period_s must divide the 1800 s demand step"),
    ("transpose", {"longitude": 7.5}, 2, "latitude: expected a number"),
    # a cycling load needs a half-cycle of at least one sample
    ("synth", {"days": 3, "period_s": 300, "cycle_kw": 2.0,
               "cycle_period_s": 0}, 2, "cycle_period_s must give"),
    ("synth", {"days": 3, "period_s": 300, "cycle_kw": 2.0,
               "cycle_period_s": 1}, 2, "cycle_period_s must give"),
    ("synth", {"days": 3, "period_s": 300, "cycle_kw": 2.0,
               "cycle_period_s": -600}, 2, "cycle_period_s must give"),
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


@pytest.mark.parametrize("command", ["transpose", "fit"])
def test_an_empty_plane_list_exits_2_before_any_csv_is_read(
        pipeline, tmp_path, monkeypatch, capsys, command):
    """`planes: []` is refused while the site YAML is parsed, with exit 2
    and a message naming planes: no series is read and no bank built."""
    site = tmp_path / "site.yaml"
    site.write_text(yaml.safe_dump({"latitude": 47.5, "longitude": 7.5,
                                    "planes": []}))

    def no_read(*args):
        pytest.fail(f"{command} read a CSV: {args}")
    monkeypatch.setattr(cli, "ingest_csv", no_read)
    data = pipeline["data"]
    argv = [command, "--site", str(site), f"--ghi={data / 'ghi.csv'}",
            f"--t-air={data / 't_air.csv'}"]
    if command == "fit":
        argv += [f"--p={data / 'p.csv'}", "--method", "C", "--c", "30",
                 "--out-model", str(tmp_path / "model.json")]
    else:
        argv += ["--out", str(tmp_path / "bank.csv")]
    assert main(argv) == 2
    assert "planes: expected at least one plane" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [site]


# ---------------------------------------------------------------------------
# which modules each command loads

_SOLVER_MODULES = ("scipy.signal", "scipy.stats", "scipy.optimize",
                   "scipy.linalg", "scipy.sparse")

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import pvdisagg
new = {name.split(".")[0] for name in set(sys.modules) - before}
seen = {"import pvdisagg": sorted(new - set(sys.stdlib_module_names))}
import pvdisagg.cli
solvers = %r
seen["import pvdisagg.cli"] = [m for m in solvers if m in sys.modules]
for label, argv in json.loads(sys.argv[1]):
    assert pvdisagg.cli.main(argv) == 0, argv
    seen[label] = [m for m in solvers if m in sys.modules]
print(json.dumps(seen))
""" % (_SOLVER_MODULES,)


def test_only_fit_loads_scipy(pipeline, tmp_path):
    """No command loads scipy's solver modules.  transpose, disaggregate
    and metrics, fits by B, C, D and A, and a sweep of A run one after
    another in one process: every solver and the band-pass filter are
    numpy only, and the package needs only numpy."""
    data, site = pipeline["data"], str(pipeline["site"])
    series = [f"--ghi={data / 'ghi.csv'}", f"--t-air={data / 't_air.csv'}"]
    fit = ["fit", "--site", site, *series, f"--p={data / 'p.csv'}"]
    sweep = tmp_path / "sweep.yaml"
    sweep.write_text(yaml.safe_dump({
        "scenario": {"days": 3, "period_s": 300},
        "methods": [{"method": "A"}], "resolutions_s": [900]}))
    runs = [
        ("transpose", ["transpose", "--site", site, *series,
                       "--out", str(tmp_path / "b")]),
        ("disaggregate", ["disaggregate", "--model", str(pipeline["model"]),
                          "--site", site, *series, f"--p={data / 'p.csv'}",
                          "--out", str(tmp_path / "e")]),
        ("metrics", ["metrics", f"--g-true={data / 'g_true.csv'}",
                     f"--g-hat={tmp_path / 'e'}", "--capacity-kwp", "35.3",
                     "--out", str(tmp_path / "m")]),
        ("fit B", [*fit, "--method", "B", "--lam", "1",
                   "--out-model", str(tmp_path / "mb")]),
        ("fit C", [*fit, "--method", "C", "--c", "30",
                   "--out-model", str(tmp_path / "mc")]),
        ("fit D", [*fit, "--method", "D", "--f-low-s", "7200",
                   "--f-high-s", "600", "--out-model", str(tmp_path / "md")]),
        ("fit A", [*fit, "--method", "A",
                   "--out-model", str(tmp_path / "ma")]),
        ("sweep A", ["sweep", "--config", str(sweep),
                     "--out-dir", str(tmp_path / "s")]),
    ]
    src = str(Path(pvdisagg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("import pvdisagg") == ["numpy", "pvdisagg"]
    assert seen == {"import pvdisagg.cli": [], "transpose": [],
                    "disaggregate": [], "metrics": [], "fit B": [],
                    "fit C": [], "fit D": [], "fit A": [], "sweep A": []}


@pytest.mark.parametrize("method, flags", [
    ("B", ["--lam", "1"]), ("D", ["--f-low-s", "7200", "--f-high-s", "600"]),
    ("A", [])], ids=["B", "D", "A"])
def test_fit_is_the_same_under_python_O(pipeline, tmp_path, method, flags):
    """python -O strips assert statements; every check a fit relies on
    raises instead, so the fit exits 0 with the same capacities."""
    data = pipeline["data"]
    src = str(Path(pvdisagg.__file__).resolve().parents[1])
    alphas = []
    for opt in ([], ["-O"]):
        model = tmp_path / f"model{''.join(opt)}.json"
        proc = subprocess.run(
            [sys.executable, *opt, "-m", "pvdisagg.cli", "fit",
             "--site", str(pipeline["site"]),
             f"--ghi={data / 'ghi.csv'}", f"--t-air={data / 't_air.csv'}",
             f"--p={data / 'p.csv'}", "--method", method, *flags,
             "--out-model", str(model)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        alphas.append(json.loads(model.read_text())["alpha_kwp"])
    assert alphas[0] == alphas[1]


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


def test_readme_usage_commands_parse():
    """Every ``pvdisagg ...`` command in the README's "Command-line usage"
    block, continuation lines joined and split as a shell would, parses:
    a flag the CLI dropped fails here, not in a reader's shell."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line usage", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("pvdisagg ")]
    assert [c[1] for c in commands] == ["synth", "transpose", "fit",
                                        "disaggregate", "metrics", "sweep"]
    parser = build_parser()
    for cmd in commands:
        args = parser.parse_args(cmd[1:])
        assert args.command == cmd[1]
