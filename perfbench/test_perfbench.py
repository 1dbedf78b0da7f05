"""Smoke tests of the benchmark itself.

Every workload runs at smoke size through run.py, untraced and traced (so
the launcher, the span wrappers and the output checks all run), the result
set goes through suite.py's show and compare, and run.py must refuse to
run where the package sources are missing.
"""

import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import suite
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.jsonl"
    subprocess.run([sys.executable, str(HERE / "suite.py"), "collect",
                    "--out", str(out), "--runs", "1", "--seconds", "0",
                    "--size", "smoke"],
                   check=True, capture_output=True, text=True, timeout=600)
    return suite.load(out)


def test_every_workload_passes_its_checks_traced_and_untraced(smoke_set):
    seen = {(r["env"]["workload"], r["trace"]) for r in smoke_set}
    assert seen == {(w, t) for w in suite.WORKLOADS for t in (0, 1)}
    for record in smoke_set:
        assert record["attempted"] >= 1
        assert record["failed"] == 0, record["failures"]


def test_traced_runs_attribute_time_to_the_expected_layers(smoke_set):
    traced = {r["env"]["workload"]: r["metrics"] for r in smoke_set
              if r["trace"]}
    fit_day, cli, sweep = (traced["fit-day"], traced["cli-14d"],
                           traced["sweep-cv"])
    assert fit_day["optim.solve_l1_trend_qp.self_s"] > 0
    assert fit_day["dsp.apply_array.calls"] == 22  # P plus 21 planes
    assert fit_day["evaluation.penetration_experiment.self_s"] > 0
    assert cli["optim.solve_qp.self_s"] == 0
    assert cli["optim.solve_l1_trend_qp.self_s"] == 0
    assert cli["timeseries.ingest_csv.calls"] == 10
    assert cli["cli.import_s"] > 0 and cli["cli.bytes_written"] > 0
    assert sweep["optim.solve_qp.self_s"] > 0
    assert sweep["cli.cmd_sweep.self_s"] > 0


def test_show_and_compare_a_set_against_itself(smoke_set):
    spec = suite.load_spec()
    shown = io.StringIO()
    suite.show(smoke_set, spec, out=shown)
    for name in ("wall_s", "setup_s", "fit_s.B", "nrmse_pct.D",
                 "failed_frac", "tracing overhead"):
        assert name in shown.getvalue()
    verdicts = suite.compare(smoke_set, smoke_set, spec, out=io.StringIO())
    assert len(verdicts) >= 3 * len(spec["end_to_end"])
    assert set(verdicts.values()) == {"unchanged"}


def test_verdict_rules():
    base = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    assert suite.verdict(base, [x * 0.5 for x in base], 0.25) == "better"
    assert suite.verdict(base, [x * 1.5 for x in base], 0.25) == "worse"
    assert suite.verdict(base, [x * 1.01 for x in base], 0.25) == "unchanged"
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 1.1, 0.9, 0.7, 1.3, 1.0]
    assert suite.verdict(base, noisy, 0.25) == "unresolved"
    assert suite.verdict([0, 0], [0, 1], 0.0) == "worse"


def test_nrmse_is_judged_on_per_seed_pairs():
    weather = [5.0, 9.0, 6.5, 12.0, 7.0, 8.0, 5.5, 10.0, 6.0, 11.0]
    assert suite.paired_verdict(weather, [x * 1.04 for x in weather]) \
        == "worse"
    assert suite.paired_verdict(weather, [x * 0.96 for x in weather]) \
        == "better"
    assert suite.paired_verdict(weather, list(weather)) == "unchanged"


def _record(workload, seed, **metrics):
    return {"env": {"workload": workload, "seed": seed}, "trace": 0,
            "metrics": metrics}


def test_no_better_verdict_while_failures_grow():
    spec = suite.load_spec()
    base = [_record("w", s, wall_s=10.0 + s / 10, failed_frac=0.0)
            for s in range(10)]
    faster = [_record("w", s, wall_s=5.0 + s / 10, failed_frac=0.0)
              for s in range(10)]
    failing = [_record("w", s, wall_s=5.0 + s / 10, failed_frac=0.5)
               for s in range(10)]
    out = io.StringIO()
    assert suite.compare(base, faster, spec, out)[("w", "wall_s")] \
        == "better"
    verdicts = suite.compare(base, failing, spec, out)
    assert verdicts[("w", "failed_frac")] == "worse"
    assert verdicts[("w", "wall_s")] == "unresolved"


def test_self_time_excludes_child_spans():
    dump = {"spans": [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                      ["b", 5.0, 6.0, 0, 0]], "counts": {"fits": 1}}
    s = summarize([dump, dump])
    assert s["self_s"]["a"] == 12.0 and s["s"]["a"] == 20.0
    assert s["s"]["b"] == 8.0 and s["calls"]["b"] == 4
    assert s["counts"]["fits"] == 2


def test_tracer_wraps_every_binding_and_restores_them():
    import pvdisagg
    from pvdisagg import evaluation, methods, optim, solar
    before = (optim.solve_qp, methods.solve_qp, solar.build_bank,
              evaluation.build_bank, pvdisagg.build_bank,
              solar.PlaneBank.resampled)
    with Tracer().installed():
        assert methods.solve_qp is optim.solve_qp is not before[0]
        assert evaluation.build_bank is solar.build_bank is not before[2]
        assert pvdisagg.build_bank is solar.build_bank
        assert solar.PlaneBank.resampled is not before[5]
    assert before == (optim.solve_qp, methods.solve_qp, solar.build_bank,
                      evaluation.build_bank, pvdisagg.build_bank,
                      solar.PlaneBank.resampled)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fit-day",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
