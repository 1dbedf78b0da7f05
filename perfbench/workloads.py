"""The benchmark's three workloads: inputs, one timed operation, checks.

Each workload has `prepare(seed)`, which builds the inputs (timed as
set-up), and `run_op(inputs, k, trace)`, which performs operation k and
returns an `OpResult`.  An operation is the workload's whole unit of work
(for `cli-14d` four CLI processes in sequence); inside it every fit or CLI
process is a checked `Unit`.  Repeated operations read the same inputs, so
their outputs must match the first operation's bytewise, except for the
timing fields listed in `TIMING_FIELDS`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pvdisagg import evaluation
from pvdisagg.evaluation import ScenarioSpec, generate_scenario
from pvdisagg.methods import MethodParams
from pvdisagg.timeseries import SECONDS_PER_DAY, make_folds, write_csv
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent

PLANT_KWP = 35.3        # the default plant every scenario here uses
KWP_TOLERANCE = 0.10    # a fitted total must land within 10% of it
NRMSE_CEILING = 25.0    # % of capacity; an all-zero fit scores ~30-40%
PROCESS_TIMEOUT_S = 150

#: fields that carry wall-clock time and are left out of output comparison
TIMING_FIELDS = {"model.json": "train_seconds", "report.json": "wall_time_s",
                 "rows.csv": "seconds"}

SITE_YAML = "latitude: 47.5\nlongitude: 7.5\naltitude: 260\n"


@dataclass
class Unit:
    """One checked operation: a fit or a CLI process."""

    name: str
    problems: list = field(default_factory=list)
    digest: str = ""


@dataclass
class OpResult:
    wall_s: float
    units: list
    fit_s: dict = field(default_factory=dict)      # method -> [seconds]
    nrmse_pct: dict = field(default_factory=dict)  # method -> [percent]
    spans: list = field(default_factory=list)      # span dumps, traced only
    bytes_written: int = 0

    def add_fit(self, method, seconds, nrmse):
        self.fit_s.setdefault(method, []).append(float(seconds))
        self.nrmse_pct.setdefault(method, []).append(float(nrmse))


def _digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _nrmse_problems(value, ceiling=NRMSE_CEILING) -> list:
    if not math.isfinite(value) or value < 0:
        return [f"nRMSE {value!r} is not a finite percentage"]
    if value > ceiling:
        return [f"nRMSE {value:.2f}% above the {ceiling:g}% ceiling"]
    return []


# ---------------------------------------------------------------------------
# fit-day: one acceptance-criterion-4 day, solved in-process

FIT_DAY_METHODS = (
    MethodParams("A", 1),
    MethodParams("B", 1, lam=1.0),
    MethodParams("C", 1, c=10),
    MethodParams("D", 1, f_low=1 / 1200, f_high=1 / 300),
)


def stitched_scenario(train_spec: ScenarioSpec,
                      seeded_spec: ScenarioSpec):
    """The seeded scenario with its training day taken from train_spec.

    Method B's ADMM iteration count swings from 600 to 18,000 with the
    input, so a seeded training day would make the run time a property of
    the seed.  The training day stays fixed; the seed draws the held-out
    days the fits are scored on.
    """
    base = generate_scenario(train_spec)
    data = generate_scenario(seeded_spec)
    spd = SECONDS_PER_DAY // train_spec.period_s
    train_days, _ = make_folds(train_spec.days, 0).train_test(0)
    idx = np.concatenate([np.arange(d * spd, (d + 1) * spd)
                          for d in train_days])

    def mix(fixed, seeded):
        out = seeded.copy()
        out[..., idx] = fixed[..., idx]
        return out

    series = {name: getattr(data, name).with_values(
                  mix(getattr(base, name).values, getattr(data, name).values))
              for name in ("p", "ghi", "t_air", "g_true", "l_true",
                           "battery")}
    bank = dataclasses.replace(
        data.bank, irradiance=mix(base.bank.irradiance, data.bank.irradiance))
    return dataclasses.replace(data, bank=bank, **series)


class FitDay:
    name = "fit-day"
    in_process = True

    def __init__(self, workdir: Path, smoke: bool):
        # smoke: 2-minute samples keep every band edge of D valid
        self.period_s, self.resolution = (120, 120) if smoke else (10, 30)

    def spec(self, seed: int) -> ScenarioSpec:
        return ScenarioSpec(days=3, period_s=self.period_s, noise_kw=0.5,
                            cycle_kw=2.5, cycle_period_s=240,
                            cloud_kinds=("partly",) * 3, seed=seed)

    def prepare(self, seed: int):
        return stitched_scenario(self.spec(0), self.spec(seed))

    def run_op(self, data, k: int, trace: bool) -> OpResult:
        tracer = Tracer(op=k) if trace else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                # through the module, so a traced wrapper is the one called
                rows = evaluation.penetration_experiment(
                    data, FIT_DAY_METHODS, fractions=(1.0,),
                    resolution=self.resolution)
            except Exception as exc:  # a raising fit fails the op only
                return OpResult(time.perf_counter() - t0,
                                [Unit("penetration_experiment",
                                      [f"raised {exc!r}"])])
            wall_s = time.perf_counter() - t0
        result = OpResult(wall_s, [],
                          spans=[tracer.to_dict()] if tracer else [])
        for row in rows:
            unit = Unit(f"fit {row['method']}",
                        _nrmse_problems(row["nrmse"]),
                        _digest({k: v for k, v in row.items()
                                 if k != "seconds"}))
            if not row["converged"]:
                unit.problems.append("converged=False")
            result.units.append(unit)
            result.add_fit(row["method"], row["seconds"], row["nrmse"])
        if len(rows) != len(FIT_DAY_METHODS):
            result.units.append(Unit("rows", [
                f"{len(rows)} rows, expected {len(FIT_DAY_METHODS)}"]))
        return result


# ---------------------------------------------------------------------------
# CLI workloads: subprocesses, traced through the launcher when asked

def run_cli(workdir: Path, argv: list, k: int, trace: bool):
    """Run one CLI process in workdir; returns (Unit, span dump or None)."""
    name = argv[0]
    spans_path = workdir / f"spans-{k}-{name}.json"
    if trace:
        cmd = [sys.executable, str(HERE / "launch.py"),
               "--spans", str(spans_path), "--op", str(k), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "pvdisagg.cli", *argv]
    unit = Unit(name)
    try:
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        unit.problems.append(f"timed out after {PROCESS_TIMEOUT_S} s")
        return unit, None
    if proc.returncode != 0:
        unit.problems.append(f"exit code {proc.returncode}: "
                             f"{proc.stderr.strip()[-300:]}")
    dump = None
    if trace and spans_path.exists():
        dump = json.loads(spans_path.read_text())
        spans_path.unlink()
    return unit, dump


def _data_rows(blob: bytes) -> int:
    """Data lines of a CSV table: all lines minus comments and header."""
    lines = blob.count(b"\n")
    comments = blob.count(b"\n#") + blob.startswith(b"#")
    return lines - comments - 1


def _load_json(path: Path, unit: Unit):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        unit.problems.append(f"{path.name}: {exc}")
        return None


class Cli14d:
    name = "cli-14d"
    in_process = False

    def __init__(self, workdir: Path, smoke: bool):
        self.dir = workdir
        self.days, self.period_s = (3, 60) if smoke else (14, 10)

    def prepare(self, seed: int) -> int:
        spec = ScenarioSpec(days=self.days, period_s=self.period_s,
                            noise_kw=0.1, seed=seed)
        data = generate_scenario(spec)
        for name in ("p", "ghi", "t_air", "g_true"):
            write_csv(getattr(data, name), self.dir / f"{name}.csv")
        (self.dir / "site.yaml").write_text(SITE_YAML)
        return len(data.p)

    def steps(self):
        """(CLI arguments, output files, output check) per process."""
        common = ["--site", "site.yaml", "--ghi", "ghi.csv",
                  "--t-air", "t_air.csv"]
        return [
            (["transpose", *common, "--out", "bank.csv"], ("bank.csv",),
             self._check_transpose),
            (["fit", *common, "--p", "p.csv", "--method", "D",
              "--f-low-s", "1200", "--f-high-s", "300",
              "--out-model", "model.json", "--out-report", "report.json"],
             ("model.json", "report.json"), self._check_fit),
            (["disaggregate", "--model", "model.json", *common,
              "--p", "p.csv", "--out", "est.csv"], ("est.csv",),
             self._check_disaggregate),
            (["metrics", "--g-true", "g_true.csv", "--g-hat", "est.csv",
              "--capacity-kwp", str(PLANT_KWP), "--out", "metrics.json"],
             ("metrics.json",), self._check_metrics),
        ]

    def run_op(self, n_rows: int, k: int, trace: bool) -> OpResult:
        steps = self.steps()
        for _, outputs, _ in steps:
            for out in outputs:
                (self.dir / out).unlink(missing_ok=True)
        result = OpResult(0.0, [])
        t0 = time.perf_counter()
        for argv, _, _ in steps:
            unit, dump = run_cli(self.dir, argv, k, trace)
            result.units.append(unit)
            if dump is not None:
                result.spans.append(dump)
        result.wall_s = time.perf_counter() - t0

        for unit, (_, outputs, check) in zip(result.units, steps):
            if unit.problems:
                continue
            result.bytes_written += sum((self.dir / o).stat().st_size
                                        for o in outputs)
            check(unit, n_rows, result)
        return result

    def _check_transpose(self, unit, n_rows, result):
        blob = (self.dir / "bank.csv").read_bytes()
        if _data_rows(blob) != n_rows:
            unit.problems.append(
                f"bank.csv has {_data_rows(blob)} rows, expected {n_rows}")
        unit.digest = _digest(blob)

    def _check_fit(self, unit, n_rows, result):
        model = _load_json(self.dir / "model.json", unit)
        report = _load_json(self.dir / "report.json", unit)
        if model is None or report is None:
            return
        if not report.get("converged"):
            unit.problems.append("converged=False")
        alpha = np.asarray(model["alpha_kwp"], dtype=float)
        if not np.all(np.isfinite(alpha)) or np.any(alpha < 0):
            unit.problems.append("alpha is not finite and nonnegative")
        total = float(alpha.sum())
        if abs(total - PLANT_KWP) > KWP_TOLERANCE * PLANT_KWP:
            unit.problems.append(
                f"total {total:.3f} kWp is more than "
                f"{KWP_TOLERANCE:.0%} from the plant's {PLANT_KWP} kWp")
        result.fit_s["D"] = [float(model["train_seconds"])]
        model.pop(TIMING_FIELDS["model.json"])
        report.pop(TIMING_FIELDS["report.json"])
        unit.digest = _digest([model, report])

    def _check_disaggregate(self, unit, n_rows, result):
        blob = (self.dir / "est.csv").read_bytes()
        if b"# identity_violations=0\n" not in blob:
            unit.problems.append("est.csv does not report "
                                 "identity_violations=0")
        if _data_rows(blob) != n_rows:
            unit.problems.append(
                f"est.csv has {_data_rows(blob)} rows, expected {n_rows}")
        unit.digest = _digest(blob)

    def _check_metrics(self, unit, n_rows, result):
        blob = (self.dir / "metrics.json").read_bytes()
        metrics = _load_json(self.dir / "metrics.json", unit)
        if metrics is None:
            return
        unit.problems += _nrmse_problems(metrics["nrmse_pct"])
        if metrics["n_samples"] != n_rows:
            unit.problems.append(f"scored {metrics['n_samples']} samples, "
                                 f"expected {n_rows}")
        result.nrmse_pct["D"] = [float(metrics["nrmse_pct"])]
        unit.digest = _digest(blob)


class SweepCv:
    name = "sweep-cv"
    in_process = False

    def __init__(self, workdir: Path, smoke: bool):
        self.dir = workdir
        self.period_s, self.resolutions = \
            (60, [120, 300]) if smoke else (10, [30, 60, 300])
        self.methods = [{"method": "A"}, {"method": "C", "c": [10, 30]},
                        {"method": "D", "f_low_hz": 1 / 3600,
                         "f_high_hz": 1 / 900}]
        self.grid_points = len(self.resolutions) * 4

    def prepare(self, seed: int) -> None:
        # The scenario stays at seed 0: C's QP iteration count follows the
        # input so closely that the sweep's time ranged 12.5-21.7 s over
        # scenario seeds, and seed 9 leaves one D fit unconverged.  The
        # seed permutes the CV folds instead, which keeps the set of fits.
        config = {"mode": "cv", "fold_seed": seed,
                  "scenario": {"days": 3, "period_s": self.period_s,
                               "noise_kw": 0.1, "seed": 0},
                  "resolutions_s": self.resolutions,
                  "methods": self.methods}
        # JSON is valid YAML and keeps every float's exact digits
        (self.dir / "sweep.yaml").write_text(json.dumps(config, indent=1))

    def run_op(self, _inputs, k: int, trace: bool) -> OpResult:
        out = self.dir / "out"
        for name in ("rows.csv", "summary.json"):
            (out / name).unlink(missing_ok=True)
        t0 = time.perf_counter()
        unit, dump = run_cli(self.dir, ["sweep", "--config", "sweep.yaml",
                                        "--out-dir", "out"], k, trace)
        result = OpResult(time.perf_counter() - t0, [unit],
                          spans=[dump] if dump else [])
        if unit.problems:
            return result
        result.bytes_written = sum((out / name).stat().st_size
                                   for name in ("rows.csv", "summary.json"))
        summary = _load_json(out / "summary.json", unit)
        if summary is not None and summary["grid_points"] != self.grid_points:
            unit.problems.append(f"{summary['grid_points']} grid points, "
                                 f"expected {self.grid_points}")
        unit.digest = _digest((out / "summary.json").read_bytes())
        with open(out / "rows.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        if len(rows) != 3 * self.grid_points:
            unit.problems.append(
                f"rows.csv has {len(rows)} rows, expected "
                f"{3 * self.grid_points}")
        for i, row in enumerate(rows):
            fit = Unit(f"fit {i} {row['method']}@{row['resolution_s']}s",
                       _nrmse_problems(float(row["nrmse_pct"]),
                                       ceiling=math.inf))
            if row["converged"] != "1":
                fit.problems.append("converged=False")
            fit.digest = _digest({c: v for c, v in row.items()
                                  if c != TIMING_FIELDS["rows.csv"]})
            result.units.append(fit)
            result.add_fit(row["method"], row["seconds"], row["nrmse_pct"])
        return result


WORKLOADS = {w.name: w for w in (FitDay, Cli14d, SweepCv)}


def layer_metrics(names, dumps, wall_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced operation.

    `names` lists the span metrics wanted, as `<span>.self_s`,
    `<span>.s` or `<span>.calls`; counters, rates and the traced wall
    time are always added.
    """
    s = summarize(dumps)
    total, own, calls, counts = s["s"], s["self_s"], s["calls"], s["counts"]
    out = {}
    for name in names:
        if name.endswith(".self_s"):
            out[name] = own.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            out[name] = total.get(name[:-len(".s")], 0.0)
    for m in "ABCD":
        out[f"optim.iterations.{m}"] = counts.get(f"iterations.{m}", 0)
    fits = counts.get("fits", 0)
    out["optim.converged_frac"] = counts.get("converged", 0) / fits \
        if fits else 0.0
    bank_s = total.get("solar.build_bank", 0.0)
    out["solar.bank_plane_samples_per_s"] = \
        counts.get("bank_plane_samples", 0) / bank_s if bank_s else 0.0
    ingest_s = total.get("timeseries.ingest_csv", 0.0)
    out["timeseries.ingest_rows_per_s"] = \
        counts.get("ingest_rows", 0) / ingest_s if ingest_s else 0.0
    out["cli.import_s"] = s["import_s"]
    out["cli.bytes_written"] = bytes_written
    out["trace.wall_s"] = wall_s
    return out

