"""Collect, show and compare result sets of the benchmark.

    python3 perfbench/suite.py collect --out base.jsonl [--runs 10]
    python3 perfbench/suite.py show base.jsonl
    python3 perfbench/suite.py compare base.jsonl new.jsonl

`collect` runs every workload --runs times with seeds 0, 1, ... and tracing
off, then once more traced on seed 0, appending each run's record to
--out, and shows the set.  `show` prints, per workload, every end-to-end
metric (those of BENCHMARK.json plus per-method fit times, nRMSE and the
failed fraction) as median and quartiles with its unit and run count, the
tracing overhead and the traced run's per-layer figures.  `compare` pairs
the runs of two sets by workload and seed and gives each end-to-end metric
a verdict: better (the new side wins at least nine tenths of the pairs and
the medians differ by more than the base's quartile spread), worse (the
new median exceeds the base's by more than the metric's bound), unresolved
(the quartile spread of either side exceeds the bound) or unchanged.
nRMSE is fixed by the seed, so its verdict comes from the per-seed paired
differences instead (`paired_verdict`).  A workload whose failed fraction
rose gets no "better" verdict.  `compare` then lists the per-layer deltas
of the two traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fit-day", "cli-14d", "sweep-cv")
#: Relative per-seed change in nRMSE that counts as a change.  Two full
#: result sets of the same code gave each seed the same nRMSE to within
#: 1e-15 (summation order), so the bound only has to clear rounding; 1% of
#: the value is the smallest change in accuracy worth a verdict.
NRMSE_PAIRED_BOUND = 0.01


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def unit_of(name: str, spec: dict) -> str:
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    return {"nrmse_pct": "%", "failed_frac": "frac"}.get(
        name.split(".")[0], "s")


def bound_of(name: str, spec: dict) -> float:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if name.startswith("fit_s."):  # per-method fit times share fit_s's
        name = "fit_s"
    return bounds.get(name, 0.0)


def by_workload(records, traced: bool) -> dict:
    out = {}
    for r in records:
        if bool(r["trace"]) == traced:
            out.setdefault(r["env"]["workload"], []).append(r)
    return out


def e2e_names(runs, spec) -> list:
    names = [m["name"] for m in spec["end_to_end"]]
    extra = sorted({n for r in runs for n in r["metrics"]
                    if n.startswith(("fit_s.", "nrmse_pct."))})
    return names + extra + ["failed_frac"]


def show(records, spec, out=sys.stdout) -> None:
    untraced, traced = by_workload(records, False), by_workload(records, True)
    layer_names = [m["name"] for m in spec["per_layer"]]
    for wl in sorted(set(untraced) | set(traced)):
        runs = untraced.get(wl, [])
        print(f"\n== {wl}: {len(runs)} runs, "
              f"{sum(r['ops'] for r in runs)} timed operations", file=out)
        for name in e2e_names(runs, spec):
            vals = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"  {name:22s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g} {unit_of(name, spec):5s} n={len(vals)}",
                  file=out)
        for r in traced.get(wl, []):
            m = r["metrics"]
            if runs:
                wall = statistics.median(x["metrics"]["wall_s"] for x in runs)
                print(f"  tracing overhead: {m['trace.wall_s'] - wall:+.3f} s"
                      f" (traced {m['trace.wall_s']:.3f} s against untraced "
                      f"median {wall:.3f} s)", file=out)
            print(f"  traced run, seed {r['env']['seed']} (nonzero layers):",
                  file=out)
            for name in layer_names:
                if m.get(name):
                    print(f"    {name:42s} {m[name]:12.6g} "
                          f"{unit_of(name, spec)}", file=out)


def verdict(base: list, new: list, bound: float) -> str:
    """Lower is better; base and new are paired run by run."""
    if base == new:
        return "unchanged"
    if bound == 0.0:  # counts that must not grow, such as failures
        return "worse" if sum(new) > sum(base) else (
            "better" if sum(new) < sum(base) else "unchanged")
    b_q1, b_med, b_q3 = quartiles(base)
    n_med = quartiles(new)[1]
    wins = sum(n < b for b, n in zip(base, new))
    if wins >= 0.9 * len(base) and b_med - n_med > b_q3 - b_q1:
        return "better"
    if n_med > b_med * (1.0 + bound):
        return "worse"
    if max(spread(base), spread(new)) > bound and max(new) >= min(base):
        return "unresolved"
    return "unchanged"


def paired_verdict(base: list, new: list,
                   bound: float = NRMSE_PAIRED_BOUND) -> str:
    """Lower is better, for a metric each seed fixes: judge the per-seed
    relative differences, not the spread across seeds."""
    deltas = [(n - b) / b for b, n in zip(base, new)]
    med = statistics.median(deltas)
    if abs(med) <= bound:
        return "unchanged"
    if sum(d * med > 0 for d in deltas) >= 0.9 * len(deltas):
        return "worse" if med > 0 else "better"
    return "unresolved"


def compare(base_records, new_records, spec, out=sys.stdout) -> dict:
    base, new = by_workload(base_records, False), by_workload(new_records,
                                                             False)
    verdicts = {}
    for wl in sorted(set(base) & set(new)):
        b_runs = {r["env"]["seed"]: r for r in base[wl]}
        n_runs = {r["env"]["seed"]: r for r in new[wl]}
        seeds = sorted(set(b_runs) & set(n_runs))
        print(f"\n== {wl}: {len(seeds)} seed pairs", file=out)

        def pairs_of(name):
            pairs = [(b_runs[s]["metrics"].get(name),
                      n_runs[s]["metrics"].get(name)) for s in seeds]
            return [(b, n) for b, n in pairs if b is not None
                    and n is not None]

        ff = pairs_of("failed_frac")
        more_failures = verdict([b for b, _ in ff], [n for _, n in ff],
                                0.0) == "worse"
        for name in e2e_names([b_runs[s] for s in seeds], spec):
            pairs = pairs_of(name)
            if not pairs:
                continue
            b_vals, n_vals = [b for b, _ in pairs], [n for _, n in pairs]
            if name.startswith("nrmse_pct."):
                v = paired_verdict(b_vals, n_vals)
            else:
                v = verdict(b_vals, n_vals, bound_of(name, spec))
            if v == "better" and more_failures:
                v = "unresolved"  # faster by failing more is no gain
            verdicts[(wl, name)] = v
            bq, nq = quartiles(b_vals), quartiles(n_vals)
            wins = sum(n < b for b, n in pairs)
            print(f"  {name:20s} base {bq[1]:10.5g} [{bq[0]:.5g}, "
                  f"{bq[2]:.5g}]  new {nq[1]:10.5g} [{nq[0]:.5g}, "
                  f"{nq[2]:.5g}] {unit_of(name, spec):5s} wins "
                  f"{wins}/{len(pairs)}  {v}", file=out)
    b_tr, n_tr = by_workload(base_records, True), by_workload(new_records,
                                                             True)
    for wl in sorted(set(b_tr) & set(n_tr)):
        bm, nm = b_tr[wl][0]["metrics"], n_tr[wl][0]["metrics"]
        print(f"\n== {wl}: per-layer deltas of the traced runs", file=out)
        for m in spec["per_layer"]:
            b, n = bm.get(m["name"], 0), nm.get(m["name"], 0)
            if b or n:
                print(f"  {m['name']:42s} {b:12.6g} -> {n:12.6g} "
                      f"({n - b:+.6g} {m['unit']})", file=out)
    return verdicts


def collect(out: Path, runs: int, seconds: float, size: str) -> None:
    for wl in WORKLOADS:
        for seed, trace in [(s, 0) for s in range(runs)] + [(0, 1)]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--size", size,
                   "--record", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{' '.join(cmd)} exited "
                                 f"{proc.returncode}:\n{proc.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float,
                   default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p = sub.add_parser("show")
    p.add_argument("results", type=Path)
    p = sub.add_parser("compare")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.command == "collect":
        seconds = args.seconds if args.seconds is not None \
            else spec["run_seconds"]
        collect(args.out, args.runs, seconds, args.size)
        show(load(args.out), spec)
    elif args.command == "show":
        show(load(args.results), spec)
    else:
        compare(load(args.base), load(args.new), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
