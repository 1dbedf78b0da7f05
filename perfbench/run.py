"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload fit-day --seed 0 --seconds 40 \
        --trace 0 [--size smoke] [--record results.jsonl]

Set-up builds the workload's inputs from the seed three times (setup_s is
the package import plus the median of the three).  The timed part then
repeats the workload's operation on those inputs, one process at a time,
as often as fits in --seconds at the pace measured so far (at least
once).  Every output is checked; repeated operations must reproduce the
first one's outputs.  The last line of stdout is one JSON object: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics (from spans recorded around the package's public functions) with
--trace 1.  --record appends the full result, environment stamp
included, as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from suite import WORKLOADS, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
#: one BLAS thread: the benchmark sends load from one process at a time,
#: and BLAS worker threads would compete with it for the same cores
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", type=Path, default=None,
                        metavar="JSONL")
    return parser.parse_args(argv)


def environment(workload: str, seed: int) -> dict:
    """Where and on what this result was measured."""
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _median_of(ops, key) -> float:
    return statistics.median(key(op) for op in ops)


def summarize_ops(ops, in_process: bool) -> tuple:
    """End-to-end metrics of the timed operations plus per-method detail.

    Returns (metrics, detail): both map name -> (value, sample count).
    """
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "wall_s": (_median_of(ops, lambda op: op.wall_s), len(ops)),
        "fit_s": (_median_of(ops, lambda op: sum(
            sum(v) for v in op.fit_s.values())), len(ops)),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, 1),
    }
    detail = {}
    for method in sorted({m for op in ops for m in op.fit_s}):
        times = [t for op in ops for t in op.fit_s.get(method, [])]
        detail[f"fit_s.{method}"] = (statistics.median(times), len(times))
    for method in sorted({m for op in ops for m in op.nrmse_pct}):
        errs = [e for op in ops for e in op.nrmse_pct.get(method, [])]
        detail[f"nrmse_pct.{method}"] = (statistics.fmean(errs), len(errs))
    return metrics, detail


def check_repeats(ops) -> None:
    """A repeated operation must reproduce the first one's outputs."""
    first = {u.name: u.digest for u in ops[0].units}
    for op in ops[1:]:
        for unit in op.units:
            if not unit.problems and unit.digest != first.get(unit.name):
                unit.problems.append("output differs from the first "
                                     "operation's")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pvdisagg" / "__init__.py").is_file():
        print(f"error: no pvdisagg package under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and pvdisagg
    import_s = time.perf_counter() - t0

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.size == "smoke")
        prep = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs = wl.prepare(args.seed)
            prep.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(prep)

        # start another operation only while it should end within --seconds
        ops = []
        start = time.perf_counter()
        while not ops or (time.perf_counter() - start) * (len(ops) + 1) \
                / len(ops) <= args.seconds:
            ops.append(wl.run_op(inputs, len(ops), bool(args.trace)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # others may still use it
            workdir.parent.rmdir()

    check_repeats(ops)
    units = [u for op in ops for u in op.units]
    failed = [u for u in units if u.problems]
    e2e, detail = summarize_ops(ops, wl.in_process)
    e2e["setup_s"] = (setup_s, SETUP_REPS)
    detail["failed_frac"] = (len(failed) / len(units), len(units))

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        per_op = [workloads.layer_metrics(names, op.spans, op.wall_s,
                                          op.bytes_written) for op in ops]
        shown = {n: (statistics.median(p[n] for p in per_op), len(ops))
                 for n in names}
        wanted = spec["per_layer"]
    else:
        shown = e2e
        wanted = spec["end_to_end"]

    env = environment(args.workload, args.seed)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} ops={len(ops)} " + " ".join(
              f"{k}={v}" for k, v in env.items()
              if k not in ("workload", "seed")))
    table = shown if args.trace else {**shown, **detail}
    for name, (value, n) in table.items():
        print(f"{name:44s} {value:14.6g} {unit_of(name, spec):6s} n={n}")
    for unit in failed:
        print(f"FAILED {unit.name}: {'; '.join(unit.problems)}")

    if args.record is not None:
        record = {"env": env, "trace": args.trace, "size": args.size,
                  "seconds": args.seconds, "ops": len(ops),
                  "attempted": len(units), "failed": len(failed),
                  "metrics": {n: v for n, (v, _) in
                              {**e2e, **detail, **(shown if args.trace
                                                   else {})}.items()},
                  "op_wall_s": [op.wall_s for op in ops],
                  "setup_parts_s": {"import": import_s, "inputs": prep},
                  "failures": [f"{u.name}: {'; '.join(u.problems)}"
                               for u in failed]}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": not failed, "attempted": len(units),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": shown[m["name"]][0],
                                "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
