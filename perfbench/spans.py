"""Span recorder that traces pvdisagg from outside the package.

`Tracer.installed()` swaps each traced public function for a wrapper that
records one span per call: name, start, end, parent span and operation id.
The wrapper replaces every ``pvdisagg.*`` module attribute bound to the
function, because `methods`, `evaluation` and `cli` import names directly,
and it also wraps `PlaneBank.resampled`.  Spans stay in memory until the
caller dumps them.  Stdlib only, so importing this module does not pull in
numpy before the launcher has timed the package import.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "optim": ("solve_l1_trend_qp", "solve_qp", "solve_lp", "irls_bisquare",
              "psd_check_and_regularize"),
    "methods": ("fit_method_a", "fit_method_b", "fit_method_c",
                "fit_method_d", "disaggregate", "predict_generation"),
    "dsp": ("apply_array", "design_bandpass"),
    "solar": ("build_bank", "sun_position", "decompose_ghi",
              "transpose_hay_davies", "temperature_correct"),
    "timeseries": ("ingest_csv", "resample_average"),
    "evaluation": ("generate_scenario", "run_cv", "penetration_experiment"),
    "cli": ("cmd_transpose", "cmd_fit", "cmd_disaggregate", "cmd_metrics",
            "cmd_sweep"),
}


def _count_fit(method):
    def hook(counts, out):
        cap = out[0] if isinstance(out, tuple) else out
        report = cap.report
        counts["fits"] += 1
        if report is not None:
            counts[f"iterations.{method}"] += int(report.iterations)
            counts["converged"] += int(bool(report.converged))
    return hook


def _count_bank(counts, bank):
    counts["bank_plane_samples"] += bank.n_planes * bank.n_samples


def _count_rows(counts, series):
    counts["ingest_rows"] += len(series)


HOOKS = {f"methods.fit_method_{m.lower()}": _count_fit(m) for m in "ABCD"}
HOOKS["solar.build_bank"] = _count_bank
HOOKS["timeseries.ingest_csv"] = _count_rows


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self._stack: list = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.op])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(self.counts, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in TRACED until the block exits."""
        restore = []
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"pvdisagg.{mod_name}")
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{mod_name}.{name}", original)
                for mod in _package_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
        bank_cls = importlib.import_module("pvdisagg.solar").PlaneBank
        original = bank_cls.resampled
        bank_cls.resampled = self.wrap("solar.PlaneBank.resampled", original)
        restore.append((bank_cls, "resampled", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def to_dict(self, **extra) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), **extra}

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(**extra), fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pvdisagg"
                                  or name.startswith("pvdisagg."))]


def summarize(dumps) -> dict:
    """Merge span dumps into per-name totals.

    Returns {"s": total seconds, "self_s": seconds not covered by child
    spans, "calls": span count} keyed by span name, plus the merged
    counters and the summed `import_s` of the dumps.  Within one process
    the spans nest strictly (the program is single-threaded), so a span's
    children never overlap and their durations add up to the time they
    cover.
    """
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    counts, import_s = Counter(), 0.0
    for dump in dumps:
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
        counts.update(dump.get("counts", {}))
        import_s += dump.get("import_s", 0.0)
    return {"s": dict(total), "self_s": dict(own), "calls": dict(calls),
            "counts": dict(counts), "import_s": import_s}
