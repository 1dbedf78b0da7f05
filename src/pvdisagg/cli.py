"""Command-line front end.

Subcommands: synth, transpose, fit, disaggregate, metrics, sweep.
Exit codes: 0 success, 2 bad input, 3 solver failure or non-convergence,
4 internal invariant violation.  Every file this tool writes starts with
a provenance comment (tool version, config hash, seed).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys

import numpy as np
import yaml

from . import __version__
from .errors import DisaggError, InputError, SolverError, config_number
from .evaluation import (DEFAULT_RESOLUTIONS, ScenarioSpec, compute_metrics,
                         generate_scenario, penetration_experiment, run_cv)
from .methods import CapacityVector, MethodParams, disaggregate, fit
from .solar import build_bank, site_from_config
from .timeseries import (SECONDS_PER_DAY, UNIT_CELSIUS, UNIT_KW,
                         UNIT_W_PER_M2, TimeSeries, ingest_csv, mask_night,
                         resample_average, write_csv, write_table)

_PARAM_KEYS = {  # YAML key -> MethodParams field
    "lam": "lam", "c": "c", "f_low_hz": "f_low", "f_high_hz": "f_high",
    "irls_tuning": "irls_tuning",
    "night_threshold_w_per_m2": "night_threshold",
}


def _config_hash(cfg) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _prov_comment(cfg, seed="-") -> str:
    return f"pvdisagg {__version__} config={_config_hash(cfg)} seed={seed}"


def _prov_dict(cfg, seed="-") -> dict:
    return {"tool": "pvdisagg", "version": __version__,
            "config": _config_hash(cfg), "seed": seed}


def _load_yaml(path):
    with open(path) as fh:
        out = yaml.safe_load(fh)
    if not isinstance(out, dict):
        raise InputError(f"{path}: expected a mapping at top level")
    return out


def _write_json(path, payload):
    if path is None:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _auto_segment(series: TimeSeries):
    """Day-boundary segmentation when the series spans multiple days."""
    spd = SECONDS_PER_DAY // series.period
    if len(series) > spd and len(series) % spd == 0:
        return spd
    return None


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = _load_yaml(args.scenario)
    if args.seed is not None:
        cfg["seed"] = args.seed
    spec = ScenarioSpec.from_dict(cfg)
    data = generate_scenario(spec)
    comments = [_prov_comment(spec.to_dict(), spec.seed)]
    out = args.out_dir.rstrip("/")
    os.makedirs(out, exist_ok=True)
    for name, series in (("p", data.p), ("ghi", data.ghi),
                         ("t_air", data.t_air), ("g_true", data.g_true),
                         ("l_true", data.l_true),
                         ("battery", data.battery)):
        write_csv(series, f"{out}/{name}.csv", comments=comments)
    _write_json(f"{out}/scenario.json",
                {"provenance": _prov_dict(spec.to_dict(), spec.seed),
                 "scenario": spec.to_dict(),
                 "capacity_kwp": spec.capacity_kwp})
    print(f"wrote 6 series ({len(data.p)} samples, {spec.days} days, "
          f"{spec.capacity_kwp:.1f} kWp) to {out}/")
    return 0


def _site_bank(args):
    """(site config, planes, GHI, bank) from --site, --ghi and --t-air."""
    cfg = _load_yaml(args.site)
    site, planes, model = site_from_config(cfg)
    ghi = ingest_csv(args.ghi, UNIT_W_PER_M2)
    bank = build_bank(ghi, ingest_csv(args.t_air, UNIT_CELSIUS), site,
                      planes, model)
    return cfg, planes, ghi, bank


def cmd_transpose(args) -> int:
    cfg, planes, ghi, bank = _site_bank(args)
    header = "timestamp," + ",".join(
        f"plane_{i + 1:02d}_w_per_m2" for i in range(bank.n_planes))
    comments = [_prov_comment(cfg),
                f"bank geometry {bank.geometry_hash}: " + "; ".join(
                    f"tilt={p.tilt:g} az={p.azimuth:g}" for p in planes)]
    write_table(args.out, ghi.timestamps(), bank.irradiance, header,
                comments)
    print(f"wrote {bank.n_planes}-plane bank "
          f"({bank.n_samples} samples) to {args.out}")
    return 0


def _cutoff_hz(value_hz, period_s, flag: str):
    """Cutoffs may be given in Hz or as a period in seconds (converted)."""
    if value_hz is not None and period_s is not None:
        raise InputError(f"give {flag} either in Hz or in seconds, not both")
    if period_s is not None:
        if period_s <= 0:
            raise InputError(f"{flag} period must be positive")
        return 1.0 / period_s
    return value_hz


def _method_params_from_args(args, period: int) -> MethodParams:
    return MethodParams(
        method=args.method, sampling_period=period,
        lam=args.lam, c=args.c,
        f_low=_cutoff_hz(args.f_low_hz, args.f_low_s, "--f-low"),
        f_high=_cutoff_hz(args.f_high_hz, args.f_high_s, "--f-high"),
        irls_tuning=args.irls_tuning,
        night_threshold=args.night_threshold)


def cmd_fit(args) -> int:
    if args.period_s is not None and args.period_s <= 0:
        raise InputError(f"--period-s must be positive, got {args.period_s}")
    site_cfg, planes, ghi, bank = _site_bank(args)
    p = ingest_csv(args.p, UNIT_KW)
    period = p.period if args.period_s is None else args.period_s
    if period != p.period:
        p = resample_average(p, period)
        ghi = resample_average(ghi, period)
        bank = bank.resampled(period)

    params = _method_params_from_args(args, period)
    night = None if args.no_night_mask else mask_night(
        ghi, params.night_threshold)
    cap, l_hat, seconds = fit(p, bank, params, night_mask=night,
                              segment_length=_auto_segment(p))

    cfg = {"site": site_cfg, "params": params.to_dict()}
    model_doc = {
        "provenance": _prov_dict(cfg),
        "method": params.method,
        "params": params.to_dict(),
        "bank": {"geometry_hash": bank.geometry_hash,
                 "planes": [{"tilt": pl.tilt, "azimuth": pl.azimuth}
                            for pl in planes]},
        "alpha_kwp": [float(a) for a in cap.alpha],
        "total_kwp": cap.total_kwp,
        "period_s": period,
        "train_seconds": seconds,
    }
    _write_json(args.out_model, model_doc)
    report = cap.report
    if args.out_report is not None:
        _write_json(args.out_report,
                    {"provenance": _prov_dict(cfg), **report.to_dict()})
    print(f"method {params.method}: total {cap.total_kwp:.3f} kWp "
          f"in {seconds:.2f} s "
          f"({'converged' if report.converged else 'NOT converged'})")
    return 0 if report.converged else 3


def cmd_disaggregate(args) -> int:
    with open(args.model) as fh:
        model_doc = json.load(fh)
    *_, bank = _site_bank(args)
    p = ingest_csv(args.p, UNIT_KW)

    alpha = CapacityVector(np.asarray(model_doc["alpha_kwp"], float),
                           model_doc["bank"]["geometry_hash"])
    result = disaggregate(p, alpha, bank)
    worst = result.report.notes["identity_max_abs_error_kw"]
    violations = result.report.notes["identity_violations"]
    comments = [_prov_comment(model_doc.get("provenance", {})),
                f"clip_count={result.report.notes['clip_count']}",
                f"identity_violations={violations}"]
    write_table(args.out, p.timestamps(),
                [result.g_hat.values, result.l_hat.values],
                "timestamp,g_hat_kw,l_hat_kw", comments)
    print(f"wrote estimates ({len(p)} samples, "
          f"{result.report.notes['clip_count']} demand samples clipped) "
          f"to {args.out}")
    if violations > 0 or worst > 1e-9:
        print(f"internal error: accounting identity violated on "
              f"{violations} samples (worst {worst:g} kW)", file=sys.stderr)
        return 4
    return 0


def cmd_metrics(args) -> int:
    g_true = ingest_csv(args.g_true, UNIT_KW)
    g_hat = ingest_csv(args.g_hat, UNIT_KW)
    m = compute_metrics(g_true, g_hat, args.capacity_kwp)
    cfg = {"capacity_kwp": args.capacity_kwp}
    _write_json(args.out, {"provenance": _prov_dict(cfg),
                           "nrmse_pct": m.nrmse, "nmae_pct": m.nmae,
                           "nme_pct": m.nme, "n_samples": m.n_samples})
    return 0


def _numbers(value, key: str, integer: bool = False) -> list:
    """A config value as a non-empty list of numbers; a scalar is a
    one-value list."""
    values = value if isinstance(value, (list, tuple)) else [value]
    if not values:
        raise InputError(f"{key}: expected at least one value")
    return [config_number(x, key, integer) for x in values]


def _expand_methods(entries) -> list:
    """Sweep config -> grid of MethodParams; list-valued keys fan out."""
    grid = []
    for entry in entries:
        entry = dict(entry)
        method = entry.pop("method", None)
        if method not in ("A", "B", "C", "D"):
            raise InputError(f"bad or missing method in {entry}")
        unknown = set(entry) - set(_PARAM_KEYS)
        if unknown:
            raise InputError(f"unknown method keys: {sorted(unknown)}")
        # only c is an integer
        options = {_PARAM_KEYS[k]: _numbers(v, k, k == "c")
                   for k, v in entry.items()}
        for combo in itertools.product(*options.values()):
            grid.append(MethodParams(method=method, sampling_period=1,
                                     **dict(zip(options, combo))))
    return grid


def cmd_sweep(args) -> int:
    cfg = _load_yaml(args.config)
    scen = cfg.get("scenario")
    if not isinstance(scen, dict):
        raise InputError("sweep config needs an inline 'scenario' mapping")
    spec = ScenarioSpec.from_dict(scen)
    grid = _expand_methods(cfg.get("methods", []))
    if not grid:
        raise InputError("sweep config lists no methods")
    fold_seed = config_number(cfg.get("fold_seed", 0), "fold_seed", True)
    data = generate_scenario(spec)

    out = args.out_dir.rstrip("/")
    os.makedirs(out, exist_ok=True)
    prov = _prov_comment(cfg, spec.seed)
    mode = cfg.get("mode", "cv")

    if mode == "cv":
        resolutions = _numbers(cfg.get("resolutions_s", DEFAULT_RESOLUTIONS),
                               "resolutions_s", True)
        result = run_cv(data, grid, resolutions=resolutions,
                        fold_seed=fold_seed)
        with open(f"{out}/rows.csv", "w", newline="\n") as fh:
            fh.write(f"# {prov}\n")
            fh.write("method,resolution_s,fold,params,nrmse_pct,"
                     "nmae_pct,nme_pct,seconds,converged\n")
            for r in result.rows:
                pjson = json.dumps(r.params, sort_keys=True)
                fh.write(f"{r.method},{r.resolution},{r.fold},"
                         f"\"{pjson.replace(chr(34), chr(39))}\","
                         f"{r.nrmse:.6f},{r.nmae:.6f},{r.nme:.6f},"
                         f"{r.seconds:.3f},{int(r.converged)}\n")
        summary = {"provenance": _prov_dict(cfg, spec.seed),
                   "grid_points": len(result.grid_points()),
                   "fold_stats": result.fold_stats("nrmse"),
                   "summary_nrmse": result.summary("nrmse")}
        _write_json(f"{out}/summary.json", summary)
        s = summary["summary_nrmse"]
        print(f"{len(result.rows)} rows over "
              f"{len(result.grid_points())} grid points; nRMSE "
              f"min={s['min']:.2f} median={s['median']:.2f} "
              f"mean={s['mean']:.2f} max={s['max']:.2f} %")
    elif mode == "penetration":
        fractions = _numbers(cfg.get("fractions", (1.0, 0.5, 0.25)),
                             "fractions")
        res = cfg.get("penetration_resolution_s")
        if res is not None:
            res = config_number(res, "penetration_resolution_s", True)
        rows = penetration_experiment(data, grid, fractions=fractions,
                                      fold_seed=fold_seed, resolution=res)
        with open(f"{out}/penetration.csv", "w", newline="\n") as fh:
            fh.write(f"# {prov}\n")
            fh.write("method,fraction,capacity_kwp,nrmse_pct,nmae_pct,"
                     "nme_pct,seconds,converged\n")
            for r in rows:
                fh.write(f"{r['method']},{r['fraction']:g},"
                         f"{r['capacity_kwp']:.3f},{r['nrmse']:.6f},"
                         f"{r['nmae']:.6f},{r['nme']:.6f},"
                         f"{r['seconds']:.3f},{int(r['converged'])}\n")
        print(f"{len(rows)} penetration rows to {out}/penetration.csv")
    else:
        raise InputError(f"unknown sweep mode {mode!r}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvdisagg",
        description="Disaggregate feeder-level net power into "
                    "behind-the-meter PV generation and demand.")
    parser.add_argument("--version", action="version",
                        version=f"pvdisagg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out_dir_env = os.environ.get("PVDISAGG_OUT_DIR")

    p = sub.add_parser("synth", help="generate a synthetic feeder scenario")
    p.add_argument("--scenario", required=True, metavar="YAML")
    p.add_argument("--out-dir", required=out_dir_env is None,
                   default=out_dir_env, metavar="DIR",
                   help="defaults to $PVDISAGG_OUT_DIR when that is set")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("transpose",
                       help="project GHI onto a bank of tilted planes")
    p.add_argument("--site", required=True, metavar="YAML")
    p.add_argument("--ghi", required=True, metavar="CSV")
    p.add_argument("--t-air", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=cmd_transpose)

    p = sub.add_parser("fit", help="estimate per-plane capacities from P")
    p.add_argument("--site", required=True, metavar="YAML")
    p.add_argument("--ghi", required=True, metavar="CSV")
    p.add_argument("--t-air", required=True, metavar="CSV")
    p.add_argument("--p", required=True, metavar="CSV",
                   help="net feeder flow, consumption positive, kW")
    p.add_argument("--method", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--period-s", type=int, default=None,
                   help="resample everything to this period first")
    p.add_argument("--lam", type=float, default=None,
                   help="demand total-variation weight (required by B)")
    p.add_argument("--c", type=int, default=None,
                   help="demand block length in samples (required by C)")
    p.add_argument("--f-low-hz", type=float, default=None)
    p.add_argument("--f-high-hz", type=float, default=None)
    p.add_argument("--f-low-s", type=float, default=None, metavar="SECONDS",
                   help="low cutoff as a period instead of a frequency")
    p.add_argument("--f-high-s", type=float, default=None, metavar="SECONDS",
                   help="high cutoff as a period instead of a frequency")
    p.add_argument("--irls-tuning", type=float, default=4.685)
    p.add_argument("--night-threshold", type=float, default=5.0,
                   metavar="W_PER_M2")
    p.add_argument("--no-night-mask", action="store_true",
                   help="keep night samples even for methods A and D")
    p.add_argument("--out-model", required=True, metavar="JSON")
    p.add_argument("--out-report", default=None, metavar="JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("disaggregate",
                       help="split P into generation and demand estimates")
    p.add_argument("--model", required=True, metavar="JSON")
    p.add_argument("--site", required=True, metavar="YAML")
    p.add_argument("--ghi", required=True, metavar="CSV")
    p.add_argument("--t-air", required=True, metavar="CSV")
    p.add_argument("--p", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("metrics", help="score an estimate against truth")
    p.add_argument("--g-true", required=True, metavar="CSV")
    p.add_argument("--g-hat", required=True, metavar="CSV")
    p.add_argument("--capacity-kwp", required=True, type=float)
    p.add_argument("--out", default=None, metavar="JSON")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep",
                       help="cross-validated parameter sweep or "
                            "penetration experiment on a synthetic feeder")
    p.add_argument("--config", required=True, metavar="YAML")
    p.add_argument("--out-dir", required=out_dir_env is None,
                   default=out_dir_env, metavar="DIR",
                   help="defaults to $PVDISAGG_OUT_DIR when that is set")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, yaml.YAMLError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except DisaggError as exc:  # anything else of ours: treat as internal
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
