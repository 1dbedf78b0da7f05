"""Command-line front end.

Subcommands: synth, transpose, fit, disaggregate, metrics, sweep.
Exit codes: 0 success, 2 bad input, 3 solver failure or non-convergence,
4 internal invariant violation.  Every file this tool writes starts with
a provenance comment (tool version, config hash, seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys

import yaml

from . import __version__, dsp
from .errors import (InputError, SolverError, config_keys, config_mappings,
                     config_number)
from .evaluation import (DEFAULT_FRACTIONS, DEFAULT_RESOLUTIONS, ScenarioSpec,
                         check_fractions, compute_metrics, generate_scenario,
                         penetration_experiment, run_cv)
from .methods import CapacityVector, MethodParams, disaggregate, fit
from .solar import build_bank, site_from_config
from .timeseries import (SECONDS_PER_DAY, UNIT_CELSIUS, UNIT_KW,
                         UNIT_W_PER_M2, ingest_csv, mask_night,
                         resample_average, write_csv, write_table)

_PARAM_KEYS = {  # YAML key -> MethodParams field
    "lam": "lam", "c": "c", "f_low_hz": "f_low", "f_high_hz": "f_high",
}
_SWEEP_KEYS = ("scenario", "methods", "mode", "fold_seed")
_MODE_KEYS = {"cv": ("resolutions_s",),
              "penetration": ("fractions", "penetration_resolution_s")}


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


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    spec = ScenarioSpec.from_dict(_load_yaml(args.scenario))
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


def _cutoff_hz(period_s, flag: str):
    """A cutoff given as a period in seconds, in Hz (None stays None)."""
    if period_s is None:
        return None
    if period_s <= 0:
        raise InputError(f"{flag} period must be positive")
    return 1.0 / period_s


def _method_params_from_args(args, period: int) -> MethodParams:
    return MethodParams(
        method=args.method, sampling_period=period,
        lam=args.lam, c=args.c,
        f_low=_cutoff_hz(args.f_low_s, "--f-low-s"),
        f_high=_cutoff_hz(args.f_high_s, "--f-high-s"))


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
    cap, l_hat, seconds = fit(p, bank, params, night_mask=mask_night(ghi))

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


def _load_model(path):
    """(document, capacities) of a model file that fit wrote; any other
    content raises InputError naming the file and the key."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a mapping at top level")
    bank, alpha = doc.get("bank"), doc.get("alpha_kwp")
    if not isinstance(bank, dict) or not isinstance(
            bank.get("geometry_hash"), str):
        raise InputError(f"{path}: bank: expected a mapping with a "
                         f"geometry_hash, got {bank!r}")
    if not isinstance(alpha, list):
        raise InputError(f"{path}: alpha_kwp: expected a list, got {alpha!r}")
    return doc, CapacityVector(
        [config_number(a, f"{path}: alpha_kwp") for a in alpha],
        bank["geometry_hash"])


def cmd_disaggregate(args) -> int:
    model_doc, alpha = _load_model(args.model)
    *_, bank = _site_bank(args)
    p = ingest_csv(args.p, UNIT_KW)

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
    for entry in config_mappings(entries, "methods"):
        entry = dict(config_keys(entry, ("method", *_PARAM_KEYS), "method"))
        method = entry.pop("method", None)
        if method not in ("A", "B", "C", "D"):
            raise InputError(f"bad or missing method in {entry}")
        # only c is an integer
        options = {_PARAM_KEYS[k]: _numbers(v, k, k == "c")
                   for k, v in entry.items()}
        for combo in itertools.product(*options.values()):
            grid.append(MethodParams(method=method, sampling_period=1,
                                     **dict(zip(options, combo))))
    return grid


def cmd_sweep(args) -> int:
    cfg = _load_yaml(args.config)
    mode = cfg.get("mode", "cv")
    if mode not in ("cv", "penetration"):
        raise InputError(f"unknown sweep mode {mode!r}")
    config_keys(cfg, _SWEEP_KEYS + _MODE_KEYS[mode], f"{mode} sweep")
    scen = cfg.get("scenario")
    if not isinstance(scen, dict):
        raise InputError("sweep config needs an inline 'scenario' mapping")
    spec = ScenarioSpec.from_dict(scen)
    grid = _expand_methods(cfg.get("methods", []))
    if not grid:
        raise InputError("sweep config lists no methods")
    fold_seed = config_number(cfg.get("fold_seed", 0), "fold_seed", True)
    if fold_seed < 0:
        raise InputError(f"fold_seed: expected a nonnegative integer, "
                         f"got {fold_seed}")
    if mode == "cv":
        resolutions = _numbers(cfg.get("resolutions_s", DEFAULT_RESOLUTIONS),
                               "resolutions_s", True)
    else:
        fractions = _numbers(cfg.get("fractions", DEFAULT_FRACTIONS),
                             "fractions")
        check_fractions(fractions)
        res = cfg.get("penetration_resolution_s")
        resolutions = [spec.period_s if res is None else
                       config_number(res, "penetration_resolution_s", True)]
    # refuse the sweep before any work when one of its fits would: every
    # grid point at every resolution gets the checks its whole-day fit runs
    for res, params in itertools.product(resolutions, grid):
        params = dataclasses.replace(params, sampling_period=res)
        params.validate()
        if res % spec.period_s or SECONDS_PER_DAY % res:
            raise InputError(f"{res} s is not a multiple of "
                             f"{spec.period_s} s that divides one day")
        if params.method == "D":
            filt = dsp.design_bandpass(params.f_low, params.f_high, 1.0 / res)
            if SECONDS_PER_DAY // res <= filt.padlen:
                raise InputError(f"a day at {res} s is too short for D's "
                                 f"edge padding ({filt.padlen} samples)")
    data = generate_scenario(spec)

    out = args.out_dir.rstrip("/")
    os.makedirs(out, exist_ok=True)
    prov = _prov_comment(cfg, spec.seed)

    if mode == "cv":
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
                   "fold_stats": result.fold_stats(),
                   "summary_nrmse": result.summary()}
        _write_json(f"{out}/summary.json", summary)
        s = summary["summary_nrmse"]
        print(f"{len(result.rows)} rows over "
              f"{len(result.grid_points())} grid points; nRMSE "
              f"min={s['min']:.2f} median={s['median']:.2f} "
              f"mean={s['mean']:.2f} max={s['max']:.2f} %")
    else:
        rows = penetration_experiment(data, grid, fractions=fractions,
                                      fold_seed=fold_seed,
                                      resolution=resolutions[0])
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

    p = sub.add_parser("synth", help="generate a synthetic feeder scenario")
    p.add_argument("--scenario", required=True, metavar="YAML")
    p.add_argument("--out-dir", required=True, metavar="DIR")
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
    p.add_argument("--f-low-s", type=float, default=None, metavar="SECONDS",
                   help="D's low cutoff, as a period (required by D)")
    p.add_argument("--f-high-s", type=float, default=None, metavar="SECONDS",
                   help="D's high cutoff, as a period (required by D)")
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
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, yaml.YAMLError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
