"""Synthetic-feeder benchmark harness: metrics, scenarios, sweeps.

The generator builds a feeder whose net flow P mixes a known multi-plane
PV plant, stochastic demand, optional greedy self-consumption storage and
measurement noise, so estimator accuracy can be scored against an exact
ground truth.  Fits are always scored out-of-sample on held-out whole
days.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, config_keys, config_mappings, config_number
from .methods import MethodParams, fit, predict_generation
from .solar import (_EPOCH_1950, _EPOCH_2101, PlaneBank, PlaneConfig,
                    SiteConfig, build_bank, clearsky_ghi, default_bank,
                    sun_position)
from .timeseries import (SECONDS_PER_DAY, UNIT_CELSIUS, UNIT_KW,
                         UNIT_W_PER_M2, TimeSeries, check_aligned,
                         make_folds, mask_night, resample_average)

DEFAULT_RESOLUTIONS = (10, 30, 60, 120, 300, 600, 900)
DEFAULT_FRACTIONS = (1.0, 0.5, 0.25)


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class Metrics:
    """Error of g_hat against g_true, normalized by installed capacity.

    All three are percentages of the capacity normalizer; by construction
    nrmse >= nmae >= |nme|.
    """

    nrmse: float
    nmae: float
    nme: float
    n_samples: int


def compute_metrics(g_true: TimeSeries, g_hat: TimeSeries,
                    g_capacity: float) -> Metrics:
    """Capacity-normalized RMSE / MAE / mean error, in percent."""
    check_aligned(g_true, g_hat)
    if not (g_capacity > 0):
        raise ValueError("g_capacity must be positive")
    e = g_true.values - g_hat.values
    nrmse = float(np.sqrt(np.mean(e * e)) / g_capacity * 100.0)
    nmae = float(np.mean(np.abs(e)) / g_capacity * 100.0)
    nme = float(np.mean(e) / g_capacity * 100.0)
    if not nrmse + 1e-12 >= nmae >= abs(nme) - 1e-12:
        raise AssertionError(
            f"metric ordering violated: nRMSE {nrmse} nMAE {nmae} nME {nme}")
    return Metrics(nrmse, nmae, nme, len(g_true))


def aggregate_stats(values: Sequence[float]) -> dict:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    return {"min": float(arr.min()), "max": float(arr.max()),
            "mean": float(arr.mean()), "median": float(np.median(arr))}


# ---------------------------------------------------------------------------
# scenario generation

#: plant geometry used when a scenario does not specify one: five rooftop
#: segments of mixed orientation, 35.3 kWp total.
DEFAULT_PLANT = (
    {"tilt": 14.0, "azimuth": 95.0, "kwp": 10.0},
    {"tilt": 36.0, "azimuth": 187.0, "kwp": 7.2},
    {"tilt": 40.0, "azimuth": 266.0, "kwp": 3.5},
    {"tilt": 40.0, "azimuth": 187.0, "kwp": 8.0},
    {"tilt": 24.0, "azimuth": 180.0, "kwp": 6.6},
)

_CLOUD_KINDS = ("clear", "partly", "overcast")
_PLANT_KEYS = ("tilt", "azimuth", "kwp")
_ACTUATION_S = 300  # storage setpoints hold for windows this long
# every scenario's demand shape and battery: level and step of the demand,
# size and length of its inrush pulses, the battery's rating and capacity
_DEMAND_BASE_KW = 6.0
_DEMAND_STEP_S = 1800
_INRUSH_KW = 4.0
_INRUSH_S = 120
_BATTERY_KVA = 12.0
_BATTERY_KWH = 26.4


@dataclass
class ScenarioSpec:
    """The generator's settings, YAML-friendly; demand shape and battery
    are the module's constants."""

    latitude: float = 47.5
    longitude: float = 7.5
    albedo: float = 0.2
    plant: tuple = DEFAULT_PLANT
    start_epoch: int = 1685577600  # 2023-06-01T00:00:00Z
    days: int = 3
    period_s: int = 10
    inrush_per_day: float = 6.0
    cycle_kw: float = 0.0  # thermostat-style on/off load, 0 = absent
    cycle_period_s: int = 240
    noise_kw: float = 0.05
    self_consumption: bool = False
    cloud_kinds: Optional[tuple] = None  # per-day override of the mix
    seed: int = 0

    def validate(self) -> None:
        if self.cloud_kinds is not None:
            if len(self.cloud_kinds) != self.days:
                raise ValueError("cloud_kinds must name one kind per day")
            bad = set(self.cloud_kinds) - set(_CLOUD_KINDS)
            if bad:
                raise ValueError(f"unknown cloud kinds: {sorted(bad)}")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.period_s <= 0 or _DEMAND_STEP_S % self.period_s:
            # the step divides a day, so the grid holds whole days
            raise ValueError(f"period_s must divide the {_DEMAND_STEP_S} s "
                             "demand step")
        last = self.start_epoch + self.days * SECONDS_PER_DAY - self.period_s
        if self.start_epoch < _EPOCH_1950 or last >= _EPOCH_2101:
            raise ValueError(
                f"start_epoch: the {self.days}-day grid from "
                f"{self.start_epoch} must lie in 1950-2100 (UNIX seconds "
                f"{_EPOCH_1950} to {_EPOCH_2101 - 1})")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.plant:
            raise ValueError("plant must list at least one plane")
        for seg in self.plant:
            if seg["kwp"] < 0:
                raise ValueError("plant kwp must be nonnegative")
        for name in ("inrush_per_day", "cycle_kw", "noise_kw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        half = self.cycle_period_s // 2
        if self.cycle_kw > 0 and (half < self.period_s
                                  or half % self.period_s):
            raise ValueError(
                "cycle_period_s must give a half-cycle of one or more whole "
                f"period_s, got {self.cycle_period_s}")
        if self.self_consumption and _ACTUATION_S % self.period_s:
            raise ValueError(f"period_s must divide the {_ACTUATION_S} s "
                             "storage actuation window")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        fields = dataclasses.fields(cls)
        d = dict(config_keys(d, [f.name for f in fields], "scenario"))
        for f in fields:
            if f.name in d and f.type in ("float", "int"):
                d[f.name] = config_number(d[f.name], f.name, f.type == "int")
            elif f.name in d and f.type == "bool" and not isinstance(
                    d[f.name], bool):
                raise InputError(
                    f"{f.name}: expected true or false, got {d[f.name]!r}")
        if "plant" in d:
            plant = config_mappings(d["plant"], "plant")
            for p in plant:
                config_keys(p, _PLANT_KEYS, "plant")
            d["plant"] = tuple({k: config_number(p.get(k), f"plant {k}")
                                for k in _PLANT_KEYS} for p in plant)
        kinds = d.get("cloud_kinds")
        if kinds is not None:
            if not isinstance(kinds, (list, tuple)) or not all(
                    isinstance(k, str) for k in kinds):
                raise InputError(
                    f"cloud_kinds: expected a list of kinds, got {kinds!r}")
            d["cloud_kinds"] = tuple(kinds)
        spec = cls(**d)
        spec.validate()
        return spec

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["plant"] = [dict(p) for p in self.plant]
        return d

    @property
    def capacity_kwp(self) -> float:
        return float(sum(p["kwp"] for p in self.plant))

    @property
    def site(self) -> SiteConfig:
        return SiteConfig(self.latitude, self.longitude, albedo=self.albedo)


@dataclass
class ScenarioData:
    """Generator output plus the estimation bank built on the same sky."""

    p: TimeSeries
    ghi: TimeSeries
    t_air: TimeSeries
    g_true: TimeSeries
    l_true: TimeSeries
    battery: TimeSeries
    bank: PlaneBank
    capacity_kwp: float

    @property
    def n_days(self) -> int:
        return self.p.n_days


def _telegraph(rng: np.random.Generator, n: int, lo: float, hi: float,
               flip_p: float) -> np.ndarray:
    """Two-state switching signal; mean dwell 1/flip_p samples."""
    state = rng.random() < 0.5
    flips = rng.random(n) < flip_p
    # the state after sample i has flipped once per flip up to i
    return np.where(state ^ (np.cumsum(flips) % 2 == 1), hi, lo)


def _cloud_series(rng: np.random.Generator, days: int, spd: int,
                  period: int, cloud_kinds=None) -> np.ndarray:
    """Per-sample clear-sky attenuation; day types cycle the three kinds
    unless an explicit per-day list is given.

    Every day keeps some minutes-scale structure (passing clouds on clear
    days, thickness variation under overcast) so the cloud band is never
    empty; partly-cloudy days carry the strongest switching.
    """
    if cloud_kinds is not None:
        kinds = [_CLOUD_KINDS.index(k) for k in cloud_kinds]
    else:
        kinds = [(i % 3) for i in range(days)]
        rng.shuffle(kinds)
    out = np.empty(days * spd)
    for d, kind in enumerate(kinds):
        sl = slice(d * spd, (d + 1) * spd)
        if _CLOUD_KINDS[kind] == "clear":
            # mostly clear with a few passing clouds
            level = np.ones(spd)
            for _ in range(rng.poisson(5.0)):
                dur = max(1, int(rng.uniform(120.0, 600.0) / period))
                k0 = int(rng.integers(0, max(1, spd - dur)))
                level[k0:k0 + dur] = rng.uniform(0.4, 0.7)
            out[sl] = level
        elif _CLOUD_KINDS[kind] == "overcast":
            # thick deck whose thickness wanders on the minutes scale
            out[sl] = _telegraph(rng, spd, 0.18, 0.32,
                                 min(0.5, period / 900.0))
        else:
            # broken clouds: bright gaps vs shadow, mean dwell ten
            # minutes, which lands in the cloud band
            out[sl] = _telegraph(rng, spd, 0.35, 0.95,
                                 min(0.5, period / 600.0))
    return out


def _demand_series(rng: np.random.Generator, spec: ScenarioSpec,
                   n: int) -> np.ndarray:
    step = _DEMAND_STEP_S // spec.period_s
    n_steps = -(-n // step)
    levels = _DEMAND_BASE_KW * (0.5 + rng.random(n_steps))
    l = np.repeat(levels, step)[:n]
    n_events = rng.poisson(spec.inrush_per_day * spec.days)
    dur = max(1, round(_INRUSH_S / spec.period_s))
    for _ in range(n_events):
        k0 = int(rng.integers(0, max(1, n - dur)))
        l[k0:k0 + dur] += _INRUSH_KW
    if spec.cycle_kw > 0:
        # strict on/off duty cycling (thermostatic limit cycle): a square
        # wave with a seeded phase, half the time on at cycle_kw
        half = (spec.cycle_period_s // 2) // spec.period_s
        phase = int(rng.integers(0, 2 * half))
        on = ((np.arange(n) + phase) // half) % 2 == 0
        l[on] += spec.cycle_kw
    return l


def _battery_series(spec: ScenarioSpec, g: np.ndarray,
                    l: np.ndarray) -> np.ndarray:
    """Greedy self-consumption dispatch, consumption-positive kW.

    Setpoints are held for a whole _ACTUATION_S window and chosen from
    the instantaneous surplus at the window start: charge on PV surplus,
    discharge to cover deficit, clamped by rating and state of charge.
    """
    n = g.size
    batt = np.zeros(n)
    if not spec.self_consumption:
        return batt
    act = _ACTUATION_S // spec.period_s
    soc = _BATTERY_KWH / 2.0
    for k0 in range(0, n, act):
        k1 = min(k0 + act, n)
        dt_h = (k1 - k0) * spec.period_s / 3600.0
        b = float(np.clip(g[k0] - l[k0], -_BATTERY_KVA, _BATTERY_KVA))
        if b > 0:
            b = min(b, (_BATTERY_KWH - soc) / dt_h)
        else:
            b = max(b, -soc / dt_h)
        batt[k0:k1] = b
        soc += b * dt_h
        if not -1e-9 <= soc <= _BATTERY_KWH + 1e-9:
            raise AssertionError(
                f"battery state of charge {soc} kWh outside "
                f"[0, {_BATTERY_KWH}]")
    return batt


def generate_scenario(spec: ScenarioSpec) -> ScenarioData:
    """Synthesize one feeder; returns signals plus the estimation bank.

    One solar chain (sun position, GHI split) runs for the plant's planes
    and the standard 21 candidates; the returned bank, what the estimators
    see, is a view of the candidates' rows, since a copy would hold the
    bank twice.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    spd = SECONDS_PER_DAY // spec.period_s
    n = spec.days * spd
    site = spec.site

    t = spec.start_epoch + np.arange(n, dtype=np.int64) * spec.period_s
    sun = sun_position(t, site)
    ghi_v = clearsky_ghi(sun.zenith) * _cloud_series(
        rng, spec.days, spd, spec.period_s, spec.cloud_kinds)
    ghi = TimeSeries(spec.start_epoch, spec.period_s, ghi_v, UNIT_W_PER_M2)

    hours = (t % SECONDS_PER_DAY) / 3600.0
    day_offset = np.repeat(rng.uniform(-2.0, 2.0, spec.days), spd)
    t_air_v = 15.0 + 8.0 * np.sin(2 * np.pi * (hours - 9.0) / 24.0) \
        + day_offset
    t_air = TimeSeries(spec.start_epoch, spec.period_s, t_air_v,
                       UNIT_CELSIUS)

    plant = [PlaneConfig(p["tilt"], p["azimuth"]) for p in spec.plant]
    both = build_bank(ghi, t_air, site, plant + default_bank())
    kwp = np.array([p["kwp"] for p in spec.plant])
    g_v = (kwp @ both.irradiance[:len(plant)]) / 1000.0
    g_true = TimeSeries(spec.start_epoch, spec.period_s, g_v, UNIT_KW)

    l_v = _demand_series(rng, spec, n)
    batt_v = _battery_series(spec, g_v, l_v)
    noise = rng.normal(0.0, spec.noise_kw, n) if spec.noise_kw > 0 \
        else np.zeros(n)
    p_v = l_v + batt_v - g_v + noise

    bank = PlaneBank(both.planes[len(plant):], both.irradiance[len(plant):],
                     both.start_epoch, both.period)
    return ScenarioData(
        p=TimeSeries(spec.start_epoch, spec.period_s, p_v, UNIT_KW),
        ghi=ghi, t_air=t_air, g_true=g_true,
        l_true=TimeSeries(spec.start_epoch, spec.period_s, l_v, UNIT_KW),
        battery=TimeSeries(spec.start_epoch, spec.period_s, batt_v,
                           UNIT_KW),
        bank=bank, capacity_kwp=spec.capacity_kwp)


# ---------------------------------------------------------------------------
# cross-validated sweep

@dataclass(frozen=True)
class SweepRow:
    method: str
    resolution: int
    params: dict
    fold: int
    nrmse: float
    nmae: float
    nme: float
    seconds: float
    converged: bool


@dataclass
class SweepResult:
    """All fold rows plus the two aggregation levels used for reporting."""

    rows: list

    def _groups(self) -> dict:
        """Rows per grid point, in the order the points first appear."""
        groups = {}
        for r in self.rows:
            key = (r.method, r.resolution, tuple(sorted(r.params.items())))
            groups.setdefault(key, []).append(r)
        return groups

    def grid_points(self) -> list:
        return list(self._groups())

    def fold_stats(self) -> list:
        """Per grid point: spread of nRMSE over its folds."""
        return [{"method": key[0], "resolution": key[1],
                 "params": dict(key[2]), "folds": len(rows),
                 **aggregate_stats([r.nrmse for r in rows])}
                for key, rows in self._groups().items()]

    def fold_means(self) -> list:
        return [{"method": key[0], "resolution": key[1],
                 "params": dict(key[2]),
                 "nrmse": float(np.mean([r.nrmse for r in rows]))}
                for key, rows in self._groups().items()]

    def summary(self) -> dict:
        """Spread of the per-grid-point mean nRMSE across the whole grid."""
        return aggregate_stats([g["nrmse"] for g in self.fold_means()])


def _day_index(days: Sequence[int], spd: int) -> np.ndarray:
    return np.concatenate([np.arange(d * spd, (d + 1) * spd) for d in days])


def _resampled(data: ScenarioData, res: int):
    """(P, GHI, G_true, bank) of a scenario block-averaged to res seconds;
    averaging commutes with the linear generation model."""
    return (resample_average(data.p, res), resample_average(data.ghi, res),
            resample_average(data.g_true, res), data.bank.resampled(res))


def _fit_and_score(p, ghi, g_true, bank, params: MethodParams,
                   train_days, test_days, capacity: float):
    """Fit on the training days at P's period, score G on the test days.

    Returns (metrics, fit seconds, converged, the params as fit).
    """
    params = dataclasses.replace(params, sampling_period=p.period)
    idx_tr = _day_index(train_days, p.samples_per_day)
    idx_te = _day_index(test_days, p.samples_per_day)
    night = mask_night(ghi.with_values(ghi.values[idx_tr]))
    cap, _, seconds = fit(p.with_values(p.values[idx_tr]),
                          bank.sliced(idx_tr), params, night_mask=night)
    g_hat = predict_generation(cap, bank.sliced(idx_te))
    m = compute_metrics(g_true.with_values(g_true.values[idx_te]), g_hat,
                        capacity)
    return m, seconds, bool(cap.report.converged), params


def run_cv(data: ScenarioData, grid: Sequence[MethodParams],
           resolutions: Sequence[int] = DEFAULT_RESOLUTIONS,
           fold_seed: int = 0) -> SweepResult:
    """Three-fold whole-day CV of every grid point at every resolution.

    Each resolution must be an integer multiple of the data's base period;
    P, GHI, G_true and the bank are block-averaged to it (_resampled), and
    each fit takes its sampling period from them.  One day block trains,
    the other two test; fit validates every grid point.
    """
    folds = make_folds(data.n_days, fold_seed)
    rows = []
    for res in resolutions:
        series = _resampled(data, res)
        for params in grid:
            for k in range(len(folds.folds)):
                m, seconds, ok, fitted = _fit_and_score(
                    *series, params, *folds.train_test(k), data.capacity_kwp)
                rows.append(SweepRow(fitted.method, res, fitted.to_dict(), k,
                                     m.nrmse, m.nmae, m.nme, seconds, ok))
    return SweepResult(rows)


# ---------------------------------------------------------------------------
# penetration experiment

def check_fractions(fractions: Sequence[float]) -> None:
    if not all(0.0 < frac <= 1.0 for frac in fractions):
        raise ValueError("fractions must lie in (0, 1]")


def penetration_experiment(data: ScenarioData,
                           methods: Sequence[MethodParams],
                           fractions: Sequence[float] = DEFAULT_FRACTIONS,
                           fold_seed: int = 0,
                           resolution: Optional[int] = None) -> list:
    """Re-score every method as the plant shrinks to a fraction of itself.

    Scaling PV by f turns the feeder flow into P + (1-f) * G_true while
    demand, storage behavior and noise stay fixed; errors are normalized
    by the scaled capacity f * C so the percentages stay comparable.
    Single split: the first fold's day block trains, the rest test.
    """
    check_fractions(fractions)
    p_r, ghi_r, g_r, bank_r = _resampled(
        data, resolution if resolution is not None else data.p.period)
    train_days, test_days = make_folds(data.n_days, fold_seed).train_test(0)

    rows = []
    for frac in fractions:
        p_f = p_r.with_values(p_r.values + (1.0 - frac) * g_r.values)
        g_f = g_r.with_values(frac * g_r.values)
        for params in methods:
            m, seconds, ok, _ = _fit_and_score(
                p_f, ghi_r, g_f, bank_r, params, train_days, test_days,
                frac * data.capacity_kwp)
            rows.append({"method": params.method, "fraction": frac,
                         "capacity_kwp": frac * data.capacity_kwp,
                         "nrmse": m.nrmse, "nmae": m.nmae, "nme": m.nme,
                         "seconds": seconds, "converged": ok})
    return rows
