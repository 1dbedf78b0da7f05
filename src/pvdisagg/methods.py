"""Capacity estimators for behind-the-meter PV disaggregation.

All four methods model aggregate generation as a nonnegative combination of
plane-of-array irradiance templates:

    G_k(alpha) = sum_j alpha_j * I[j, k] / 1000      [kW, alpha in kWp]

and explain the measured feeder flow P (consumption positive) as
P = L - G with L >= 0.  They differ in how they separate the demand L
from the generation signature:

  A  -- L1 fit on sample-to-sample differences (demand drops out when it
        moves slower than irradiance).
  B  -- joint quadratic fit of (L, alpha) with a total-variation penalty
        (weight lam > 0) keeping L piecewise-constant.
  C  -- joint quadratic fit with L held constant on blocks of c >= 2
        samples.
  D  -- band-pass both sides so only cloud-band fluctuations remain, then
        a bisquare-weighted robust regression on the filtered signals.

B's and C's demand model is what tells L apart from G: lam = 0 or c = 1
leaves L free per sample, L absorbs P, and every alpha with P + G >= 0
fits exactly, so both settings are refused.

Estimators take starts, the first sample of every segment (by default
one segment); nothing they fit crosses a segment start.  fit sets them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dsp
from .errors import InputError, SolverError
from .optim import (QuadraticProgram, SolverReport, _column_scales,
                    irls_bisquare, solve_l1_trend_qp, solve_lp, solve_qp)
from .solar import PlaneBank
from .timeseries import UNIT_KW, TimeSeries

KW_PER_WM2 = 1e-3  # irradiance templates are W/m^2, capacities kWp

# projected-Newton envelope fit of B and C
_ENVELOPE_TOL = 1e-8       # relative projected-gradient certificate
_MAX_NEWTON_STEPS = 100
_ARMIJO = 1e-4             # sufficient-decrease fraction of the backtracking
_MIN_STEP = 1e-12
# seconds per block of the C fit that B's loop starts from: on one-day
# folds, B and C took about as few evaluations with 300-900 s blocks, and
# over a quarter more with 1200 s or 2400 s blocks
_START_BLOCK_S = 900
_CLIP_TOL = 1e-5  # relative negative capacity _clip_alpha rounds to zero


@dataclass
class CapacityVector:
    """Per-plane capacity estimate, tied to the bank it was fit against."""

    alpha: np.ndarray  # (J,) kWp, nonnegative
    bank_id: str
    report: Optional[SolverReport] = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.ndim != 1 or not np.all(np.isfinite(self.alpha)):
            raise ValueError("alpha must be a finite 1-d vector")
        if np.any(self.alpha < 0):
            raise ValueError("alpha must be nonnegative")

    @property
    def total_kwp(self) -> float:
        return float(self.alpha.sum())


# the parameters each method reads; it refuses the others'
_OWN_PARAMS = {"A": (), "B": ("lam",), "C": ("c",), "D": ("f_low", "f_high")}


@dataclass
class MethodParams:
    """Method selector plus everything a fit needs besides the data."""

    method: str
    sampling_period: int
    lam: Optional[float] = None  # required by B
    c: Optional[int] = None  # required by C
    f_low: Optional[float] = None
    f_high: Optional[float] = None

    def validate(self) -> None:
        if self.method not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown method {self.method!r}")
        foreign = [name for name in ("lam", "c", "f_low", "f_high")
                   if getattr(self, name) is not None
                   and name not in _OWN_PARAMS[self.method]]
        if foreign:
            raise ValueError(
                f"method {self.method} takes no {', '.join(foreign)}")
        if self.sampling_period <= 0:
            raise ValueError("sampling_period must be positive")
        if self.lam is not None and not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if self.method == "B" and (self.lam is None or self.lam <= 0):
            raise ValueError(
                f"method B needs lam > 0, got {self.lam}: free per-sample "
                f"demand leaves the capacities unidentified")
        if self.method == "C" and (self.c is None or int(self.c) != self.c
                                   or self.c < 2):
            raise ValueError(
                f"method C needs c, an integer >= 2, got {self.c}: free "
                f"per-sample demand leaves the capacities unidentified")
        if self.method == "D":
            if self.f_low is None or self.f_high is None:
                raise ValueError("method D needs f_low and f_high")
            if not (0.0 < self.f_low < self.f_high):
                raise ValueError("need 0 < f_low < f_high")

    def to_dict(self) -> dict:
        out = {"method": self.method,
               "sampling_period": self.sampling_period}
        for name in _OWN_PARAMS[self.method]:
            out[name] = int(self.c) if name == "c" else getattr(self, name)
        return out


@dataclass
class DisaggregationResult:
    g_hat: TimeSeries
    l_hat: TimeSeries
    alpha: CapacityVector
    report: SolverReport


def _check_bank(p: TimeSeries, bank: PlaneBank) -> None:
    if (p.start_epoch != bank.start_epoch or p.period != bank.period
            or len(p) != bank.n_samples):
        raise InputError(
            "series and plane bank are not on the same sampling grid")


def _segment_starts(p: TimeSeries, length: Optional[int]) -> np.ndarray:
    """First sample of every segment of p, by fit's rule."""
    k, spd = len(p), p.samples_per_day
    if length is None:
        length = spd if 2 <= spd < k and k % spd == 0 else k
    if length < min(k, 2):
        raise ValueError("segment_length must be at least 2")
    return np.arange(0, k, length)  # [0] when length >= k


def predict_generation(alpha: CapacityVector, bank: PlaneBank) -> TimeSeries:
    """Aggregate generation implied by a capacity vector, in kW."""
    if alpha.bank_id != bank.geometry_hash:
        raise InputError(
            f"capacity vector was fit against bank {alpha.bank_id}, "
            f"got {bank.geometry_hash}")
    if alpha.alpha.size != bank.n_planes:
        raise InputError("capacity vector length != bank planes")
    g = (alpha.alpha @ bank.irradiance) * KW_PER_WM2
    return TimeSeries(bank.start_epoch, bank.period, g, UNIT_KW)


def _clip_alpha(raw: np.ndarray) -> np.ndarray:
    if np.any(raw < -_CLIP_TOL * max(1.0, np.max(np.abs(raw), initial=0.0))):
        raise AssertionError(
            f"solver returned a significantly negative capacity: {raw}")
    return np.clip(raw, 0.0, None)


def fit_method_a(p: TimeSeries, bank: PlaneBank, *,
                 mask: Optional[np.ndarray] = None,
                 starts: Sequence[int] = (0,)) -> CapacityVector:
    """L1 fit on first differences: min sum_k |dP_k + dG_k(alpha)|.

    Difference pairs never straddle a segment start, and with a mask
    only pairs whose both endpoints are kept contribute.  optim.solve_lp
    solves the fit by a simplex over its vertices and certifies the
    answer by the duality gap of its dual LP  max dP'u  s.t. |u| <= 1,
    C'u >= 0  (C the column-scaled differenced bank) at the returned
    alpha.  The dual is feasible at u = 0 and bounded by the box, so no
    input makes it infeasible or unbounded; a fit that reaches the
    solver's pivot cap returns converged=False.
    """
    _check_bank(p, bank)
    k, j = len(p), bank.n_planes
    if k < j + 1:
        raise ValueError(f"need at least {j + 1} samples for {j} planes")

    pairs = np.setdiff1d(np.arange(1, k), starts)
    if mask is not None:
        pairs = pairs[np.logical_and(mask[pairs - 1], mask[pairs])]
    if pairs.size == 0:
        raise ValueError("no usable sample-to-sample difference pairs")

    dp = p.values[pairs] - p.values[pairs - 1]
    dm = bank.irradiance[:, pairs].T  # built in place: one more copy at most
    dm -= bank.irradiance[:, pairs - 1].T
    dm *= KW_PER_WM2
    alpha, report = solve_lp(dp, dm)
    return CapacityVector(alpha, bank.geometry_hash, report)


def _fit_envelope(p: TimeSeries, bank: PlaneBank, demand,
                  start: np.ndarray):
    """Capacities of B and C by projected Newton steps on the envelope.

    With y = P + C a (C the column-scaled bank in kW, a the scaled
    capacities), demand(y) returns the best demand L for that y, the
    starts of L's runs and the penalty pen(L), so the objective
        F(a) = min_{L >= 0} 0.5 |L - y|^2 + pen(L)
    is evaluated exactly.  F is convex and piecewise quadratic in a, with
    gradient C'(y - L) and, on the piece that holds L's runs and signs,
    Hessian W'W: W is C with every positive run demeaned and every clipped
    (zero) run kept as it is.  Each step minimizes that quadratic model
    over a >= 0 exactly, by solve_qp's active set on W'W (singular when
    plane mixes coincide on the runs) started from a, and backtracks
    (Armijo) on the exact F; a minimizer that is no descent direction
    ends the loop as "line_search".  The loop stops when the projected
    gradient, relative to the size of the terms it sums, is at most
    _ENVELOPE_TOL.  The loop starts from the capacities start (kWp,
    nonnegative); the stop test does not depend on it, so any start ends
    at the same certified optimum, and a start close to it saves steps.
    Returns (capacities, demand trajectory).
    """
    k, j = len(p), bank.n_planes
    if k < j + 1:
        raise ValueError("not enough usable samples for the fit")
    c_s = bank.irradiance.T * KW_PER_WM2  # (k, j), scaled in place
    scale = _column_scales(c_s)
    c_s /= scale

    def evaluate(a):
        y = p.values + c_s @ a
        l, starts, pen = demand(y)
        r = y - l
        return 0.5 * r @ r + pen, l, starts, r

    a = start * scale
    obj, l, starts, r = evaluate(a)
    evaluations = 1
    report = SolverReport(status="max_iter", primal_residual=0.0)
    for report.iterations in range(_MAX_NEWTON_STEPS + 1):
        grad = c_s.T @ r
        counts = np.diff(np.append(starts, k))
        run_means = np.add.reduceat(c_s, starts, axis=0) / counts[:, None]
        w = c_s - np.repeat(run_means, counts, axis=0) * (l > 0)[:, None]
        hess = w.T @ w
        report.dual_residual = float(
            np.max(np.abs(a - np.clip(a - grad, 0.0, None)))
            / (1.0 + np.max(c_s.T @ np.abs(r))))
        if report.dual_residual <= _ENVELOPE_TOL:
            report.status, report.converged = "solved", True
            break
        if report.iterations == _MAX_NEWTON_STEPS:
            break
        target, _ = solve_qp(QuadraticProgram(
            hess, hess @ a - grad, nonneg=np.ones(j, dtype=bool)), start=a)
        slope = float(grad @ (target - a))
        t = 1.0
        while slope < 0 and t >= _MIN_STEP:
            trial = evaluate((1.0 - t) * a + t * target)
            evaluations += 1
            if trial[0] <= obj + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            report.status = "line_search"
            break
        a = (1.0 - t) * a + t * target
        obj, l, starts, r = trial
    eig = np.linalg.eigvalsh(hess)
    report.objective = obj
    report.duality_gap = float(a @ grad)
    report.notes["rank_deficient"] = bool(
        eig[0] <= j * np.finfo(float).eps * max(eig[-1], 0.0))
    report.notes["evaluations"] = evaluations
    return (CapacityVector(_clip_alpha(a / scale), bank.geometry_hash,
                           report), p.with_values(l, unit=UNIT_KW))


def fit_method_b(p: TimeSeries, bank: PlaneBank, lam: float, *,
                 starts: Sequence[int] = (0,)):
    """Joint (L, alpha) quadratic fit with a total-variation penalty on L.

    Objective: sum (P - (L - G))^2 + lam * sum |L_{i+1} - L_i|, with
    L >= 0 and alpha >= 0; differences never straddle a segment start.
    For fixed alpha the best L is the total-variation prox of P + G with
    weight lam/2, clipped at zero (solve_l1_trend_qp).  lam must be
    positive: with lam = 0 the demand is free per sample and the
    capacities are not identified.

    Every evaluation of B's objective runs one Condat prox per segment in
    Python, while C's demand map is vectorized block means.  So the
    Newton loop starts from C's capacities on the same segments with
    blocks of about _START_BLOCK_S seconds, which lie close to B's; the
    certificate stays B's own projected gradient.  The report adds the
    block length (start_c) and C's evaluations (start_evaluations) to
    B's own.  Returns (capacities, demand trajectory).
    """
    _check_bank(p, bank)
    if not lam > 0:
        raise ValueError("lam must be > 0")
    mu = lam / 2.0  # the fit's 0.5 |L - y|^2 halves the stated ratio
    c = max(2, round(_START_BLOCK_S / p.period))
    warm, _ = fit_method_c(p, bank, c, starts=starts)

    def demand(y):
        l, tv = solve_l1_trend_qp(y, mu, starts)
        runs = np.union1d(starts, np.flatnonzero(l[1:] != l[:-1]) + 1)
        return l, runs, mu * tv
    cap, l_hat = _fit_envelope(p, bank, demand, warm.alpha)
    cap.report.notes["start_c"] = c
    cap.report.notes["start_evaluations"] = warm.report.notes["evaluations"]
    return cap, l_hat


def fit_method_c(p: TimeSeries, bank: PlaneBank, c: int, *,
                 starts: Sequence[int] = (0,)):
    """Joint (L, alpha) quadratic fit with L constant on length-c blocks.

    Blocks restart at every segment start; a trailing shorter block is
    constrained the same way.  For fixed alpha the best level of each
    block is its mean of P + G, clipped at zero.  c must be at least 2:
    c = 1 leaves L free per sample, and the capacities are not
    identified.
    """
    _check_bank(p, bank)
    c = int(c)
    if c < 2:
        raise ValueError("c must be an integer >= 2")
    k = len(p)
    offset = np.arange(k) - np.repeat(starts, np.diff(starts, append=k))
    blocks = np.flatnonzero(offset % c == 0)  # block starts
    counts = np.diff(np.append(blocks, k))

    def demand(y):
        level = np.add.reduceat(y, blocks) / counts
        return np.repeat(np.clip(level, 0.0, None), counts), blocks, 0.0
    return _fit_envelope(p, bank, demand, np.zeros(bank.n_planes))


def fit_method_d(p: TimeSeries, bank: PlaneBank,
                 f_low: float, f_high: float, *,
                 mask: Optional[np.ndarray] = None,
                 starts: Sequence[int] = (0,)) -> CapacityVector:
    """Band-pass both sides, then robust-regress P on the filtered bank.

    Filtering runs independently on each segment (so day boundaries
    never leak through the filter), in one call per segment length; the
    mask is applied to the filtered samples afterwards.  In the pass band
    the demand is attenuated away and P ~ -G, hence the design matrix
    -I_filtered/1000; the robust regression works on its J x J weighted
    Gram (optim.irls_bisquare).
    """
    _check_bank(p, bank)
    k, j = len(p), bank.n_planes
    filt = dsp.design_bandpass(f_low, f_high, 1.0 / p.period)

    lengths = np.diff(starts, append=k)
    # one (segments, length) index array per distinct segment length
    groups = [np.compress(lengths == n, starts)[:, None] + np.arange(n)
              for n in np.unique(lengths)]

    def filtered(series):
        out = np.empty(k)
        for rows in groups:
            out[rows] = dsp.apply_array(filt, series[rows])
        return out

    # only the kept rows of the design are stored, one column at a time
    keep = np.arange(k) if mask is None else np.flatnonzero(mask)
    y = filtered(p.values)[keep]
    x_mat = np.empty((keep.size, j))
    peak = 0.0  # largest |filtered irradiance| over every sample
    for jj in range(j):
        col = filtered(bank.irradiance[jj])
        peak = max(peak, col.max(), -col.min())
        x_mat[:, jj] = col[keep]
    x_mat *= -KW_PER_WM2
    # a band that excludes all bank energy leaves only filter ring-down in
    # the design matrix; regressing on that would return noise dressed up
    # as capacity, so refuse instead
    bank_scale = float(np.max(bank.irradiance, initial=0.0)) * KW_PER_WM2
    if peak * KW_PER_WM2 <= 1e-8 * max(bank_scale, 1e-12):
        raise SolverError(
            "pass band contains no irradiance signal (filtered bank is "
            "numerically zero); widen [f_low, f_high]")
    if keep.size < j + 1:
        raise ValueError("not enough usable samples for the fit")
    alpha, report = irls_bisquare(x_mat, y)
    return CapacityVector(_clip_alpha(alpha), bank.geometry_hash, report)


def fit(p: TimeSeries, bank: PlaneBank, params: MethodParams, *,
        night_mask: Optional[np.ndarray] = None,
        segment_length: Optional[int] = None):
    """Dispatch a fit by MethodParams.

    P is cut every segment_length samples or, with None (as the CLI and
    the sweeps fit), at every day when it covers two or more whole days
    of at least two samples each, and the estimator gets the segment
    starts.  The night mask (daylight True) is honored by the difference
    and band-pass methods only; the joint quadratic fits B and C keep the
    full grid because their demand block needs the night samples to
    anchor L.  params must carry P's sampling period, and a bank that is
    zero on every sample (an all-dark GHI) is refused before any solver
    runs: no estimator can tell capacities apart from it.
    Returns (CapacityVector, demand TimeSeries or None, wall seconds); the
    seconds, the package's one clock, time the whole estimator (filter
    design, filtering, assembly and solve) and are also report.wall_time.
    """
    params.validate()
    if params.sampling_period != p.period:
        raise InputError(f"params are for {params.sampling_period} s "
                         f"samples, P is sampled every {p.period} s")
    if not np.any(bank.irradiance):
        raise InputError("the plane bank is zero on every sample (is GHI "
                         "all zero?): no irradiance identifies a capacity")
    t0 = time.perf_counter()
    starts = _segment_starts(p, segment_length)
    l_hat = None
    if params.method == "A":
        cap = fit_method_a(p, bank, mask=night_mask, starts=starts)
    elif params.method == "B":
        cap, l_hat = fit_method_b(p, bank, params.lam, starts=starts)
    elif params.method == "C":
        cap, l_hat = fit_method_c(p, bank, int(params.c), starts=starts)
    else:
        cap = fit_method_d(p, bank, params.f_low, params.f_high,
                           mask=night_mask, starts=starts)
    cap.report.wall_time = time.perf_counter() - t0
    return cap, l_hat, cap.report.wall_time


def disaggregate(p: TimeSeries, alpha: CapacityVector,
                 bank: PlaneBank) -> DisaggregationResult:
    """Split P into generation and demand under the passive-sign identity.

    L_hat is reconstructed as P + G_hat before any clipping, so
    L_hat - G_hat == P holds exactly per sample; the count of samples
    clipped at L >= 0 afterwards is reported, never silently absorbed.
    """
    _check_bank(p, bank)
    g_hat = predict_generation(alpha, bank)
    l_raw = p.values + g_hat.values
    residual = float(np.max(np.abs((l_raw - g_hat.values) - p.values)))
    clipped = l_raw < 0
    clip_count = int(np.count_nonzero(clipped))
    l_vals = np.clip(l_raw, 0.0, None)
    # audit: the pre-clip demand is P + G by construction, so the clip is
    # the only step that may touch it — every kept sample must be bitwise
    # unchanged and every clipped sample exactly zero (NaNs count as
    # violations because they fail both comparisons)
    violations = int(np.count_nonzero(l_vals[~clipped] != l_raw[~clipped]))
    violations += int(np.count_nonzero(l_vals[clipped] != 0.0))
    l_hat = p.with_values(l_vals, unit=UNIT_KW)
    notes = {"clip_count": clip_count,
             "identity_violations": violations,
             "identity_max_abs_error_kw": residual,
             "training_status": (alpha.report.status
                                 if alpha.report else "unknown")}
    report = SolverReport(objective=0.0, iterations=0,
                          primal_residual=residual, dual_residual=0.0,
                          duality_gap=0.0, converged=(violations == 0),
                          status="ok", notes=notes)
    return DisaggregationResult(g_hat, l_hat,
                                CapacityVector(alpha.alpha, alpha.bank_id,
                                               alpha.report), report)
