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
        keeping L piecewise-constant.
  C  -- joint quadratic fit with L held constant on fixed-length blocks.
  D  -- band-pass both sides so only cloud-band fluctuations remain, then
        a bisquare-weighted robust regression on the filtered signals.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dsp
from .errors import (AlignmentError, BankMismatchError,
                     DegenerateWeightsError)
from .optim import (QuadraticProgram, SolverReport, _column_scales,
                    irls_bisquare, solve_l1_trend_qp, solve_lp, solve_qp)
from .solar import PlaneBank
from .timeseries import UNIT_KW, TimeSeries

KW_PER_WM2 = 1e-3  # irradiance templates are W/m^2, capacities kWp

# projected-Newton envelope fit of B and C
_ENVELOPE_TOL = 1e-8       # relative projected-gradient certificate
# F >= 0, so F(a) itself bounds F(a) - min F.  Once F(a) is at most a
# rounding-level share of F(0) (c = 1 or lam = 0 can interpolate P
# exactly), a is optimal to that relative gap, and the projected
# gradient, whose terms no longer shrink with F, need not certify it.
_ENVELOPE_ZERO = np.finfo(float).eps
# Each step's capacity QP has a Hessian that grows with the sample count
# (columns are scaled to at most 1) and can be nearly flat along some
# plane mixes, where a KKT residual cannot see an error in alpha.  A
# per-sample ridge of 1e-12 makes solve_qp's proximal iteration exact in
# 1-3 steps along those directions too.
_NEWTON_QP_TOL = 1e-14
_NEWTON_RIDGE = 1e-12
_MAX_NEWTON_STEPS = 100
_ARMIJO = 1e-4             # sufficient-decrease fraction of the backtracking
_MIN_STEP = 1e-12


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


@dataclass
class MethodParams:
    """Method selector plus everything a fit needs besides the data."""

    method: str
    sampling_period: int
    lam: Optional[float] = None  # required by B
    c: Optional[int] = None  # required by C
    f_low: Optional[float] = None
    f_high: Optional[float] = None
    irls_tuning: float = 4.685
    night_threshold: float = 5.0

    def validate(self) -> None:
        if self.method not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.sampling_period <= 0:
            raise ValueError("sampling_period must be positive")
        if self.method == "B" and (self.lam is None or self.lam < 0):
            raise ValueError(f"method B needs lam >= 0, got {self.lam}")
        if self.method == "C" and (self.c is None or int(self.c) != self.c
                                   or self.c < 1):
            raise ValueError(
                f"method C needs c, a positive integer, got {self.c}")
        if self.method == "D":
            if self.f_low is None or self.f_high is None:
                raise ValueError("method D needs f_low and f_high")
            if not (0.0 < self.f_low < self.f_high):
                raise ValueError("need 0 < f_low < f_high")
            if self.irls_tuning <= 0:
                raise ValueError("irls_tuning must be positive")

    def to_dict(self) -> dict:
        out = {"method": self.method,
               "sampling_period": self.sampling_period}
        if self.method == "B":
            out["lam"] = self.lam
        if self.method == "C":
            out["c"] = int(self.c)
        if self.method == "D":
            out.update(f_low=self.f_low, f_high=self.f_high,
                       irls_tuning=self.irls_tuning)
        out["night_threshold"] = self.night_threshold
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
        raise AlignmentError(
            "series and plane bank are not on the same sampling grid")


def _segment_starts(k: int, segment_length: Optional[int]) -> np.ndarray:
    """First sample of every segment; None means one contiguous segment."""
    if segment_length is None or segment_length >= k:
        return np.zeros(1, dtype=int)
    if segment_length < 2:
        raise ValueError("segment_length must be at least 2")
    return np.arange(0, k, segment_length)


def predict_generation(alpha: CapacityVector, bank: PlaneBank) -> TimeSeries:
    """Aggregate generation implied by a capacity vector, in kW."""
    if alpha.bank_id != bank.geometry_hash:
        raise BankMismatchError(
            f"capacity vector was fit against bank {alpha.bank_id}, "
            f"got {bank.geometry_hash}")
    if alpha.alpha.size != bank.n_planes:
        raise BankMismatchError("capacity vector length != bank planes")
    g = (alpha.alpha @ bank.irradiance) * KW_PER_WM2
    return TimeSeries(bank.start_epoch, bank.period, g, UNIT_KW)


def _clip_alpha(raw: np.ndarray, tol: float = 1e-5) -> np.ndarray:
    if np.any(raw < -tol * max(1.0, float(np.max(np.abs(raw), initial=0.0)))):
        raise AssertionError(
            f"solver returned a significantly negative capacity: {raw}")
    return np.clip(raw, 0.0, None)


def fit_method_a(p: TimeSeries, bank: PlaneBank, *,
                 mask: Optional[np.ndarray] = None,
                 segment_length: Optional[int] = None) -> CapacityVector:
    """L1 fit on first differences: min sum_k |dP_k + dG_k(alpha)|.

    Difference pairs never straddle a segment boundary, and with a mask
    only pairs whose both endpoints are kept contribute.  optim.solve_lp
    solves the fit through its dual LP  max dP'u  s.t. |u| <= 1, C'u >= 0
    (C the column-scaled differenced bank), whose one row per plane
    carries the capacities as its multipliers, and certifies the answer
    by that LP's duality gap at the returned alpha.  The dual is feasible
    at u = 0 and bounded by the box, so no input makes it infeasible or
    unbounded; a HiGHS run that stops short returns converged=False.
    """
    _check_bank(p, bank)
    k, j = len(p), bank.n_planes
    if k < j + 1:
        raise ValueError(f"need at least {j + 1} samples for {j} planes")

    pairs = np.setdiff1d(np.arange(1, k), _segment_starts(k, segment_length))
    if mask is not None:
        pairs = pairs[np.logical_and(mask[pairs - 1], mask[pairs])]
    if pairs.size == 0:
        raise ValueError("no usable sample-to-sample difference pairs")

    dp = p.values[pairs] - p.values[pairs - 1]
    dm = (bank.irradiance[:, pairs] - bank.irradiance[:, pairs - 1]).T
    alpha, report = solve_lp(dp, dm * KW_PER_WM2)
    return CapacityVector(alpha, bank.geometry_hash, report)


def _fit_envelope(p: TimeSeries, bank: PlaneBank, demand):
    """Capacities of B and C by projected Newton steps on the envelope.

    With y = P + C a (C the column-scaled bank in kW, a the scaled
    capacities), demand(y) returns the best demand L for that y, the
    starts of L's runs and the penalty pen(L), so the objective
        F(a) = min_{L >= 0} 0.5 |L - y|^2 + pen(L)
    is evaluated exactly.  F is convex and piecewise quadratic in a, with
    gradient C'(y - L) and, on the piece that holds L's runs and signs,
    Hessian W'W: W is C with every positive run demeaned and every clipped
    (zero) run kept as it is.  Each step minimizes that quadratic model
    over a >= 0 with solve_qp and backtracks (Armijo) on the exact F; the
    loop stops when the projected gradient, relative to the size of the
    terms it sums, is at most _ENVELOPE_TOL, or when F(a) is at most
    _ENVELOPE_ZERO * F(0).  Returns (capacities, demand trajectory).
    """
    k, j = len(p), bank.n_planes
    if k < j + 1:
        raise ValueError("not enough usable samples for the fit")
    t0 = time.perf_counter()
    m = bank.irradiance.T * KW_PER_WM2  # (k, j)
    scale = _column_scales(m)
    c_s = m / scale

    def evaluate(a):
        y = p.values + c_s @ a
        l, starts, pen = demand(y)
        r = y - l
        return 0.5 * r @ r + pen, l, starts, r

    a = np.zeros(j)
    obj, l, starts, r = evaluate(a)
    obj_zero = obj
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
            / (1.0 + np.max(np.abs(c_s).T @ np.abs(r))))
        if (report.dual_residual <= _ENVELOPE_TOL
                or obj <= _ENVELOPE_ZERO * obj_zero):
            report.status, report.converged = "solved", True
            break
        if report.iterations == _MAX_NEWTON_STEPS:
            break
        target, _ = solve_qp(QuadraticProgram(
            hess, hess @ a - grad, nonneg=np.ones(j, dtype=bool),
            beta_reg=_NEWTON_RIDGE * k), tol=_NEWTON_QP_TOL)
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
    report.wall_time = time.perf_counter() - t0
    return (CapacityVector(_clip_alpha(a / scale), bank.geometry_hash,
                           report), p.with_values(l, unit=UNIT_KW))


def _block_demand(starts: np.ndarray, k: int):
    """Demand map of C: each block's mean of y, clipped at zero."""
    counts = np.diff(np.append(starts, k))

    def demand(y):
        level = np.add.reduceat(y, starts) / counts
        return np.repeat(np.clip(level, 0.0, None), counts), starts, 0.0
    return demand


def fit_method_b(p: TimeSeries, bank: PlaneBank, lam: float, *,
                 segment_length: Optional[int] = None):
    """Joint (L, alpha) quadratic fit with a total-variation penalty on L.

    Objective: sum (P - (L - G))^2 + lam * sum |L_{i+1} - L_i|, with
    L >= 0 and alpha >= 0; differences never straddle a segment boundary.
    For fixed alpha the best L is the total-variation prox of P + G with
    weight lam/2, clipped at zero (solve_l1_trend_qp).  Returns
    (capacities, demand trajectory).
    """
    _check_bank(p, bank)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    k = len(p)
    if lam == 0:
        # L is free per sample, as in C with c = 1.  The trend solver would
        # give the same L, but its runs merge equal neighbours, which puts
        # the Newton step on the wrong piece of the envelope.
        demand = _block_demand(np.arange(k), k)
    else:
        seg_starts = _segment_starts(k, segment_length)
        mu = lam / 2.0  # the fit's 0.5 |L - y|^2 halves the stated ratio

        def demand(y):
            l, report = solve_l1_trend_qp(y, mu, seg_starts)
            starts = np.union1d(seg_starts,
                                np.flatnonzero(l[1:] != l[:-1]) + 1)
            return l, starts, mu * report.notes["total_variation"]
    return _fit_envelope(p, bank, demand)


def fit_method_c(p: TimeSeries, bank: PlaneBank, c: int, *,
                 segment_length: Optional[int] = None):
    """Joint (L, alpha) quadratic fit with L constant on length-c blocks.

    Blocks restart at every segment boundary; a trailing shorter block is
    constrained the same way.  For fixed alpha the best level of each
    block is its mean of P + G, clipped at zero.  c = 1 leaves L free per
    sample (the fit is then an interpolation with zero residual and the
    capacities are not identified).
    """
    _check_bank(p, bank)
    c = int(c)
    if c < 1:
        raise ValueError("c must be a positive integer")
    k = len(p)
    seg = _segment_starts(k, segment_length)
    offset = np.arange(k) - np.repeat(seg, np.diff(seg, append=k))
    starts = np.flatnonzero(offset % c == 0)  # block starts
    return _fit_envelope(p, bank, _block_demand(starts, k))


def fit_method_d(p: TimeSeries, bank: PlaneBank,
                 f_low: float, f_high: float, tuning: float = 4.685, *,
                 mask: Optional[np.ndarray] = None,
                 segment_length: Optional[int] = None) -> CapacityVector:
    """Band-pass both sides, then robust-regress P on the filtered bank.

    Filtering runs independently on each contiguous segment (so day
    boundaries never leak through the filter); the mask is applied to the
    filtered samples afterwards.  In the pass band the demand is
    attenuated away and P ~ -G, hence the design matrix -I_filtered/1000;
    the robust regression works on its J x J weighted Gram
    (optim.irls_bisquare).
    """
    _check_bank(p, bank)
    k, j = len(p), bank.n_planes
    filt = dsp.design_bandpass(f_low, f_high, 1.0 / p.period)

    seg_starts = _segment_starts(k, segment_length)
    length = seg_starts[1] if seg_starts.size > 1 else k
    body = k - k % length  # samples in full-length segments

    def filtered(series):
        # one call filters all full-length segments as rows, and a
        # shorter tail segment gets a call of its own
        out = np.empty(k)
        out[:body] = dsp.apply_array(
            filt, series[:body].reshape(-1, length)).ravel()
        if body < k:
            out[body:] = dsp.apply_array(filt, series[body:])
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
        raise DegenerateWeightsError(
            "pass band contains no irradiance signal (filtered bank is "
            "numerically zero); widen [f_low, f_high]")
    if keep.size < j + 1:
        raise ValueError("not enough usable samples for the fit")
    alpha, report = irls_bisquare(x_mat, y, tuning=tuning)
    return CapacityVector(_clip_alpha(alpha), bank.geometry_hash, report)


def fit(p: TimeSeries, bank: PlaneBank, params: MethodParams, *,
        night_mask: Optional[np.ndarray] = None,
        segment_length: Optional[int] = None):
    """Dispatch a fit by MethodParams.

    The night mask (daylight True) is honored by the difference and
    band-pass methods only; the joint quadratic fits B and C keep the full
    grid because their demand block needs the night samples to anchor L.
    Returns (CapacityVector, demand TimeSeries or None, wall seconds).
    """
    params.validate()
    # the solvers import scipy when first called; loading it here keeps
    # the reported seconds the fit alone (only D filters, with scipy.signal)
    importlib.import_module("scipy.optimize")
    if params.method == "D":
        importlib.import_module("scipy.signal")
    t0 = time.perf_counter()
    l_hat = None
    if params.method == "A":
        cap = fit_method_a(p, bank, mask=night_mask,
                           segment_length=segment_length)
    elif params.method == "B":
        cap, l_hat = fit_method_b(p, bank, params.lam,
                                  segment_length=segment_length)
    elif params.method == "C":
        cap, l_hat = fit_method_c(p, bank, int(params.c),
                                  segment_length=segment_length)
    else:
        cap = fit_method_d(p, bank, params.f_low, params.f_high,
                           params.irls_tuning, mask=night_mask,
                           segment_length=segment_length)
    return cap, l_hat, time.perf_counter() - t0


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
                          wall_time=0.0, status="ok", notes=notes)
    return DisaggregationResult(g_hat, l_hat,
                                CapacityVector(alpha.alpha, alpha.bank_id,
                                               alpha.report), report)
