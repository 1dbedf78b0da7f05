"""Estimator behavior: recovery in each method's own regime, documented
blind spots, masking policy, and the reconstruction identity."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear, nnls

from pvdisagg import dsp, methods, optim
from pvdisagg.errors import InputError, SolverError
from pvdisagg.evaluation import ScenarioSpec, generate_scenario
from pvdisagg.methods import (CapacityVector, MethodParams, disaggregate,
                              fit, fit_method_a, fit_method_b, fit_method_c,
                              fit_method_d, predict_generation)
from pvdisagg.optim import SolverReport, solve_l1_trend_qp
from pvdisagg.solar import PlaneBank, PlaneConfig
from pvdisagg.timeseries import (UNIT_KW, TimeSeries, make_folds,
                                 resample_average)

from conftest import l1_oracle

START = 1685577600


def _bell(frac, shift=0.0):
    """Clipped half-sine day profile: zero before 06:00 and after 18:00."""
    x = (frac - 0.25 - shift) / 0.5
    return np.where((x > 0) & (x < 1), np.sin(np.pi * np.clip(x, 0, 1)), 0.0)


def textured_bank(k, period, depth=0.35):
    """Four plane templates with distinct sub-hour texture.

    Each row is a day bell modulated by a sinusoid at a plane-specific
    period (3 to 7 minutes), so the rows stay distinguishable even after
    block-averaging or band-pass filtering — without the texture the rows
    are locally near-collinear and capacity splits are not identifiable.
    """
    t = np.arange(k) * period
    d = (t % 86400) / 86400.0
    periods = (180.0, 260.0, 340.0, 420.0)
    rows = [700.0 * _bell(d, 0.01 * j)
            * (1.0 + depth * np.sin(2 * np.pi * t / periods[j] + j))
            for j in range(4)]
    planes = tuple(PlaneConfig(10.0 + 5 * j, 120.0 + 30 * j)
                   for j in range(4))
    return PlaneBank(planes, np.vstack(rows), START, period)


def smooth_bank(k, period):
    """Slowly varying bells only (no sub-hour texture)."""
    d = (np.arange(k) * period % 86400) / 86400.0
    rows = [900.0 * _bell(d, 0.01 * j) ** (1.0 + 0.4 * j) for j in range(4)]
    planes = tuple(PlaneConfig(10.0 + 5 * j, 120.0 + 30 * j)
                   for j in range(4))
    return PlaneBank(planes, np.vstack(rows), START, period)


def ts(values, period):
    return TimeSeries(START, period, np.asarray(values, dtype=float),
                      UNIT_KW)


def rel_err(alpha_hat, alpha_true):
    return (np.linalg.norm(alpha_hat - alpha_true)
            / np.linalg.norm(alpha_true))


# --------------------------------------------------------------- predict

def test_predict_generation_zero_capacity():
    bank = smooth_bank(288, 300)
    g = predict_generation(CapacityVector(np.zeros(4), bank.geometry_hash),
                           bank)
    assert np.array_equal(g.values, np.zeros(288))
    assert g.unit == UNIT_KW
    assert g.period == 300 and g.start_epoch == START


def test_predict_generation_single_plane():
    bank = smooth_bank(288, 300)
    alpha = CapacityVector(np.eye(4)[2], bank.geometry_hash)
    g = predict_generation(alpha, bank)
    assert np.allclose(g.values, bank.irradiance[2] / 1000.0, rtol=1e-14)


def test_predict_generation_rejects_wrong_bank():
    bank = smooth_bank(96, 900)
    with pytest.raises(InputError,
                       match="was fit against bank somewhere-else, got"):
        predict_generation(CapacityVector(np.ones(4), "somewhere-else"),
                           bank)
    with pytest.raises(InputError,
                       match="capacity vector length != bank planes"):
        predict_generation(CapacityVector(np.ones(3), bank.geometry_hash),
                           bank)


def test_capacity_vector_validation():
    with pytest.raises(ValueError):
        CapacityVector(np.array([1.0, -0.2]), "x")
    with pytest.raises(ValueError):
        CapacityVector(np.array([1.0, np.nan]), "x")
    assert CapacityVector(np.array([1.0, 2.5]), "x").total_kwp == 3.5


# -------------------------------------------------------------- method A

def test_method_a_recovers_single_plane():
    """Constant demand drops out of the differences entirely."""
    bank = smooth_bank(1440, 60)
    p = ts(5.0 - 2.0 * bank.irradiance[3] / 1000.0, 60)
    cap = fit_method_a(p, bank)
    assert np.allclose(cap.alpha, [0, 0, 0, 2.0], atol=1e-6)
    # direct objective evaluation at the estimate: sum |dP + dG| ~ 0
    g = predict_generation(cap, bank).values
    obj = np.abs(np.diff(p.values) + np.diff(g)).sum()
    assert obj < 1e-6


def test_method_a_constant_flow_is_zero_capacity():
    bank = smooth_bank(1440, 60)
    cap = fit_method_a(ts(np.full(1440, 4.2), 60), bank)
    assert np.allclose(cap.alpha, 0.0, atol=1e-8)


def test_method_a_rejects_sparse_demand_steps():
    """Isolated demand steps cannot bias the L1 difference fit.

    A single step contributes one residual, while moving any capacity
    entry charges the full variation of that plane's template across the
    rest of the day — the step is absorbed as an outlier.  This holds for
    a permanent step, a finite inrush, and a midday train of them.
    """
    bank = smooth_bank(1440, 60)
    base = 5.0 - 2.0 * bank.irradiance[3] / 1000.0
    step = np.zeros(1440)
    step[700:] = 3.0
    inrush = np.zeros(1440)
    inrush[700:730] = 3.0
    rng = np.random.default_rng(3)
    train = np.zeros(1440)
    for s in rng.choice(np.arange(500, 900), size=12, replace=False):
        train[s:s + 8] += 4.0
    for extra in (step, inrush, train):
        cap = fit_method_a(ts(base + extra, 60), bank)
        assert np.allclose(cap.alpha, [0, 0, 0, 2.0], atol=1e-6)


def test_method_a_absorbs_solar_correlated_demand():
    """Demand co-moving with irradiance is read as (negative) capacity.

    This is the method's real blind spot: a load tracking the sun shape
    (air conditioning style) is indistinguishable from a smaller plant,
    so the estimate lands exactly at true minus correlated share.
    """
    bank = textured_bank(1440, 60)
    g = 2.0 * bank.irradiance[3] / 1000.0
    ac_load = 0.5 * bank.irradiance[3] / 1000.0
    cap = fit_method_a(ts(5.0 + ac_load - g, 60), bank)
    assert abs(cap.alpha[3] - 1.5) < 1e-3
    assert np.all(cap.alpha[:3] < 1e-6)


def test_method_a_mask_keeps_recovery_exact():
    """Dropping 30% of difference pairs must not disturb the optimum."""
    bank = textured_bank(1440, 60)
    p = ts(5.0 - 2.0 * bank.irradiance[3] / 1000.0, 60)
    mask = np.random.default_rng(2).random(1440) < 0.7
    cap = fit_method_a(p, bank, mask=mask)
    assert np.allclose(cap.alpha, [0, 0, 0, 2.0], atol=1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), j=st.integers(1, 4),
       k=st.integers(24, 90), seg=st.one_of(st.none(), st.integers(2, 90)),
       keep=st.sampled_from([None, 0.5, 0.8]))
def test_method_a_reaches_the_epigraph_optimum(seed, j, k, seg, keep):
    """Random small feeders with demand steps, masks and segment cuts:
    the dual LP's capacities reach the primal epigraph LP's optimum, and
    the report's own gap certificate holds."""
    rng = np.random.default_rng(seed)
    bank = _random_bank(rng, j, k, 300)
    p_vals = (np.cumsum(rng.uniform(-2.0, 2.0, k) * (rng.random(k) < 0.2))
              + 0.1 * rng.standard_normal(k)
              - rng.uniform(0.0, 3.0, j) @ bank.irradiance / 1000.0)
    mask = None if keep is None else rng.random(k) < keep
    cuts = set(range(0, k, seg)) if seg else {0}
    pairs = np.array([i for i in range(1, k) if i not in cuts
                      and (mask is None or (mask[i - 1] and mask[i]))],
                     dtype=int)
    if pairs.size == 0:
        with pytest.raises(ValueError):
            fit_method_a(ts(p_vals, 300), bank, mask=mask,
                         starts=sorted(cuts))
        return
    cap = fit_method_a(ts(p_vals, 300), bank, mask=mask, starts=sorted(cuts))
    dp = p_vals[pairs] - p_vals[pairs - 1]
    dm = (bank.irradiance[:, pairs] - bank.irradiance[:, pairs - 1]).T / 1e3
    best = l1_oracle(dp, dm)
    reached = np.sum(np.abs(dp + dm @ cap.alpha))
    assert abs(reached - best) <= 1e-9 * (1.0 + best)
    assert abs(cap.report.objective - reached) <= 1e-12 * (1.0 + best)
    assert cap.report.converged
    assert abs(cap.report.duality_gap) <= 1e-6 * (1.0 + cap.report.objective)
    assert cap.report.primal_residual <= 1e-9


def test_method_a_day_fold_reaches_the_oracle(noisy_scenario):
    """A one-day fold of the 21-plane bank at 60 s: A reaches the optimum
    of the primal epigraph LP (which HiGHS solves as the oracle) under
    its own gap certificate."""
    data = noisy_scenario
    idx = np.arange(1440, 2 * 1440)
    p = TimeSeries(START, 60, data.p.values[idx], UNIT_KW)
    bank = data.bank.sliced(idx)
    mask = data.ghi.values[idx] > 5.0
    cap = fit_method_a(p, bank, mask=mask)
    pairs = np.flatnonzero(mask[1:] & mask[:-1]) + 1
    dp = p.values[pairs] - p.values[pairs - 1]
    dm = (bank.irradiance[:, pairs] - bank.irradiance[:, pairs - 1]).T / 1e3
    best = l1_oracle(dp, dm)
    assert abs(np.sum(np.abs(dp + dm @ cap.alpha)) - best) \
        <= 1e-9 * (1.0 + best)
    assert cap.report.converged
    assert abs(cap.report.duality_gap) \
        <= optim._LP_GAP_TOL * (1.0 + cap.report.objective)


def test_method_a_needs_difference_pairs():
    bank = smooth_bank(1440, 60)
    p = ts(np.full(1440, 5.0), 60)
    mask = np.zeros(1440, dtype=bool)
    mask[[10, 500, 900]] = True      # no adjacent surviving pair
    with pytest.raises(ValueError):
        fit_method_a(p, bank, mask=mask)


# -------------------------------------------------------------- method B

def test_method_b_zero_bank_is_pure_trend_filter():
    """With no irradiance signal, B reduces to the standalone trend fit."""
    k = 200
    rng = np.random.default_rng(5)
    p_vals = np.repeat(rng.uniform(2, 8, 10), 20) + rng.normal(0, 0.3, k)
    bank = PlaneBank((PlaneConfig(10, 120), PlaneConfig(20, 150)),
                     np.zeros((2, k)), START, 60)
    cap, l_hat = fit_method_b(ts(p_vals, 60), bank, lam=2.0)
    assert np.allclose(cap.alpha, 0.0, atol=1e-8)

    x_ref, _ = solve_l1_trend_qp(p_vals, 2.0 / 2.0, np.zeros(1, dtype=int))
    assert np.max(np.abs(l_hat.values - x_ref)) < 1e-6


def test_method_b_large_lambda_recovers_constant_demand():
    bank = textured_bank(288, 300)
    alpha_true = np.array([0.0, 1.5, 0.7, 0.0])
    p = ts(5.0 - alpha_true @ bank.irradiance / 1000.0, 300)
    cap, l_hat = fit_method_b(p, bank, lam=50.0)
    assert rel_err(cap.alpha, alpha_true) < 1e-6
    assert np.std(l_hat.values) < 1e-8
    assert abs(np.mean(l_hat.values) - 5.0) < 1e-6


def test_method_b_lambda_zero_is_underdetermined():
    """With lam = 0 free demand absorbs everything, so B refuses it."""
    bank = textured_bank(60, 300)
    p = ts(5.0 - 1.5 * bank.irradiance[1] / 1000.0, 300)
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="lam must be > 0"):
            fit_method_b(p, bank, lam=lam)


# -------------------------------------------------------------- method C

def test_method_c_exact_piecewise_recovery():
    k, c = 1440, 30
    bank = textured_bank(k, 60)
    alpha_true = np.array([1.2, 0.0, 2.5, 0.0])
    g = alpha_true @ bank.irradiance / 1000.0
    l_true = np.repeat(np.random.default_rng(4).uniform(2.0, 8.0, k // c), c)
    cap, l_hat = fit_method_c(ts(l_true - g, 60), bank, c=c)
    assert rel_err(cap.alpha, alpha_true) < 1e-9
    assert np.max(np.abs(l_hat.values - l_true)) < 1e-8
    # demand estimate honors its own structure: constant inside blocks
    assert np.ptp(l_hat.values.reshape(-1, c), axis=1).max() < 1e-10


def test_method_c_zero_bank_single_block_gives_mean():
    k = 288
    rng = np.random.default_rng(8)
    p_vals = rng.uniform(1.0, 9.0, k)
    bank = PlaneBank((PlaneConfig(10, 120), PlaneConfig(20, 150)),
                     np.zeros((2, k)), START, 300)
    cap, l_hat = fit_method_c(ts(p_vals, 300), bank, c=k)
    assert np.allclose(cap.alpha, 0.0, atol=1e-8)
    assert np.allclose(l_hat.values, np.mean(p_vals), atol=1e-6)


def test_method_c_inrush_averages_into_its_block():
    """A demand burst shorter than the block shows up as the block mean."""
    k, c = 1440, 30
    bank = textured_bank(k, 60)
    g = np.array([1.2, 0.0, 2.5, 0.0]) @ bank.irradiance / 1000.0
    l_true = np.full(k, 5.0)
    l_true[600:604] += 4.0           # 4-minute burst inside block [600, 630)
    cap, l_hat = fit_method_c(ts(l_true - g, 60), bank, c=c)
    burst_mean = np.mean(l_hat.values[600:630])
    assert abs(burst_mean - (5.0 + 4.0 * 4 / 30)) < 0.05
    assert burst_mean > 5.3          # clearly lifted above the base level
    # the neighbor block stays near the base level (the burst leaks a
    # little through the capacity estimate on this small texture)
    assert abs(np.mean(l_hat.values[630:660]) - 5.0) < 0.1


def test_method_c_refuses_unit_blocks():
    """c = 1 leaves demand free per sample, so C refuses it."""
    bank = textured_bank(288, 300)
    p = ts(6.0 - 1.0 * bank.irradiance[0] / 1000.0, 300)
    for c in (1, 0):
        with pytest.raises(ValueError, match="c must be an integer >= 2"):
            fit_method_c(p, bank, c=c)


@pytest.mark.parametrize("params", [MethodParams("C", 60, c=1),
                                    MethodParams("B", 60, lam=0.0)],
                         ids=["C-c1", "B-lam0"])
def test_fit_refuses_free_per_sample_demand(params):
    """A 21-plane day fold where free per-sample demand would interpolate
    P: the objective falls to rounding level at many alpha, none of them
    identified, so fit refuses the setting."""
    data = generate_scenario(ScenarioSpec(seed=7, days=3, period_s=10))
    p_r = resample_average(data.p, 60)
    idx = np.concatenate([np.arange(d * 1440, (d + 1) * 1440)
                          for d in make_folds(3, 0).folds[0]])
    p = TimeSeries(p_r.start_epoch, 60, p_r.values[idx], UNIT_KW)
    bank = data.bank.resampled(60).sliced(idx)
    with pytest.raises(ValueError,
                       match="leaves the capacities unidentified"):
        fit(p, bank, params, segment_length=1440)


# -------------------------------------------------------------- method D

def _separated_instance(kd=2880, period=30):
    """Slow demand (6 h sinusoid) + fast textured generation."""
    bank = textured_bank(kd, period)
    alpha_true = np.array([1.5, 0.0, 2.5, 0.8])
    g = alpha_true @ bank.irradiance / 1000.0
    t = np.arange(kd) * period
    l = 6.0 + 1.5 * np.sin(2 * np.pi * t / 21600.0 + 0.3)
    return bank, alpha_true, l - g


def test_method_d_recovers_spectrally_separated_plant():
    bank, alpha_true, p_vals = _separated_instance()
    cap = fit_method_d(ts(p_vals, 30), bank, 1 / 600, 1 / 120)
    assert rel_err(cap.alpha, alpha_true) < 1e-6


def test_method_d_mask_keeps_recovery():
    bank, alpha_true, p_vals = _separated_instance()
    mask = np.random.default_rng(3).random(len(p_vals)) < 0.8
    cap = fit_method_d(ts(p_vals, 30), bank, 1 / 600, 1 / 120, mask=mask)
    assert rel_err(cap.alpha, alpha_true) < 1e-8


def test_method_d_filters_each_segment_on_its_own():
    """Swapping the two day segments of P and of the bank leaves D's
    capacities unchanged: no filter transient crosses a segment start."""
    kd = 2880
    bank = textured_bank(2 * kd, 30)
    bank.irradiance[:, kd:] *= 0.6
    rng = np.random.default_rng(21)
    p_vals = (np.repeat(rng.uniform(2.0, 9.0, 96), 60)
              + 0.05 * rng.standard_normal(2 * kd)
              - np.array([1.5, 0.0, 2.5, 0.8]) @ bank.irradiance / 1000.0)
    swap = np.r_[kd:2 * kd, 0:kd]
    swapped = PlaneBank(bank.planes, bank.irradiance[:, swap], START, 30)
    alpha = [fit_method_d(ts(p, 30), b, 1 / 600, 1 / 120,
                          starts=(0, kd)).alpha
             for p, b in ((p_vals, bank), (p_vals[swap], swapped))]
    assert np.max(np.abs(alpha[0] - alpha[1])) <= 1e-9


def test_method_d_stacked_filtering_equals_per_segment(monkeypatch):
    """D filters each column's segments of one length as the rows of one
    call, so segments of three lengths, equal ones not adjacent, take
    three calls per column; every segment comes out as filtering it
    alone would give, to 1e-11 of its size (the filter's block products
    may round differently for another number of rows)."""
    starts = (0, 2880, 4380, 7260)  # lengths 2880, 1500, 2880, 1000
    k = 8260
    bank = textured_bank(k, 30)
    p_vals = (np.random.default_rng(22).normal(5.0, 1.0, k)
              - 1.2 * bank.irradiance[0] / 1000.0)
    seen, calls = {}, []
    real_apply = dsp.apply_array

    def capture(x_mat, y, **_):
        seen.update(x=x_mat.copy(), y=y.copy())
        return np.zeros(x_mat.shape[1]), SolverReport()

    def counted_apply(filt, values):
        calls.append(np.shape(values))
        return real_apply(filt, values)

    monkeypatch.setattr(methods, "irls_bisquare", capture)
    monkeypatch.setattr(dsp, "apply_array", counted_apply)
    fit_method_d(ts(p_vals, 30), bank, 1 / 600, 1 / 120, starts=starts)
    monkeypatch.undo()
    assert sorted(calls[:3]) == [(1, 1000), (1, 1500), (2, 2880)]
    assert len(calls) == 3 * (1 + bank.n_planes)
    filt = dsp.design_bandpass(1 / 600, 1 / 120, 1 / 30)
    for a, b in zip(starts, starts[1:] + (k,)):
        alone = dsp.apply_array(filt, p_vals[a:b])
        assert np.max(np.abs(seen["y"][a:b] - alone)) <= (
            1e-11 * np.max(np.abs(p_vals[a:b])))
        for jj in range(bank.n_planes):
            col = bank.irradiance[jj, a:b] * -methods.KW_PER_WM2
            alone = dsp.apply_array(filt, col)
            assert np.max(np.abs(seen["x"][a:b, jj] - alone)) <= (
                1e-11 * np.max(np.abs(col)))


def test_method_d_designs_the_filter_once(monkeypatch):
    """A D fit over three segments (two of one length, one shorter)
    designs its band-pass once, with the steady state and block matrices
    every one of its filter calls reuses."""
    calls = []
    real_design = dsp.design_bandpass

    def counted_design(*args):
        calls.append(args)
        return real_design(*args)

    monkeypatch.setattr(dsp, "design_bandpass", counted_design)
    bank, alpha_true, p_vals = _separated_instance(kd=2 * 2880 + 1500)
    cap = fit_method_d(ts(p_vals, 30), bank, 1 / 600, 1 / 120,
                       starts=(0, 2880, 5760))
    assert calls == [(1 / 600, 1 / 120, 1 / 30)]
    assert rel_err(cap.alpha, alpha_true) < 1e-6


def test_method_d_refuses_empty_band():
    """A band with no irradiance energy must not fit noise as capacity."""
    kd = 2880
    flat = PlaneBank(tuple(PlaneConfig(10.0 + 5 * j, 120.0 + 30 * j)
                           for j in range(4)),
                     np.full((4, kd), 400.0), START, 30)
    with pytest.raises(SolverError,
                       match="pass band contains no irradiance signal"):
        fit_method_d(ts(np.full(kd, 5.0), 30), flat, 1 / 600, 1 / 120)


def test_method_d_spike_robustness(monkeypatch):
    """5% impulsive corruption at inrush scale: bounded damage, and the
    bisquare loss clearly beats a plain least-squares read of the same
    filtered data (the filter smears impulses into the pass band, so
    some damage is unavoidable)."""
    bank, alpha_true, p_clean = _separated_instance()
    kd = len(p_clean)
    noise = np.random.default_rng(9).normal(0.0, 0.3, kd)
    base = p_clean + noise
    spiked = base.copy()
    idx = np.random.default_rng(10).choice(kd, size=kd // 20, replace=False)
    spiked[idx] += np.random.default_rng(11).choice([-2.0, 2.0],
                                                    size=idx.size)
    e_clean = rel_err(
        fit_method_d(ts(base, 30), bank, 1 / 600, 1 / 120).alpha,
        alpha_true)
    e_spike = rel_err(
        fit_method_d(ts(spiked, 30), bank, 1 / 600, 1 / 120).alpha,
        alpha_true)
    # a cutoff no residual reaches: plain least squares
    monkeypatch.setattr(optim, "_BISQUARE_TUNING", 1e9)
    e_ls = rel_err(
        fit_method_d(ts(spiked, 30), bank, 1 / 600, 1 / 120).alpha,
        alpha_true)
    assert e_clean < 0.05
    assert e_spike <= 2.0 * e_clean
    assert e_spike <= 0.8 * e_ls


# --------------------------------------------- B and C against oracles

def _tv_prox_oracle(y, mu):
    """argmin_x 0.5|x - y|^2 + mu*sum|dx| through its box-constrained
    dual  min_z |y - mu D'z|^2, |z| <= 1, solved by BVLS."""
    d = np.diff(np.eye(y.size), axis=0)
    z = lsq_linear(mu * d.T, y, bounds=(-1.0, 1.0), method="bvls",
                   tol=1e-14).x
    return y - mu * d.T @ z


def _b_envelope(p_vals, bank, alpha, lam, seg):
    """B's objective minimized over L for fixed alpha, and its certificate.

    The best L is the TV prox of y = P + G clipped at zero on each
    segment (Yu, NeurIPS 2013).  Returns (F, projected gradient relative
    to the size of the terms the gradient sums); F is half the stated
    objective, as in the fit's report.
    """
    c_mat = bank.irradiance.T / 1000.0
    y = p_vals + c_mat @ alpha
    mu = lam / 2.0
    segs = [slice(a, a + seg) for a in range(0, y.size, seg)]
    l_vals = np.concatenate([np.clip(_tv_prox_oracle(y[s], mu), 0, None)
                             for s in segs])
    r = y - l_vals
    tv = sum(np.abs(np.diff(l_vals[s])).sum() for s in segs)
    grad = c_mat.T @ r
    cert = (np.max(np.abs(alpha - np.clip(alpha - grad, 0, None)))
            / (1.0 + np.max(np.abs(c_mat).T @ np.abs(r))))
    return 0.5 * r @ r + mu * tv, cert


def _c_oracle(p_vals, bank, c, seg):
    """C as one full NNLS over block levels and capacities, on [E, -C]."""
    k = p_vals.size
    starts = np.concatenate([np.arange(a, min(a + seg, k), c)
                             for a in range(0, k, seg)])
    blocks = np.repeat(np.arange(starts.size), np.diff(np.append(starts, k)))
    e = np.zeros((k, starts.size))
    e[np.arange(k), blocks] = 1.0
    sol, _ = nnls(np.hstack([e, -bank.irradiance.T / 1000.0]), p_vals)
    return sol[starts.size:]


def _random_bank(rng, j, k, period):
    irr = rng.uniform(0.0, 900.0, (j, k)) * (rng.random((j, k)) < 0.8)
    planes = tuple(PlaneConfig(10.0 + 5 * i, 120.0) for i in range(j))
    return PlaneBank(planes, irr, START, period)


def test_method_c_matches_full_nnls_on_a_sweep_fold():
    """A cross-validation fold whose capacities an inexact solver put at
    33.4 kWp; the optimum, at 42.0 kWp, must come back to NNLS precision."""
    data = generate_scenario(ScenarioSpec(days=3, period_s=10, noise_kw=0.1,
                                          seed=0))
    p_r = resample_average(data.p, 30)
    train_days, _ = make_folds(3, 0).train_test(2)
    idx = np.concatenate([np.arange(d * 2880, (d + 1) * 2880)
                          for d in train_days])
    p_tr = TimeSeries(p_r.start_epoch, 30, p_r.values[idx], UNIT_KW)
    bank_tr = data.bank.resampled(30).sliced(idx)
    cap, _ = fit_method_c(p_tr, bank_tr, 10)
    ref = _c_oracle(p_tr.values, bank_tr, 10, 2880)
    assert cap.report.converged
    assert abs(ref.sum() - 42.0) < 0.05
    assert np.max(np.abs(cap.alpha - ref)) <= 1e-8


def test_method_b_certified_where_demand_clips_at_zero():
    bank = textured_bank(288, 300)
    rng = np.random.default_rng(17)
    rng.choice([4, 12, 24])  # advances the stream to this instance
    alpha_true = rng.uniform(0, 3, 4) * (rng.random(4) < 0.7)
    l_true = (np.clip(rng.uniform(-2, 4, 24).repeat(12), 0, None)
              + 0.2 * rng.standard_normal(288))
    p_vals = l_true - alpha_true @ bank.irradiance / 1000.0
    cap, l_hat = fit_method_b(ts(p_vals, 300), bank, lam=2.0,
                              starts=(0, 144))
    assert np.any(l_hat.values == 0.0)
    obj, cert = _b_envelope(p_vals, bank, cap.alpha, 2.0, 144)
    assert cap.report.converged
    assert cert <= 1e-6
    assert abs(obj - cap.report.objective) <= 1e-9 * obj


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 8),
       j=st.integers(1, 4), seg=st.sampled_from([None, 17, 24]))
def test_method_c_equals_full_nnls(seed, c, j, seg):
    """Random small feeders, many with negative block means (demand
    clipped at zero), blocks restarting at every segment start: the
    capacities are the full NNLS optimum."""
    rng = np.random.default_rng(seed)
    k = 48
    bank = _random_bank(rng, j, k, 300)
    levels = np.repeat(rng.uniform(-3.0, 4.0, -(-k // c)), c)[:k]
    p_vals = (levels + 0.3 * rng.standard_normal(k)
              - rng.uniform(0.0, 3.0, j) @ bank.irradiance / 1000.0)
    cap, _ = fit_method_c(ts(p_vals, 300), bank, c,
                          starts=np.arange(0, k, seg or k))
    ref = _c_oracle(p_vals, bank, c, seg or k)
    assert cap.report.converged
    assert np.max(np.abs(cap.alpha - ref)) <= 1e-7 * (1.0 + np.max(ref))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.5, 2.0, 8.0]),
       j=st.integers(1, 4))
def test_method_b_certified_and_unbeaten(seed, lam, j):
    """Random small feeders with demand dipping below zero: B's
    capacities pass the oracle's certificate, and no random feasible
    perturbation lowers the oracle's objective."""
    rng = np.random.default_rng(seed)
    k, seg = 60, 30
    bank = _random_bank(rng, j, k, 300)
    p_vals = (np.repeat(rng.uniform(-2.0, 4.0, 6), 10)
              + 0.2 * rng.standard_normal(k)
              - rng.uniform(0.0, 3.0, j) @ bank.irradiance / 1000.0)
    cap, _ = fit_method_b(ts(p_vals, 300), bank, lam, starts=(0, seg))
    obj, cert = _b_envelope(p_vals, bank, cap.alpha, lam, seg)
    assert cap.report.converged
    assert cert <= 1e-6
    for _ in range(10):
        trial = np.clip(cap.alpha + rng.normal(0.0, 0.05, j), 0.0, None)
        assert _b_envelope(p_vals, bank, trial, lam, seg)[0] \
            >= obj - 1e-9 * (1.0 + obj)


def test_method_b_start_from_c_keeps_the_cold_optimum():
    """B's loop starts from C's capacities (blocks of about 900 s) but
    certifies its own objective, so it lands where a loop from zero lands,
    and the two fits together take fewer evaluations of B's prox-based
    objective and C's block means than that cold loop."""
    data = generate_scenario(ScenarioSpec(days=3, period_s=10, seed=1))
    p = resample_average(data.p, 60)
    bank = data.bank.resampled(60)
    starts = np.arange(0, 3 * 1440, 1440)
    mu = 0.5  # lam = 1

    def demand(y):
        l_vals, tv = solve_l1_trend_qp(y, mu, starts)
        runs = np.union1d(starts, np.flatnonzero(np.diff(l_vals)) + 1)
        return l_vals, runs, mu * tv
    cold, _ = methods._fit_envelope(p, bank, demand, np.zeros(21))
    cap, _ = fit_method_b(p, bank, 1.0, starts=starts)
    notes = cap.report.notes
    assert cold.report.converged and cap.report.converged
    assert notes["start_c"] == 15
    assert np.max(np.abs(cap.alpha - cold.alpha)) \
        <= 1e-9 * np.max(cold.alpha)
    assert cap.report.objective \
        <= cold.report.objective * (1.0 + 1e-12)
    assert notes["evaluations"] + notes["start_evaluations"] \
        < cold.report.notes["evaluations"]


@pytest.mark.parametrize("res", [60, 300])
def test_method_b_certifies_where_the_full_model_step_ascends(res):
    """On the first of scenario seed 23's days B's model Hessian is near
    singular over the planes a positive gradient holds at zero, where a
    model minimizer that loses the others' gradient ascended: the active
    set started from the current capacities keeps that gradient, and B
    certifies its projected gradient rather than stopping above it."""
    data = generate_scenario(ScenarioSpec(days=3, period_s=10, seed=23))
    p = resample_average(data.p, res)
    day = np.arange(p.samples_per_day)  # the training day of fold 1
    bank = data.bank.resampled(res).sliced(day)
    cap, _, _ = methods.fit(p.with_values(p.values[day]), bank,
                            MethodParams("B", res, lam=1.0))
    assert cap.report.status == "solved" and cap.report.converged
    assert cap.report.dual_residual <= methods._ENVELOPE_TOL


def test_small_lam_hessians_end_the_active_set_within_its_cap(monkeypatch):
    """B at lam = 1e-6 on 3 days at 60 s (scenario seed 1) hands solve_qp
    model Hessians of rank 1 to 6 of 21 from a zero start, several with a
    singular passive Gram on the way, and a zero one at C's start, where
    the model is unbounded below and solve_qp certifies nothing.  Every
    solve ends within the active set's cap, with no RuntimeWarning; both
    loops stop at line_search, as B at so small a lam does."""
    data = generate_scenario(ScenarioSpec(days=3, period_s=60, seed=1))
    starts = np.arange(0, 3 * 1440, 1440)
    mu = 5e-7  # lam = 1e-6

    def demand(y):
        l_vals, tv = solve_l1_trend_qp(y, mu, starts)
        runs = np.union1d(starts, np.flatnonzero(np.diff(l_vals)) + 1)
        return l_vals, runs, mu * tv
    seen = []
    real = methods.solve_qp

    def spy(prog, **kwargs):
        x, rep = real(prog, **kwargs)
        seen.append((np.linalg.matrix_rank(prog.h), rep))
        return x, rep
    monkeypatch.setattr(methods, "solve_qp", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cold, _ = methods._fit_envelope(data.p, data.bank, demand,
                                        np.zeros(21))
        cap, _ = fit_method_b(data.p, data.bank, 1e-6, starts=starts)
    ranks = [rank for rank, _ in seen]
    assert 0 in ranks and {4, 5} <= set(ranks)
    assert any(rep.notes.get("singular_passive_gram") for _, rep in seen)
    assert all(rep.status != "max_iter"
               and rep.iterations < optim._SOLVES_PER_VARIABLE * 21
               for _, rep in seen)
    assert cold.report.status == cap.report.status == "line_search"


# ------------------------------------------------------------ dispatcher

def test_fit_returns_demand_only_for_joint_methods():
    bank = textured_bank(1440, 60)
    p = ts(5.0 - 2.0 * bank.irradiance[3] / 1000.0, 60)
    for method, params in (
            ("A", MethodParams("A", 60)),
            ("B", MethodParams("B", 60, lam=5.0)),
            ("C", MethodParams("C", 60, c=30)),
            ("D", MethodParams("D", 60, f_low=1 / 1200, f_high=1 / 240))):
        cap, l_hat, seconds = fit(p, bank, params)
        assert isinstance(cap, CapacityVector)
        assert cap.alpha.size == 4
        assert seconds > 0
        assert cap.report.wall_time == seconds  # one clock
        if method in ("B", "C"):
            assert isinstance(l_hat, TimeSeries)
        else:
            assert l_hat is None


@pytest.mark.parametrize("params", [
    MethodParams("A", 60), MethodParams("B", 60, lam=5.0),
    MethodParams("C", 60, c=50),
    MethodParams("D", 60, f_low=1 / 1200, f_high=1 / 240)],
    ids=["A", "B", "C", "D"])
def test_fit_cuts_two_whole_days_at_the_day_by_default(params):
    """Without segment_length, fit cuts a series of two whole days at the
    day, as the CLI and the sweeps do: each method's fit is bit for bit
    the one with a day's segment_length.  The bank never goes dark and
    demand steps at midnight, so a pair, trend, block or filter run
    across the cut would change every method's answer."""
    bank = textured_bank(2880, 60)
    bank = PlaneBank(bank.planes, bank.irradiance + 100.0, START, 60)
    p_vals = (np.repeat(np.random.default_rng(5).uniform(2.0, 9.0, 48), 60)
              - np.array([1.5, 0.0, 2.5, 0.8]) @ bank.irradiance / 1000.0)
    cap, l_hat, _ = fit(ts(p_vals, 60), bank, params)
    day, l_day, _ = fit(ts(p_vals, 60), bank, params, segment_length=1440)
    assert np.array_equal(cap.alpha, day.alpha)
    if l_day is not None:
        assert np.array_equal(l_hat.values, l_day.values)


def test_fit_refuses_params_for_another_period():
    """params record the period a fit ran at, so it must be P's."""
    bank = textured_bank(1440, 60)
    p = ts(5.0 - 2.0 * bank.irradiance[3] / 1000.0, 60)
    with pytest.raises(InputError, match="params are for 30 s samples, "
                                         "P is sampled every 60 s"):
        fit(p, bank, MethodParams("D", 30, f_low=1 / 1200, f_high=1 / 240))


def test_fit_refuses_a_zero_bank():
    """A bank zero on every sample identifies no capacity: every method
    gets the same InputError before any solver runs."""
    k = 288
    zero = PlaneBank(tuple(PlaneConfig(10.0 + 5 * j, 120.0 + 30 * j)
                           for j in range(4)), np.zeros((4, k)), START, 300)
    p = ts(np.full(k, 5.0), 300)
    for params in (MethodParams("A", 300), MethodParams("B", 300, lam=1.0),
                   MethodParams("C", 300, c=10),
                   MethodParams("D", 300, f_low=1 / 7200, f_high=1 / 1200)):
        with pytest.raises(InputError, match="zero on every sample"):
            fit(p, zero, params)


def test_fit_leaves_a_series_of_one_sample_a_day_whole():
    """A one-sample day cannot be a segment, so a daily series is fit as
    one segment, as it is with its whole length given."""
    rng = np.random.default_rng(3)
    irr = rng.uniform(100.0, 900.0, (1, 40))
    bank = PlaneBank((PlaneConfig(30.0, 180.0),), irr, START, 86400)
    p = ts(rng.uniform(1.0, 5.0, 40) - 2.0 * irr[0] / 1000.0, 86400)
    params = MethodParams("A", 86400)
    cap, _, _ = fit(p, bank, params)
    whole, _, _ = fit(p, bank, params, segment_length=40)
    assert np.array_equal(cap.alpha, whole.alpha)


def test_fit_mask_policy():
    """The mask reaches A and D but is ignored by the joint fits, whose
    demand block needs the night samples to anchor L."""
    bank = textured_bank(1440, 60)
    p = ts(5.0 - 2.0 * bank.irradiance[3] / 1000.0, 60)
    sparse = np.zeros(1440, dtype=bool)
    sparse[[10, 500, 900]] = True
    for params in (MethodParams("A", 60),
                   MethodParams("D", 60, f_low=1 / 1200, f_high=1 / 240)):
        with pytest.raises(ValueError):
            fit(p, bank, params, night_mask=sparse)
    for params in (MethodParams("B", 60, lam=5.0),
                   MethodParams("C", 60, c=30)):
        cap, _, _ = fit(p, bank, params, night_mask=sparse)
        assert np.all(np.isfinite(cap.alpha))


@pytest.mark.parametrize("bad", [
    dict(method="E", sampling_period=60),
    dict(method="A", sampling_period=0),
    dict(method="B", sampling_period=60, lam=-1.0),
    dict(method="B", sampling_period=60, lam=0.0),
    dict(method="C", sampling_period=60, c=0),
    dict(method="C", sampling_period=60, c=1),
    dict(method="C", sampling_period=60, c=2.5),
    dict(method="D", sampling_period=60, f_high=1 / 240),
    dict(method="D", sampling_period=60, f_low=1 / 240, f_high=1 / 1200),
    dict(method="B", sampling_period=60),  # lam = 0 and c = 1 are refused,
    dict(method="C", sampling_period=60),  # so neither is a default
    # each method refuses the others' parameters
    dict(method="A", sampling_period=60, lam=3.0, c=7),
    dict(method="B", sampling_period=60, lam=1.0, f_low=1 / 1200),
    dict(method="C", sampling_period=60, c=10, f_high=1 / 240),
    dict(method="D", sampling_period=60, f_low=1 / 1200, f_high=1 / 240,
         c=5),
])
def test_method_params_validation(bad):
    with pytest.raises(ValueError):
        MethodParams(**bad).validate()


def test_method_params_to_dict_keeps_relevant_fields():
    d_a = MethodParams("A", 60).to_dict()
    assert "lam" not in d_a and "c" not in d_a and "f_low" not in d_a
    d_d = MethodParams("D", 60, f_low=0.001, f_high=0.01).to_dict()
    assert d_d["f_low"] == 0.001 and d_d["f_high"] == 0.01
    assert "irls_tuning" not in d_d  # the bisquare cutoff is a constant


# ---------------------------------------------------------- disaggregate

def test_disaggregate_zero_capacity_passthrough():
    bank = smooth_bank(288, 300)
    p_vals = np.random.default_rng(1).uniform(0.5, 6.0, 288)
    res = disaggregate(ts(p_vals, 300),
                       CapacityVector(np.zeros(4), bank.geometry_hash),
                       bank)
    assert np.array_equal(res.l_hat.values, p_vals)
    assert np.array_equal(res.g_hat.values, np.zeros(288))
    assert res.report.notes["clip_count"] == 0
    assert res.report.notes["identity_violations"] == 0
    assert res.report.converged


def test_disaggregate_clipping_is_counted():
    """Underestimated capacity drives reconstructed demand negative;
    the clip is allowed but must be accounted, never silent."""
    bank = smooth_bank(288, 300)
    p_vals = 0.1 - 2.0 * bank.irradiance[3] / 1000.0   # deep PV export
    res = disaggregate(ts(p_vals, 300),
                       CapacityVector(np.zeros(4), bank.geometry_hash),
                       bank)
    expected_clips = int(np.count_nonzero(p_vals < 0))
    assert expected_clips > 50
    assert res.report.notes["clip_count"] == expected_clips
    assert res.report.notes["identity_violations"] == 0
    assert np.array_equal(res.l_hat.values,
                          np.clip(p_vals, 0.0, None))


def test_disaggregate_night_is_passthrough():
    bank = smooth_bank(1440, 60)
    alpha = CapacityVector(np.array([1.0, 0.0, 2.0, 0.5]),
                           bank.geometry_hash)
    l_true = np.full(1440, 3.0)
    p_vals = l_true - predict_generation(alpha, bank).values
    res = disaggregate(ts(p_vals, 60), alpha, bank)
    night = bank.irradiance.sum(axis=0) == 0
    assert night.sum() > 400
    assert np.array_equal(res.g_hat.values[night], np.zeros(night.sum()))
    assert np.array_equal(res.l_hat.values[night], p_vals[night])


def test_disaggregate_identity_pre_clipping():
    bank = textured_bank(1440, 60)
    alpha = CapacityVector(np.array([1.2, 0.0, 2.5, 0.0]),
                           bank.geometry_hash)
    p_vals = 5.0 - predict_generation(alpha, bank).values
    res = disaggregate(ts(p_vals, 60), alpha, bank)
    l_pre = p_vals + res.g_hat.values
    assert np.array_equal(res.l_hat.values, np.clip(l_pre, 0.0, None))
    assert res.report.notes["identity_violations"] == 0
    assert res.report.notes["identity_max_abs_error_kw"] <= 1e-9
    assert res.report.notes["training_status"] == "unknown"


def test_disaggregate_rejects_mismatched_grid():
    bank = smooth_bank(288, 300)
    with pytest.raises(InputError, match="not on the same sampling grid"):
        disaggregate(ts(np.ones(288), 60),
                     CapacityVector(np.zeros(4), bank.geometry_hash), bank)


# ----------------------------------------------------------- equivariance

@pytest.mark.parametrize("s", [0.25, 0.5])
def test_scale_equivariance(s):
    """Scaling the whole feeder (demand and plant) scales the estimate."""
    bank = textured_bank(1440, 60)
    alpha_true = np.array([1.2, 0.0, 2.5, 0.0])
    g = alpha_true @ bank.irradiance / 1000.0
    l_true = np.repeat(np.random.default_rng(4).uniform(2.0, 8.0, 48), 30)
    p_vals = l_true - g

    cap_a = fit_method_a(ts(p_vals, 60), bank)
    cap_a_s = fit_method_a(ts(s * p_vals, 60), bank)
    assert np.allclose(cap_a_s.alpha, s * cap_a.alpha, atol=1e-6)

    cap_c, _ = fit_method_c(ts(p_vals, 60), bank, c=30)
    cap_c_s, _ = fit_method_c(ts(s * p_vals, 60), bank, c=30)
    assert np.allclose(cap_c_s.alpha, s * cap_c.alpha, atol=1e-8)

    band = (1 / 600, 1 / 150)        # below the 60 s grid's Nyquist
    cap_d = fit_method_d(ts(p_vals, 60), bank, *band)
    cap_d_s = fit_method_d(ts(s * p_vals, 60), bank, *band)
    assert np.allclose(cap_d_s.alpha, s * cap_d.alpha, atol=1e-6)
