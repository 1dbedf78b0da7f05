"""Metrics, the synthetic-feeder generator, CV sweeps, penetration scaling."""

import dataclasses

import numpy as np
import pytest

from pvdisagg.errors import AlignmentError
from pvdisagg.evaluation import (ScenarioSpec, SweepResult, SweepRow,
                                 _telegraph, aggregate_stats, compute_metrics,
                                 generate_scenario, penetration_experiment,
                                 run_cv)
from pvdisagg.methods import MethodParams
from pvdisagg.timeseries import (SECONDS_PER_DAY, UNIT_KW, make_folds,
                                 resample_average)

from conftest import make_series


# ---------------------------------------------------------------------------
# metrics

def test_metrics_symmetric_errors_cancel_the_mean():
    g_true = make_series([5.0, 3.0])
    g_hat = make_series([4.0, 4.0])
    m = compute_metrics(g_true, g_hat, 10.0)
    assert abs(m.nrmse - 10.0) < 1e-12
    assert abs(m.nmae - 10.0) < 1e-12
    assert abs(m.nme) < 1e-12
    assert m.n_samples == 2


def test_metrics_constant_bias_collapses_all_three():
    # a flat 0.353 kW offset against a 35.3 kWp normalizer is 1% on every
    # metric, and the signed mean keeps the direction
    g_true = make_series(np.full(48, 2.353))
    g_hat = make_series(np.full(48, 2.0))
    m = compute_metrics(g_true, g_hat, 35.3)
    assert abs(m.nrmse - 1.0) < 1e-12
    assert abs(m.nmae - 1.0) < 1e-12
    assert abs(m.nme - 1.0) < 1e-12


def test_metrics_ordering_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        g_true = make_series(rng.normal(0.0, 2.0, n))
        g_hat = make_series(g_true.values + rng.normal(0.5, 1.5, n))
        m = compute_metrics(g_true, g_hat, 10.0)
        assert m.nrmse + 1e-12 >= m.nmae >= abs(m.nme) - 1e-12


def test_metrics_require_alignment():
    with pytest.raises(AlignmentError):
        compute_metrics(make_series([1.0, 2.0], period=10),
                        make_series([1.0, 2.0], period=30), 10.0)


@pytest.mark.parametrize("cap", [0.0, -3.0])
def test_metrics_reject_nonpositive_capacity(cap):
    with pytest.raises(ValueError):
        compute_metrics(make_series([1.0]), make_series([1.0]), cap)


def test_aggregate_stats_hand_case():
    stats = aggregate_stats([3.0, 1.0, 2.0, 4.0])
    assert stats == {"min": 1.0, "max": 4.0, "mean": 2.5, "median": 2.5}


def test_aggregate_stats_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_stats([])


# ---------------------------------------------------------------------------
# scenario spec validation

@pytest.mark.parametrize("changes", [
    {"days": 0},
    {"period_s": 7},                       # does not divide one day
    {"period_s": 0},
    {"demand_step_s": 1805},               # not a multiple of period_s
    {"plant": ()},
    {"plant": ({"tilt": 30.0, "azimuth": 180.0, "kwp": -1.0},)},
    {"noise_kw": -0.1},
    {"inrush_kw": -1.0},
    {"battery_kwh": -5.0},
    {"cloud_kinds": ("clear", "clear")},   # one short for three days
    {"cloud_kinds": ("clear", "foggy", "clear")},
    {"cycle_kw": 2.0, "cycle_period_s": 250},  # half-cycle not on the grid
    {"self_consumption": True, "actuation_s": 600},
])
def test_spec_validation_rejects(changes):
    spec = dataclasses.replace(ScenarioSpec(days=3, period_s=10), **changes)
    with pytest.raises(ValueError):
        spec.validate()


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scenario keys"):
        ScenarioSpec.from_dict({"days": 2, "sharding": 4})


def test_spec_dict_round_trip():
    spec = ScenarioSpec(days=4, period_s=30, noise_kw=0.2, seed=9,
                        cloud_kinds=("clear", "partly", "overcast", "clear"))
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.capacity_kwp == spec.capacity_kwp


def test_spec_default_capacity():
    assert abs(ScenarioSpec().capacity_kwp - 35.3) < 1e-12


# ---------------------------------------------------------------------------
# scenario generation

def test_generator_is_deterministic():
    spec = ScenarioSpec(days=3, period_s=60, noise_kw=0.1, seed=21)
    a = generate_scenario(spec)
    b = generate_scenario(spec)
    assert np.array_equal(a.p.values, b.p.values)
    assert np.array_equal(a.ghi.values, b.ghi.values)
    assert np.array_equal(a.g_true.values, b.g_true.values)
    assert np.array_equal(a.bank.irradiance, b.bank.irradiance)


def test_generator_seed_changes_the_draws():
    base = ScenarioSpec(days=3, period_s=60, noise_kw=0.1, seed=21)
    a = generate_scenario(base)
    b = generate_scenario(dataclasses.replace(base, seed=22))
    assert not np.array_equal(a.p.values, b.p.values)


def test_generator_shapes_and_units(small_scenario):
    n = 3 * SECONDS_PER_DAY // 60
    for series in (small_scenario.p, small_scenario.g_true,
                   small_scenario.l_true, small_scenario.battery):
        assert len(series) == n
        assert series.unit == UNIT_KW
    assert small_scenario.bank.irradiance.shape == (21, n)
    assert small_scenario.n_days == 3


def test_generator_flow_identity_without_noise(small_scenario):
    # no battery and no noise: the feeder flow is demand minus generation,
    # sample for sample
    expected = small_scenario.l_true.values - small_scenario.g_true.values
    assert np.array_equal(small_scenario.p.values, expected)


def test_generator_battery_is_zero_when_disabled(small_scenario):
    assert not small_scenario.battery.values.any()


def test_generator_noise_has_the_requested_scale():
    spec = ScenarioSpec(days=3, period_s=60, noise_kw=0.5,
                        inrush_per_day=0.0, self_consumption=False, seed=2)
    data = generate_scenario(spec)
    resid = data.p.values - (data.l_true.values - data.g_true.values)
    assert abs(float(np.std(resid)) - 0.5) < 0.05
    assert abs(float(np.mean(resid))) < 0.05


def test_generator_cloud_kinds_scale_the_sky():
    base = ScenarioSpec(days=2, period_s=60, noise_kw=0.0, seed=5)
    clear = generate_scenario(
        dataclasses.replace(base, cloud_kinds=("clear", "clear")))
    overcast = generate_scenario(
        dataclasses.replace(base, cloud_kinds=("overcast", "overcast")))
    assert clear.ghi.values.mean() > 1.5 * overcast.ghi.values.mean()


def test_telegraph_matches_the_sample_loop():
    """The vectorized switching signal equals a per-sample loop over the
    same draws, and leaves the generator in the same state."""
    def loop(rng, n, lo, hi, flip_p):
        state = rng.random() < 0.5
        flips = rng.random(n) < flip_p
        out = np.empty(n)
        for i in range(n):
            if flips[i]:
                state = not state
            out[i] = hi if state else lo
        return out

    cases = np.random.default_rng(3)
    for seed in range(200):
        n = int(cases.integers(0, 400))
        flip_p = float(cases.choice([0.0, 1.0, cases.random()]))
        fast, slow = (np.random.default_rng(seed) for _ in range(2))
        assert np.array_equal(_telegraph(fast, n, 0.35, 0.95, flip_p),
                              loop(slow, n, 0.35, 0.95, flip_p))
        assert fast.random() == slow.random()


def test_generator_duty_cycle_is_a_square_wave():
    base = ScenarioSpec(days=1, period_s=10, noise_kw=0.0,
                        inrush_per_day=0.0, seed=13)
    plain = generate_scenario(base)
    cycled = generate_scenario(
        dataclasses.replace(base, cycle_kw=2.0, cycle_period_s=240))
    d = cycled.l_true.values - plain.l_true.values
    # the only change is the on/off load: a 240 s square wave, half duty
    assert np.all((np.abs(d) < 1e-9) | (np.abs(d - 2.0) < 1e-9))
    on = d > 1.0
    assert np.array_equal(on[:-24], on[24:])
    assert abs(float(np.mean(on)) - 0.5) < 1e-12


def test_generator_battery_respects_rating_and_capacity():
    spec = ScenarioSpec(days=3, period_s=60, noise_kw=0.0,
                        inrush_per_day=0.0, self_consumption=True, seed=3,
                        cloud_kinds=("clear", "clear", "clear"))
    data = generate_scenario(spec)
    b = data.battery.values
    assert float(np.max(np.abs(b))) <= spec.battery_kva + 1e-12
    # setpoints hold for whole 300 s actuation windows
    per_window = b.reshape(-1, 300 // 60)
    assert float(np.max(np.ptp(per_window, axis=1))) == 0.0
    # replayed state of charge stays inside the pack
    dt_h = 60 / 3600.0
    soc = spec.battery_kwh / 2.0 + np.cumsum(b) * dt_h
    assert float(soc.min()) >= -1e-9
    assert float(soc.max()) <= spec.battery_kwh + 1e-9
    # the dispatch is self-consumption: charge only on PV surplus,
    # discharge only under deficit (setpoint chosen at window starts)
    surplus = (data.g_true.values - data.l_true.values)[::300 // 60]
    setpoints = per_window[:, 0]
    assert np.all(setpoints * surplus >= -1e-12)
    assert np.any(setpoints > 0.1)
    assert np.any(setpoints < -0.1)


def test_generator_battery_masks_the_flow():
    spec = ScenarioSpec(days=3, period_s=60, noise_kw=0.0,
                        inrush_per_day=0.0, self_consumption=True, seed=3,
                        cloud_kinds=("clear", "clear", "clear"))
    data = generate_scenario(spec)
    expected = (data.l_true.values + data.battery.values
                - data.g_true.values)
    assert np.allclose(data.p.values, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# cross-validated sweep

def test_run_cv_row_layout(noisy_scenario):
    grid = [MethodParams("C", 60, c=10)]
    result = run_cv(noisy_scenario, grid, resolutions=(300,))
    assert len(result.rows) == 3
    assert {r.fold for r in result.rows} == {0, 1, 2}
    for r in result.rows:
        assert r.method == "C"
        assert r.resolution == 300
        assert r.params["c"] == 10
        assert r.converged
        assert r.seconds > 0.0
        assert r.nrmse + 1e-12 >= r.nmae >= abs(r.nme) - 1e-12


def test_run_cv_resolution_overrides_grid_period(noisy_scenario):
    # the grid entry carries the base period; the sweep re-stamps it per
    # resolution, so a single entry covers every resolution
    grid = [MethodParams("A", 60)]
    result = run_cv(noisy_scenario, grid, resolutions=(300, 900))
    assert {r.resolution for r in result.rows} == {300, 900}
    assert len(result.rows) == 6


def test_fold_plan_partitions_the_days():
    folds = make_folds(9, seed=4)
    for k in range(3):
        train, test = folds.train_test(k)
        assert not set(train) & set(test)
        assert sorted(set(train) | set(test)) == list(range(9))


def test_sweep_result_aggregation_hand_case():
    rows = [SweepRow("A", 60, {}, k, nrmse, nrmse, 0.0, 0.1, True)
            for k, nrmse in enumerate([2.0, 4.0, 6.0])]
    rows += [SweepRow("C", 60, {"c": 5}, k, nrmse, nrmse, 0.0, 0.1, True)
             for k, nrmse in enumerate([1.0, 1.0, 1.0])]
    result = SweepResult(rows)
    assert len(result.grid_points()) == 2
    stats = result.fold_stats()
    assert stats[0]["folds"] == 3
    assert stats[0]["min"] == 2.0 and stats[0]["max"] == 6.0
    means = result.fold_means()
    assert means[0]["nrmse"] == 4.0
    assert means[1]["nrmse"] == 1.0
    summary = result.summary()
    assert summary == {"min": 1.0, "max": 4.0, "mean": 2.5, "median": 2.5}


# ---------------------------------------------------------------------------
# penetration scaling

def test_penetration_full_fraction_matches_plain_cv(noisy_scenario):
    params = MethodParams("C", 60, c=10)
    rows = penetration_experiment(noisy_scenario, [params],
                                  fractions=(1.0,), resolution=300)
    cv = run_cv(noisy_scenario, [params], resolutions=(300,))
    fold0 = [r for r in cv.rows if r.fold == 0][0]
    assert abs(rows[0]["nrmse"] - fold0.nrmse) < 1e-12
    assert abs(rows[0]["nmae"] - fold0.nmae) < 1e-12


def test_penetration_row_grid(noisy_scenario):
    methods = [MethodParams("A", 60), MethodParams("C", 60, c=10)]
    rows = penetration_experiment(noisy_scenario, methods,
                                  fractions=(1.0, 0.5, 0.25),
                                  resolution=300)
    assert len(rows) == 6
    assert [r["fraction"] for r in rows] == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25]
    for r in rows:
        assert set(r) == {"method", "fraction", "capacity_kwp", "nrmse",
                          "nmae", "nme", "seconds", "converged"}
    quarter = [r for r in rows if r["fraction"] == 0.25][0]
    assert abs(quarter["capacity_kwp"]
               - 0.25 * noisy_scenario.capacity_kwp) < 1e-12


def test_penetration_rejects_bad_fractions(noisy_scenario):
    with pytest.raises(ValueError):
        penetration_experiment(noisy_scenario, [MethodParams("A", 60)],
                               fractions=(0.0,), resolution=300)


def test_penetration_shrinking_plant_raises_errors(noisy_scenario):
    # normalizing by the shrunken capacity while demand noise stays fixed
    # must not flatter the estimate: error percentages rise as PV shrinks
    params = MethodParams("A", 60)
    rows = penetration_experiment(noisy_scenario, [params],
                                  fractions=(1.0, 0.25), resolution=300)
    assert rows[1]["nrmse"] >= rows[0]["nrmse"]
