"""Shared fixtures: a small site, a tiny synthetic feeder, CSV helpers."""

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog  # bound here, so a monkeypatch misses it

from pvdisagg.evaluation import ScenarioSpec, generate_scenario
from pvdisagg.solar import SiteConfig
from pvdisagg.timeseries import UNIT_KW, TimeSeries

# 2023-06-01T00:00Z — all synthetic data in the suite starts here
START = 1685577600


@pytest.fixture(scope="session")
def site():
    return SiteConfig(latitude=47.5, longitude=7.5, altitude=260.0,
                      albedo=0.2)


@pytest.fixture(scope="session")
def small_scenario():
    """Three quiet days at 60 s: no noise, no battery, no inrushes."""
    spec = ScenarioSpec(days=3, period_s=60, noise_kw=0.0,
                        inrush_per_day=0.0, self_consumption=False, seed=7)
    return generate_scenario(spec)


@pytest.fixture(scope="session")
def noisy_scenario():
    """Three days at 60 s with demand steps, inrushes and meter noise."""
    spec = ScenarioSpec(days=3, period_s=60, noise_kw=0.1, seed=11,
                        self_consumption=False)
    return generate_scenario(spec)


def make_series(values, period=10, start=START, unit=UNIT_KW):
    return TimeSeries(start, period, np.asarray(values, dtype=float), unit)


@pytest.fixture
def series_factory():
    return make_series


def highs_stops_short(monkeypatch, with_point: bool):
    """Make linprog return HiGHS's answer under a non-optimal status: the
    iteration limit with its last point, or numerical trouble with no
    point at all."""
    real_linprog = scipy.optimize.linprog

    def stopped(*args, **kw):
        res = real_linprog(*args, **kw)
        if with_point:
            res.status, res.success = 1, False
        else:
            res.status, res.success, res.x = 4, False, None
            res.ineqlin.marginals = None
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", stopped)


def l1_oracle(dp, dm):
    """min sum |dp + dm a| over a >= 0 as the primal epigraph LP
    min sum t  s.t.  -t <= dp + dm a <= t, solved by HiGHS with presolve."""
    r, j = dm.shape
    eye = np.eye(r)
    res = linprog(np.concatenate([np.zeros(j), np.ones(r)]),
                  A_ub=np.block([[dm, -eye], [-dm, -eye]]),
                  b_ub=np.concatenate([-dp, dp]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return res.fun
