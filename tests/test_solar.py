import warnings

import numpy as np
import pytest

from pvdisagg.solar import (PlaneBank, PlaneConfig, SiteConfig, SunPosition,
                            TemperatureModel, build_bank, clearsky_ghi,
                            decompose_ghi, default_bank, site_from_config,
                            sun_position, temperature_correct,
                            transpose_hay_davies)
from pvdisagg.timeseries import (UNIT_CELSIUS, UNIT_W_PER_M2, TimeSeries,
                                 resample_average)

from conftest import START, make_series


def _sun(zenith, azimuth=180.0, extra=1366.1):
    return SunPosition(np.atleast_1d(float(zenith)),
                       np.atleast_1d(float(azimuth)),
                       np.atleast_1d(float(extra)))


# --- sun position ----------------------------------------------------------

def test_sun_position_published_reference_point():
    """2003-10-17 19:30:30 UTC at the NREL Golden, CO site.

    The widely circulated high-precision answer for this instant is
    zenith 50.11162, azimuth 194.34024 (degrees east of north).  The
    closed-form ephemeris used here is good to a few hundredths of a
    degree, far below what capacity estimation can sense.
    """
    site = SiteConfig(latitude=39.742476, longitude=-105.1786,
                      altitude=1829.0, albedo=0.2)
    sun = sun_position(np.array([1066419030]), site)
    assert abs(float(sun.zenith[0]) - 50.11162) < 0.05
    assert abs(float(sun.azimuth[0]) - 194.34024) < 0.05


def test_sun_position_vectorized(site):
    t = START + 60 * np.arange(1440)
    sun = sun_position(t, site)
    assert sun.zenith.shape == (1440,)
    # local solar noon near 11:30 UTC at 7.5 deg east
    k = int(np.argmin(sun.zenith))
    assert 600 <= k <= 780
    assert float(sun.zenith.min()) < 30.0  # June, 47.5N


def test_sun_azimuth_sweeps_east_to_west(site):
    t = START + 3600 * np.array([5, 11, 17])  # morning, noon-ish, evening
    sun = sun_position(t, site)
    az = sun.azimuth
    assert az[0] < 120.0
    assert 150.0 < az[1] < 210.0
    assert az[2] > 240.0


def test_extraterrestrial_is_eccentricity_corrected(site):
    jan = sun_position(np.array([1672574400]), site)  # 2023-01-01
    jul = sun_position(np.array([1688212800]), site)  # 2023-07-01
    # perihelion in January: ~3.3% stronger than aphelion
    assert float(jan.extraterrestrial_normal[0]) > \
        float(jul.extraterrestrial_normal[0])
    ratio = float(jan.extraterrestrial_normal[0]
                  / jul.extraterrestrial_normal[0])
    assert 1.05 < ratio < 1.08


def test_sun_position_rejects_bad_zenith():
    with pytest.raises(ValueError):
        SunPosition(np.array([200.0]), np.array([0.0]), np.array([1366.0]))


# --- clear sky -------------------------------------------------------------

def test_clearsky_dark_when_sun_down():
    assert clearsky_ghi(np.array([95.0, 90.0]))[0] == 0.0


def test_clearsky_magnitude_at_zenith():
    val = float(clearsky_ghi(np.array([0.0]))[0])
    assert 1000.0 < val < 1100.0


# --- decomposition ---------------------------------------------------------

# frozen outputs of the beam-fraction polynomial at three clearness points
DECOMP_CASES = [
    # kt, zenith, ghi, dni, dhi/ghi
    (0.20, 30.0, 236.6155, 10.1199, 0.962961),
    (0.75, 30.0, 887.3080, 799.5238, 0.219653),
    (0.50, 60.0, 341.5250, 267.5043, 0.608368),
]


@pytest.mark.parametrize("kt,zen,ghi,dni_want,dhi_ratio", DECOMP_CASES)
def test_decompose_frozen_points(kt, zen, ghi, dni_want, dhi_ratio):
    sun = _sun(zen)
    ghi_calc = kt * 1366.1 * np.cos(np.radians(zen))
    assert abs(ghi_calc - ghi) < 1e-3
    dni, dhi = decompose_ghi(np.array([ghi_calc]), sun)
    assert abs(float(dni[0]) - dni_want) < 1e-3
    assert abs(float(dhi[0] / ghi_calc) - dhi_ratio) < 1e-5


def test_decompose_closure_random_sky():
    rng = np.random.default_rng(0)
    zen = rng.uniform(0.0, 86.9, 500)
    extra = rng.uniform(1330.0, 1410.0, 500)
    kt = rng.uniform(0.0, 0.85, 500)
    ghi = kt * extra * np.cos(np.radians(zen))
    sun = SunPosition(zen, np.full(500, 180.0), extra)
    dni, dhi = decompose_ghi(ghi, sun)
    closure = dni * np.cos(np.radians(zen)) + dhi
    assert np.max(np.abs(closure - ghi)) < 1e-6
    assert np.all(dni >= 0) and np.all(dhi >= 0)


def test_decompose_all_diffuse_at_low_sun():
    sun = _sun(88.0)
    dni, dhi = decompose_ghi(np.array([30.0]), sun)
    assert float(dni[0]) == 0.0
    assert float(dhi[0]) == 30.0


def test_decompose_rejects_negative_ghi():
    with pytest.raises(ValueError):
        decompose_ghi(np.array([-1.0]), _sun(45.0))


# --- transposition ---------------------------------------------------------

def test_transpose_frozen_point(site):
    """36-degree south plane under a bright sky with the sun at 35 deg."""
    sun = _sun(35.0)
    poa = transpose_hay_davies(np.array([800.0]), np.array([120.0]),
                               np.array([775.321635]), sun,
                               PlaneConfig(36.0, 180.0), site)
    assert abs(float(poa[0]) - 945.438415) < 1e-4


def test_transpose_horizontal_is_identity(site):
    """A tilt-0 plane sees exactly the GHI (no ground view, rb = 1)."""
    rng = np.random.default_rng(1)
    zen = rng.uniform(0.0, 86.0, 200)
    extra = np.full(200, 1366.1)
    ghi = rng.uniform(0.0, 0.8, 200) * extra * np.cos(np.radians(zen))
    sun = SunPosition(zen, rng.uniform(90, 270, 200), extra)
    dni, dhi = decompose_ghi(ghi, sun)
    poa = transpose_hay_davies(dni, dhi, ghi, sun,
                               PlaneConfig(0.0, 180.0), site)
    assert np.max(np.abs(poa - ghi)) <= 1e-9 * max(1.0, ghi.max())


def test_transpose_vertical_ground_term(site):
    # no beam, no sky diffuse: only the albedo bounce remains
    sun = _sun(45.0)
    poa = transpose_hay_davies(np.array([0.0]), np.array([0.0]),
                               np.array([500.0]), sun,
                               PlaneConfig(90.0, 180.0), site)
    assert abs(float(poa[0]) - 500.0 * site.albedo * 0.5) < 1e-12


def test_transpose_south_beats_north_in_june(site):
    t = START + np.arange(0, 86400, 600)
    sun = sun_position(t, site)
    ghi = 0.7 * clearsky_ghi(sun.zenith)
    dni, dhi = decompose_ghi(ghi, sun)
    south = transpose_hay_davies(dni, dhi, ghi, sun,
                                 PlaneConfig(36.0, 180.0), site).sum()
    north = transpose_hay_davies(dni, dhi, ghi, sun,
                                 PlaneConfig(36.0, 0.0), site).sum()
    assert south > north


# --- temperature derating --------------------------------------------------

def test_temperature_frozen_point():
    """1000 W/m2 and 25 degC air: cell at 62.8 degC, output 837.46."""
    out = temperature_correct(np.array([1000.0]), np.array([25.0]),
                              TemperatureModel())
    assert abs(float(out[0]) - 837.46) < 1e-9


def test_temperature_neutral_at_reference_cell():
    model = TemperatureModel()
    poa = np.array([437.0])
    t_air = model.t_ref - model.beta * poa  # cell lands exactly on t_ref
    out = temperature_correct(poa, t_air, model)
    assert abs(float(out[0]) - 437.0) < 1e-12


def test_temperature_hotter_means_less():
    model = TemperatureModel()
    cool = temperature_correct(np.array([800.0]), np.array([0.0]), model)
    hot = temperature_correct(np.array([800.0]), np.array([35.0]), model)
    assert float(hot[0]) < float(cool[0])


def test_temperature_model_validation():
    with pytest.raises(ValueError):
        TemperatureModel(beta=-1.0)
    with pytest.raises(ValueError):
        TemperatureModel(gamma=0.001)


# --- plane bank ------------------------------------------------------------

def test_default_bank_has_21_planes():
    planes = default_bank()
    assert len(planes) == 21
    assert sum(1 for p in planes if p.tilt == 0.0) == 1
    tilts = sorted({p.tilt for p in planes if p.tilt > 0})
    assert tilts == [18.0, 36.0, 54.0, 72.0]
    azimuths = sorted({p.azimuth for p in planes if p.tilt > 0})
    assert azimuths == [90.0, 135.0, 180.0, 225.0, 270.0]


def _mini_inputs(n=48, period=1800):
    rng = np.random.default_rng(5)
    t = START + period * np.arange(n)
    site = SiteConfig(47.5, 7.5, 260.0, 0.2)
    sun = sun_position(t, site)
    ghi = make_series(0.75 * clearsky_ghi(sun.zenith), period=period,
                      unit=UNIT_W_PER_M2)
    t_air = make_series(15.0 + 8.0 * rng.random(n), period=period,
                        unit=UNIT_CELSIUS)
    return ghi, t_air, site


def test_build_bank_shape_and_grid():
    ghi, t_air, site = _mini_inputs()
    bank = build_bank(ghi, t_air, site, default_bank())
    assert bank.irradiance.shape == (21, len(ghi))
    assert bank.period == ghi.period
    assert bank.start_epoch == ghi.start_epoch
    assert np.all(bank.irradiance >= 0)


def test_bank_horizontal_row_matches_ghi_at_reference_cell():
    ghi, _, site = _mini_inputs()
    model = TemperatureModel()
    t_air = ghi.with_values(model.t_ref - model.beta * ghi.values,
                            unit=UNIT_CELSIUS)
    bank = build_bank(ghi, t_air, site, [PlaneConfig(0.0, 180.0)])
    assert np.max(np.abs(bank.irradiance[0] - ghi.values)) \
        <= 1e-9 * max(1.0, ghi.values.max())


def test_bank_zero_ghi_gives_zero_bank():
    ghi, t_air, site = _mini_inputs()
    dark = ghi.with_values(np.zeros(len(ghi)))
    bank = build_bank(dark, t_air, site, default_bank())
    assert not bank.irradiance.any()


def test_geometry_hash_tracks_planes_not_grid():
    ghi, t_air, site = _mini_inputs()
    bank = build_bank(ghi, t_air, site, default_bank())
    coarse = bank.resampled(3600)
    assert coarse.geometry_hash == bank.geometry_hash
    other = build_bank(ghi, t_air, site, [PlaneConfig(10.0, 180.0)])
    assert other.geometry_hash != bank.geometry_hash


def test_bank_resample_averages_rows():
    ghi, t_air, site = _mini_inputs()
    bank = build_bank(ghi, t_air, site, default_bank())
    coarse = bank.resampled(3600)
    assert coarse.period == 3600
    assert coarse.n_samples == bank.n_samples // 2
    want = bank.irradiance[:, :2].mean(axis=1)
    assert np.allclose(coarse.irradiance[:, 0], want)


@pytest.mark.parametrize("n", [25_920, 25_925])
@pytest.mark.parametrize("factor", [3, 6, 30, 360])
def test_bank_resample_equals_each_row_resampled(factor, n):
    """All planes are averaged in one call, bit for bit as each row on its
    own, and a partial trailing block gives one warning, not one per
    plane."""
    irr = np.random.default_rng(factor).uniform(0.0, 1000.0, (21, n))
    planes = tuple(PlaneConfig(float(j), 180.0) for j in range(21))
    bank = PlaneBank(planes, irr, START, 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coarse = bank.resampled(10 * factor)
    assert len(caught) == (n % factor != 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = np.vstack([resample_average(
            TimeSeries(START, 10, row, UNIT_W_PER_M2), 10 * factor).values
            for row in irr])
    assert np.array_equal(coarse.irradiance, want)
    assert coarse.period == 10 * factor


def test_bank_sliced_keeps_geometry():
    ghi, t_air, site = _mini_inputs()
    bank = build_bank(ghi, t_air, site, default_bank())
    sub = bank.sliced(np.arange(10))
    assert sub.n_samples == 10
    assert sub.geometry_hash == bank.geometry_hash


def test_plane_config_validation():
    with pytest.raises(ValueError):
        PlaneConfig(-5.0, 180.0)
    with pytest.raises(ValueError):
        PlaneConfig(45.0, 360.0)


def test_site_from_config_defaults():
    site, planes, model = site_from_config(
        {"latitude": 47.5, "longitude": 7.5})
    assert site.albedo == 0.2
    assert len(planes) == 21
    assert model.t_ref == 25.0


def test_site_from_config_explicit_planes():
    cfg = {"latitude": 10.0, "longitude": 20.0, "albedo": 0.3,
           "planes": [{"tilt": 30, "azimuth": 170}], "gamma": -5e-3}
    site, planes, model = site_from_config(cfg)
    assert planes == [PlaneConfig(30.0, 170.0)]
    assert model.gamma == -5e-3
    assert site.albedo == 0.3
