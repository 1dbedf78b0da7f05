"""Solar geometry and the GHI → tilted-plane irradiance chain.

Pipeline: sun position (zenith/azimuth/extraterrestrial), decomposition of
global horizontal irradiance into beam + diffuse, anisotropic transposition
onto tilted planes, and cell-temperature correction of the plane irradiance.
The transposition treats a plane as its unit normal, so the whole bank is one
(J x 3) @ (3 x K) product, which build_bank runs per block of samples.
All angles in degrees, irradiances in W/m2, temperatures in Celsius.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, config_keys, config_mappings, config_number
from .timeseries import (
    TimeSeries,
    UNIT_CELSIUS,
    UNIT_W_PER_M2,
    block_average,
    check_aligned,
)

SOLAR_CONSTANT = 1367.0  # W/m2
ZENITH_BEAM_CUTOFF = 87.0  # degrees; beam forced to zero below this sun height
_BANK_BLOCK = 2048  # samples per build_bank pass: no temporary is bank-sized

_EPOCH_1950 = -631152000
_EPOCH_2101 = 4133980800


@dataclass(frozen=True)
class SiteConfig:
    """Location and surroundings of the measurement site.

    altitude is accepted (site YAMLs carry it) but read by no computation:
    the sun position takes latitude and longitude, the transposition albedo.
    """

    latitude: float
    longitude: float
    altitude: float = 0.0
    albedo: float = 0.2

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} out of [-180, 180]")
        if not 0.0 <= self.albedo <= 1.0:
            raise ValueError(f"albedo {self.albedo} out of [0, 1]")


@dataclass(frozen=True)
class PlaneConfig:
    """One candidate panel orientation. Azimuth 180 = facing south."""

    tilt: float
    azimuth: float

    def __post_init__(self):
        if not 0.0 <= self.tilt <= 90.0:
            raise ValueError(f"tilt {self.tilt} out of [0, 90]")
        if not 0.0 <= self.azimuth < 360.0:
            raise ValueError(f"azimuth {self.azimuth} out of [0, 360)")


@dataclass(frozen=True)
class TemperatureModel:
    """Empirical cell-temperature derating: beta in degC·m2/W, gamma in 1/degC."""

    beta: float = 3.78e-2
    gamma: float = -4.3e-3
    t_ref: float = 25.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.gamma >= 0:
            raise ValueError("gamma must be < 0")


@dataclass
class SunPosition:
    """Sun geometry per sample; fields are equally-shaped arrays.

    zenith/azimuth in degrees (azimuth clockwise from north);
    extraterrestrial_normal is the eccentricity-corrected solar constant.
    """

    zenith: np.ndarray
    azimuth: np.ndarray
    extraterrestrial_normal: np.ndarray

    def __post_init__(self):
        self.zenith = np.asarray(self.zenith, dtype=float)
        self.azimuth = np.asarray(self.azimuth, dtype=float)
        self.extraterrestrial_normal = np.asarray(
            self.extraterrestrial_normal, dtype=float)
        if np.any(self.zenith < 0) or np.any(self.zenith > 180):
            raise ValueError("zenith out of [0, 180]")
        if (np.any(self.extraterrestrial_normal < 1320)
                or np.any(self.extraterrestrial_normal > 1420)):
            raise ValueError("extraterrestrial_normal out of [1320, 1420]")


def default_bank() -> list:
    """The 21 candidate orientations: horizontal + 4 tilt rings x 5 azimuths.

    Tilt rings {18, 36, 54, 72} degrees crossed with azimuths
    {90, 135, 180, 225, 270} (east through west), plus one horizontal
    plane: a regular grid over the south-facing half of the sky dome.
    """
    planes = [PlaneConfig(0.0, 180.0)]
    for tilt in (18.0, 36.0, 54.0, 72.0):
        for azimuth in (90.0, 135.0, 180.0, 225.0, 270.0):
            planes.append(PlaneConfig(tilt, azimuth))
    return planes


def _day_of_year(epoch: np.ndarray) -> np.ndarray:
    t64 = epoch.astype("int64").astype("datetime64[s]")
    day = t64.astype("datetime64[D]")
    jan1 = day.astype("datetime64[Y]").astype("datetime64[D]")
    return (day - jan1).astype(int) + 1


def sun_position(t, site: SiteConfig) -> SunPosition:
    """Sun zenith/azimuth and extraterrestrial normal irradiance at epoch t.

    t is an array of UTC seconds, valid 1950-2100.  Accuracy is well
    within 0.5 degrees of astronomical references; atmospheric refraction is
    not applied.
    """
    epoch = np.asarray(t, dtype=float)
    if np.any(epoch < _EPOCH_1950) or np.any(epoch >= _EPOCH_2101):
        raise ValueError("timestamps outside the supported 1950-2100 range")

    rad = np.deg2rad
    jd = epoch / 86400.0 + 2440587.5
    jc = (jd - 2451545.0) / 36525.0

    # geometric mean longitude / anomaly of the sun, orbit eccentricity
    gml = (280.46646 + jc * (36000.76983 + jc * 0.0003032)) % 360.0
    gma = 357.52911 + jc * (35999.05029 - 0.0001537 * jc)
    ecc = 0.016708634 - jc * (0.000042037 + 0.0000001267 * jc)
    # equation of center -> true then apparent longitude
    eqc = (np.sin(rad(gma)) * (1.914602 - jc * (0.004817 + 0.000014 * jc))
           + np.sin(rad(2 * gma)) * (0.019993 - 0.000101 * jc)
           + np.sin(rad(3 * gma)) * 0.000289)
    omega = 125.04 - 1934.136 * jc
    app_long = gml + eqc - 0.00569 - 0.00478 * np.sin(rad(omega))
    # obliquity (mean + nutation correction)
    mean_obliq = 23.0 + (26.0 + (21.448 - jc * (46.815 + jc * (
        0.00059 - jc * 0.001813))) / 60.0) / 60.0
    obliq = mean_obliq + 0.00256 * np.cos(rad(omega))

    decl = np.rad2deg(np.arcsin(np.sin(rad(obliq)) * np.sin(rad(app_long))))
    var_y = np.tan(rad(obliq / 2.0)) ** 2
    eot_min = 4.0 * np.rad2deg(
        var_y * np.sin(2 * rad(gml))
        - 2 * ecc * np.sin(rad(gma))
        + 4 * ecc * var_y * np.sin(rad(gma)) * np.cos(2 * rad(gml))
        - 0.5 * var_y ** 2 * np.sin(4 * rad(gml))
        - 1.25 * ecc ** 2 * np.sin(2 * rad(gma)))

    seconds_into_day = np.mod(epoch, 86400.0)
    true_solar_min = np.mod(
        seconds_into_day / 60.0 + eot_min + 4.0 * site.longitude, 1440.0)
    hour_angle = true_solar_min / 4.0 - 180.0

    lat = rad(site.latitude)
    cos_zen = (np.sin(lat) * np.sin(rad(decl))
               + np.cos(lat) * np.cos(rad(decl)) * np.cos(rad(hour_angle)))
    zenith = np.rad2deg(np.arccos(np.clip(cos_zen, -1.0, 1.0)))
    azimuth = np.mod(np.rad2deg(np.arctan2(
        np.sin(rad(hour_angle)),
        np.cos(rad(hour_angle)) * np.sin(lat)
        - np.tan(rad(decl)) * np.cos(lat))) + 180.0, 360.0)

    b = 2.0 * np.pi * (_day_of_year(epoch) - 1) / 365.0
    ecc_factor = (1.00011 + 0.034221 * np.cos(b) + 0.00128 * np.sin(b)
                  + 0.000719 * np.cos(2 * b) + 0.000077 * np.sin(2 * b))
    extra = SOLAR_CONSTANT * ecc_factor

    return SunPosition(zenith, azimuth, extra)


def clearsky_ghi(zenith) -> np.ndarray:
    """Haurwitz clear-sky GHI from solar zenith (degrees)."""
    cos_zen = np.cos(np.deg2rad(np.asarray(zenith, dtype=float)))
    return np.where(cos_zen > 0,
                    1098.0 * cos_zen * np.exp(-0.059 / np.maximum(cos_zen,
                                                                  1e-9)),
                    0.0)


def decompose_ghi(ghi, sun: SunPosition):
    """Split GHI into (dni, dhi) with the quasi-physical beam polynomial.

    Clearness index kt = ghi / (extraterrestrial * cos zenith); the beam
    fraction comes from the published piecewise polynomial in kt and airmass.
    Closure ghi = dni*cos(zenith) + dhi holds exactly; for zenith >= 87 deg
    the beam is forced to zero and everything is diffuse.
    """
    zenith, extra, ghi = np.broadcast_arrays(
        sun.zenith, sun.extraterrestrial_normal, ghi)
    if np.any(ghi < 0):
        raise ValueError("ghi must be nonnegative")

    cos_zen = np.cos(np.deg2rad(zenith))
    low_sun = (zenith >= ZENITH_BEAM_CUTOFF) | (ghi <= 0)
    safe_cos = np.where(low_sun, 1.0, cos_zen)

    kt = np.clip(ghi / (extra * safe_cos), 0.0, 1.0)
    airmass = 1.0 / (safe_cos + 0.15 * np.power(
        np.maximum(93.885 - zenith, 1e-6), -1.253))

    a = np.where(kt <= 0.6,
                 0.512 - 1.56 * kt + 2.286 * kt ** 2 - 2.222 * kt ** 3,
                 -5.743 + 21.77 * kt - 27.49 * kt ** 2 + 11.56 * kt ** 3)
    b = np.where(kt <= 0.6,
                 0.370 + 0.962 * kt,
                 41.40 - 118.5 * kt + 66.05 * kt ** 2 + 31.90 * kt ** 3)
    c = np.where(kt <= 0.6,
                 -0.280 + 0.932 * kt - 2.048 * kt ** 2,
                 -47.01 + 184.2 * kt - 222.0 * kt ** 2 + 73.81 * kt ** 3)
    knc = (0.866 - 0.122 * airmass + 0.0121 * airmass ** 2
           - 0.000653 * airmass ** 3 + 0.000014 * airmass ** 4)
    kn = knc - (a + b * np.exp(c * airmass))

    dni = np.clip(kn, 0.0, None) * extra
    # physical cap: beam on the horizontal can never exceed the GHI itself
    dni = np.minimum(dni, ghi / safe_cos)
    dni = np.where(low_sun, 0.0, dni)
    dhi = ghi - dni * cos_zen
    dhi = np.where(low_sun, ghi, dhi)
    return dni, dhi


def transpose_hay_davies(dni, dhi, ghi, sun: SunPosition, planes,
                         site: SiteConfig):
    """Plane-of-array irradiance: beam + anisotropic sky + ground reflection.

    The inputs are 1-D series; planes is one PlaneConfig (one series out) or
    a sequence (one row per plane).  A plane is only its normal n = (cos t,
    sin t cos a, sin t sin a) and view factors (1 ± cos t)/2: cos(incidence)
    = n · (cos z, sin z cos A, sin z sin A), one product for all planes.
    The circumsolar share dni/extraterrestrial of the diffuse goes like the
    beam, cos z floored at the beam cutoff; the rest sees the sky, the ground
    the albedo.  Temporaries are J x K: build_bank passes sample blocks.
    """
    single = isinstance(planes, PlaneConfig)
    plane_list = [planes] if single else planes
    tilt = np.radians([p.tilt for p in plane_list])
    azimuth = np.radians([p.azimuth for p in plane_list])
    normal = np.column_stack((np.cos(tilt), np.sin(tilt) * np.cos(azimuth),
                              np.sin(tilt) * np.sin(azimuth)))
    zenith, sun_az = np.radians(sun.zenith), np.radians(sun.azimuth)
    toward_sun = np.stack((np.cos(zenith), np.sin(zenith) * np.cos(sun_az),
                           np.sin(zenith) * np.sin(sun_az)))

    anisotropy = np.clip(dni / sun.extraterrestrial_normal, 0.0, 1.0)
    along_beam = dni + dhi * anisotropy / np.maximum(
        toward_sun[0], np.cos(np.radians(ZENITH_BEAM_CUTOFF)))
    poa = along_beam * np.maximum(normal @ toward_sun, 0.0)
    poa += np.outer((1.0 + normal[:, 0]) / 2.0, dhi * (1.0 - anisotropy))
    poa += np.outer(site.albedo * (1.0 - normal[:, 0]) / 2.0, ghi)
    np.maximum(poa, 0.0, out=poa)
    return poa[0] if single else poa


def temperature_correct(poa, t_air, model: TemperatureModel):
    """Derate plane irradiance for cell temperature above the reference.

    Cell temperature is t_air + beta*poa; output is
    poa * (1 + gamma*(t_cell - t_ref)), floored at zero.
    """
    if np.any(poa < 0):
        raise ValueError("poa must be nonnegative")
    t_cell = t_air + model.beta * poa
    return np.clip(poa * (1.0 + model.gamma * (t_cell - model.t_ref)),
                   0.0, None)


@dataclass
class PlaneBank:
    """Temperature-corrected plane irradiances on a shared sampling grid.

    irradiance is a J x K matrix (one row per plane, W/m2); start_epoch and
    period describe the grid so fits can check alignment against the power
    series.  geometry_hash identifies the plane set independent of the grid,
    so a capacity vector trained on one resolution stays valid after
    resampling.
    """

    planes: tuple
    irradiance: np.ndarray
    start_epoch: int
    period: int

    def __post_init__(self):
        self.planes = tuple(self.planes)
        self.irradiance = np.asarray(self.irradiance, dtype=float)
        if len(self.planes) < 1:
            raise ValueError("bank needs at least one plane")
        if self.irradiance.ndim != 2 \
                or self.irradiance.shape[0] != len(self.planes):
            raise ValueError("irradiance must be J x K with one row per plane")
        if np.any(self.irradiance < 0) or not np.all(
                np.isfinite(self.irradiance)):
            raise ValueError("irradiance entries must be finite and >= 0")

    @property
    def n_samples(self) -> int:
        return self.irradiance.shape[1]

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    @property
    def geometry_hash(self) -> str:
        key = ";".join(f"{p.tilt:.4f},{p.azimuth:.4f}" for p in self.planes)
        return hashlib.sha256(key.encode()).hexdigest()[:12]

    def resampled(self, new_period: int) -> "PlaneBank":
        """Block-average every row to a coarser grid (same geometry)."""
        return PlaneBank(self.planes,
                         block_average(self.irradiance, self.period,
                                       new_period),
                         self.start_epoch, int(new_period))

    def sliced(self, index: np.ndarray) -> "PlaneBank":
        """Column subset (e.g. the samples of selected days); keeps the
        bank's start_epoch and period, as TimeSeries.with_values does."""
        return PlaneBank(self.planes, self.irradiance[:, index],
                         self.start_epoch, self.period)


def build_bank(ghi: TimeSeries, t_air: TimeSeries, site: SiteConfig,
               planes, model: TemperatureModel | None = None) -> PlaneBank:
    """Run the chain over a GHI + air-temperature pair, per sample block."""
    if ghi.unit != UNIT_W_PER_M2:
        raise ValueError("ghi series must be in W_per_m2")
    if t_air.unit != UNIT_CELSIUS:
        raise ValueError("t_air series must be in celsius")
    check_aligned(ghi, t_air)
    if model is None:
        model = TemperatureModel()
    stamps = ghi.timestamps()
    rows = np.empty((len(planes), len(ghi)))
    for lo in range(0, len(ghi), _BANK_BLOCK):
        block = slice(lo, lo + _BANK_BLOCK)
        ghi_block = ghi.values[block]
        sun = sun_position(stamps[block], site)
        dni, dhi = decompose_ghi(ghi_block, sun)
        poa = transpose_hay_davies(dni, dhi, ghi_block, sun, planes, site)
        rows[:, block] = temperature_correct(poa, t_air.values[block], model)
    return PlaneBank(tuple(planes), rows, ghi.start_epoch, ghi.period)


def site_from_config(cfg: dict):
    """Parse the flat site-config mapping used by the CLI.

    Keys: latitude, longitude, altitude, albedo, planes (list of
    {tilt, azimuth}; omitted = the default 21-plane set), beta, gamma, t_ref.
    Returns (SiteConfig, planes, TemperatureModel); any other key raises.
    """
    def number(key, entry=cfg):
        return config_number(entry.get(key), key)

    def given(*keys):  # the keys the YAML sets; the rest keep their defaults
        return {key: number(key) for key in keys if key in cfg}

    config_keys(cfg, ("latitude", "longitude", "altitude", "albedo",
                      "planes", "beta", "gamma", "t_ref"), "site")

    site = SiteConfig(latitude=number("latitude"),
                      longitude=number("longitude"),
                      **given("altitude", "albedo"))
    if "planes" in cfg and cfg["planes"] is not None:
        entries = config_mappings(cfg["planes"], "planes")
        if not entries:  # refused here, before any series is read
            raise InputError("planes: expected at least one plane")
        for p in entries:
            config_keys(p, ("tilt", "azimuth"), "planes")
        planes = [PlaneConfig(number("tilt", entry=p),
                              number("azimuth", entry=p)) for p in entries]
    else:
        planes = default_bank()
    model = TemperatureModel(**given("beta", "gamma", "t_ref"))
    return site, planes, model
