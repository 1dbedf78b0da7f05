"""Uniform-grid time series: ingest, repair, resampling, day folds.

Everything downstream assumes a strictly uniform sampling grid whose period
divides one day, so the ingest path is strict: timestamps must sit on a
single grid, small gaps are repaired by linear interpolation and counted,
large gaps are refused.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import FormatError, InputError

UNIT_KW = "kW"
UNIT_W_PER_M2 = "W_per_m2"
UNIT_CELSIUS = "celsius"

_KNOWN_UNITS = (UNIT_KW, UNIT_W_PER_M2, UNIT_CELSIUS)

SECONDS_PER_DAY = 86400
_ROWS_PER_BLOCK = 4096  # rows whose time stamps write_table formats at once
_MAX_MISSING_FRACTION = 0.05  # largest share of the grid ingest repairs
_N_FOLDS = 3  # day folds of make_folds
_NIGHT_W_PER_M2 = 5.0  # GHI at or below which mask_night calls it night


@dataclass(eq=False)
class TimeSeries:
    """Evenly sampled scalar series in UTC.

    start_epoch: UNIX seconds of the first sample.
    period:      sampling period in whole seconds; must divide one day.
    values:      float array, one entry per grid point, no NaN/inf.
    unit:        one of UNIT_KW / UNIT_W_PER_M2 / UNIT_CELSIUS.
    repaired:    number of samples filled by interpolation at ingest.
    """

    start_epoch: int
    period: int
    values: np.ndarray
    unit: str
    repaired: int = 0

    def __post_init__(self):
        self.period = int(self.period)
        self.start_epoch = int(self.start_epoch)
        if self.period <= 0:
            raise InputError(f"period must be positive, got {self.period}")
        if SECONDS_PER_DAY % self.period != 0:
            raise InputError(
                f"period {self.period} s does not divide one day")
        if self.unit not in _KNOWN_UNITS:
            raise ValueError(f"unknown unit {self.unit!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self):
        return self.values.size

    def timestamps(self) -> np.ndarray:
        """Epoch seconds of every sample."""
        return self.start_epoch + self.period * np.arange(self.values.size)

    def with_values(self, values, unit: str | None = None) -> "TimeSeries":
        """Same grid, new values (and optionally a new unit)."""
        return TimeSeries(self.start_epoch, self.period,
                          np.asarray(values, dtype=float),
                          self.unit if unit is None else unit)

    @property
    def samples_per_day(self) -> int:
        return SECONDS_PER_DAY // self.period

    @property
    def n_days(self) -> int:
        """Number of whole days covered; raises if not day-aligned."""
        spd = self.samples_per_day
        if self.values.size % spd != 0:
            raise InputError("series does not cover a whole number of days")
        return self.values.size // spd


def check_aligned(*series: TimeSeries):
    """Raise InputError unless all series share start, period and length."""
    first = series[0]
    for other in series[1:]:
        if (other.start_epoch != first.start_epoch
                or other.period != first.period
                or len(other) != len(first)):
            raise InputError(
                "series grids differ: "
                f"({first.start_epoch},{first.period},{len(first)}) vs "
                f"({other.start_epoch},{other.period},{len(other)})")


def _parse_epoch(text: str, line_no: int) -> int:
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise FormatError(f"bad timestamp {text!r}: {exc}", line_no) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    epoch = stamp.timestamp()
    if abs(epoch - round(epoch)) > 1e-6:
        raise FormatError("sub-second timestamps are not supported", line_no)
    return int(round(epoch))


def _read_rows(path):
    """(epoch seconds, values) of every data row, parsed row by row.

    Accepts any CSV that ingest_csv documents and raises FormatError with
    the line number of the first row it cannot read.
    """
    times: list[int] = []
    vals: list[float] = []
    saw_data = False
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if len(row) < 2:
                raise FormatError("expected two columns", line_no)
            ts_text, val_text = row[0], row[1]
            if not saw_data:
                # allow one header row like "timestamp,value"
                try:
                    _parse_epoch(ts_text, line_no)
                except FormatError:
                    if any(ch.isalpha() for ch in ts_text):
                        saw_data = True  # header consumed; data starts next
                        continue
                    raise
            saw_data = True
            times.append(_parse_epoch(ts_text, line_no))
            val_text = val_text.strip()
            if val_text == "" or val_text.lower() in ("nan", "na"):
                vals.append(math.nan)
            else:
                try:
                    vals.append(float(val_text))
                except ValueError:
                    raise FormatError(
                        f"bad value {val_text!r}", line_no) from None
    return np.asarray(times, dtype=np.int64), np.asarray(vals, dtype=float)


# write_table's time-stamp field: the digit positions hold '0' here
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z,", dtype=np.uint8)
_STAMP_DIGITS = _STAMP == ord("0")
_YEAR_ONE = np.datetime64("0001-01-01", "s")  # datetime's first day


def _read_table(path):
    """(epoch seconds, values) of a file in write_table's layout, or None.

    The layout is: '#' comment lines, a header line starting with
    "timestamp,", then rows of "YYYY-MM-DDTHH:MM:SSZ," and one or more
    value fields, in ASCII with LF line endings and no quotes.  The time
    stamps are read as one byte array, checked for their separators and
    digits, then parsed by numpy in one call, which refuses impossible
    dates and times; the second column goes through one float() pass.
    Any departure from the layout returns None, so that _read_rows reads
    the file and its results and errors are those of the general parser.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii() or any(ch in data for ch in (b'"', b"\r", b"\0")):
        return None
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    head = 0
    while head < len(lines) and lines[head].startswith(b"#"):
        head += 1
    if head == len(lines) or not lines[head].startswith(b"timestamp,"):
        return None
    rows = lines[head + 1:]
    raw = np.frombuffer(b"".join([row[:_STAMP.size] for row in rows]),
                        dtype=np.uint8)
    if raw.size != _STAMP.size * len(rows):
        return None
    raw = raw.reshape(len(rows), _STAMP.size)
    # uint8 arithmetic: any byte but '0'-'9' lands above 9
    if (np.any(raw[:, ~_STAMP_DIGITS] != _STAMP[~_STAMP_DIGITS])
            or np.any(raw[:, _STAMP_DIGITS] - np.uint8(ord("0")) > 9)):
        return None
    try:
        # the 19 bytes before "Z," of every row as one string each
        stamps = (np.ascontiguousarray(raw[:, :19]).view("S19").ravel()
                  .astype("datetime64[s]"))
    except ValueError:  # Feb 30, hour 24, minute or second 60, ...
        return None
    if np.any(stamps < _YEAR_ONE):  # numpy reads year 0, datetime does not
        return None
    try:
        vals = np.array([float(row.split(b",", 2)[1]) for row in rows])
    except ValueError:
        return None
    return stamps.astype(np.int64), vals


def ingest_csv(path, unit: str) -> TimeSeries:
    """Read a (timestamp, value, ...) CSV into a repaired TimeSeries.

    Lines starting with '#' are provenance comments and skipped; a single
    non-numeric header row is tolerated.  Timestamps are ISO-8601 (UTC
    assumed when no offset is given) and must lie on one uniform grid —
    skipped grid points and blank values count as gaps.  The second column
    is the value and any further columns are ignored.  Gaps up to
    _MAX_MISSING_FRACTION (5%) of the grid are filled by linear
    interpolation and counted in ``repaired``; more than that raises
    InputError.  Files in write_table's own layout are read in bulk,
    any other by the row-by-row parser, with the same results.
    """
    parsed = _read_table(path)
    t, vals = parsed if parsed is not None else _read_rows(path)
    if len(t) < 2:
        raise InputError("need at least two samples to establish a grid")
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise InputError("timestamps must be strictly increasing")
    # the smallest gap is the grid period; every other gap must be a whole
    # number of periods (a missing row), otherwise the grid is non-uniform
    period = int(diffs.min())
    if np.any(diffs % period != 0):
        raise InputError(
            f"timestamps are not on a uniform {period} s grid")
    if SECONDS_PER_DAY % period != 0:
        raise InputError(
            f"inferred period {period} s does not divide one day")

    n = (int(t[-1]) - int(t[0])) // period + 1
    full = np.full(n, math.nan)
    idx = (t - t[0]) // period
    full[idx] = vals
    present = np.isfinite(full)
    missing = int(n - present.sum())
    if missing:
        frac = missing / n
        if frac > _MAX_MISSING_FRACTION:
            raise InputError(
                f"{missing}/{n} samples missing "
                f"({100 * frac:.1f}% > {100 * _MAX_MISSING_FRACTION:.0f}%)")
        if present.sum() < 2:
            raise InputError("fewer than two observed samples")
        grid = np.arange(n)
        full[~present] = np.interp(grid[~present], grid[present],
                                   full[present])
    return TimeSeries(int(t[0]), period, full, unit, repaired=missing)


def write_table(path, timestamps, columns, header: str, comments=()):
    """Write one row per timestamp: its ISO time, then one value per column.

    '#' comment lines and the header line come first; LF line endings and
    repr() digits, so every value reads back bit for bit.
    """
    with open(path, "w", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        # one row of Python floats at a time, and time stamps formatted a
        # block at a time: whole columns as Python objects would cost ~30
        # bytes per value
        stamps = np.asarray(timestamps).astype("datetime64[s]")
        rows = np.asarray(columns, dtype=float).T
        for a in range(0, len(rows), _ROWS_PER_BLOCK):
            block = slice(a, a + _ROWS_PER_BLOCK)
            for stamp, row in zip(np.datetime_as_string(
                    stamps[block], unit="s").tolist(), rows[block]):
                fh.write(f"{stamp}Z,{','.join(map(repr, row.tolist()))}\n")


def write_csv(series: TimeSeries, path, comments=()):
    """Write 'timestamp,value' rows, preceded by '#' comment lines."""
    write_table(path, series.timestamps(), [series.values],
                "timestamp,value", comments)


def block_average(values: np.ndarray, period: int,
                  new_period: int) -> np.ndarray:
    """Means of consecutive blocks of new_period // period samples along
    the last axis, so every row of a 2-D array is averaged in one call.

    new_period must be an integer multiple of period; trailing samples
    that fill no block are dropped with one warning.
    """
    new_period = int(new_period)
    if new_period <= 0 or new_period % period != 0:
        raise InputError(
            f"target period {new_period} s is not a multiple of "
            f"{period} s")
    factor = new_period // period
    n = values.shape[-1]
    n_blocks = n // factor
    if n_blocks == 0:
        raise InputError("series shorter than one target block")
    kept = n_blocks * factor
    if kept != n:
        warnings.warn(f"resample drops {n - kept} trailing samples",
                      stacklevel=3)
    return values[..., :kept].reshape(
        values.shape[:-1] + (n_blocks, factor)).mean(axis=-1)


def resample_average(series: TimeSeries, new_period: int) -> TimeSeries:
    """Block-average down to a coarser period (see block_average)."""
    if int(new_period) == series.period:
        return series
    return TimeSeries(series.start_epoch, int(new_period),
                      block_average(series.values, series.period,
                                    new_period), series.unit)


def mask_night(ghi: TimeSeries) -> np.ndarray:
    """Boolean mask of daylight samples (GHI above _NIGHT_W_PER_M2)."""
    if ghi.unit != UNIT_W_PER_M2:
        raise ValueError(f"mask_night expects a {UNIT_W_PER_M2} series")
    return ghi.values > _NIGHT_W_PER_M2


@dataclass(frozen=True)
class DailyFoldPlan:
    """A seeded partition of whole days into cross-validation folds."""

    folds: tuple  # tuple of tuples of day indices

    def train_test(self, fold: int):
        """Day indices for (train, test) where `fold` is the training fold."""
        train = self.folds[fold]
        test = tuple(d for i, f in enumerate(self.folds) if i != fold
                     for d in f)
        return train, test


def make_folds(n_days: int, seed: int) -> DailyFoldPlan:
    """Shuffle day indices with a seeded RNG and split into _N_FOLDS folds.

    Fold sizes differ by at most one.  Deterministic for a given seed.
    """
    if n_days < _N_FOLDS:
        raise InputError(f"need at least {_N_FOLDS} days, got {n_days}")
    perm = np.random.default_rng(seed).permutation(n_days)
    return DailyFoldPlan(tuple(tuple(int(d) for d in fold)
                               for fold in np.array_split(perm, _N_FOLDS)))

