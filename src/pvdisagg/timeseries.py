"""Uniform-grid time series: ingest, repair, resampling, day folds.

Everything downstream assumes a strictly uniform sampling grid whose period
divides one day, so the ingest path is strict: timestamps must sit on a
single grid, small gaps are repaired by linear interpolation and counted,
large gaps are refused.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import tempfile
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
# rows each of write_table's processes formats and writes at once; its
# row ranges need not start on a block, since blocks leave no trace
_ROWS_PER_BLOCK = 4096
# data values (rows x columns) that earn write_table one more process:
# about 30 ms of repr, against 1-2 ms to fork and under 1 ms to append
_VALUES_PER_PROCESS = 2 ** 16
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


# write_table's time stamp in a 21-byte field: '0' at each digit, NUL pad
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z\0", dtype=np.uint8)
_STAMP_DIGITS = _STAMP == ord("0")
_YEAR_ONE = np.datetime64("0001-01-01", "s")  # datetime's first day


def _read_table(path):
    """(epoch seconds, values) of a file in write_table's layout, or None.

    The layout is: '#' comment lines, a header line starting with
    "timestamp,", then rows of "YYYY-MM-DDTHH:MM:SSZ," and one or more
    value fields, in ASCII with LF line endings and no quotes.  numpy's C
    reader reads each row's stamp as 21 bytes (a longer field is cut and
    fails the NUL its last byte must be) and its value as a float; the
    stamps are checked for separators and digits, then parsed in one call,
    which refuses impossible dates and times.  Any departure from the
    layout returns None, so that _read_rows reads the file and its results
    and errors are those of the general parser.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii() or any(ch in data for ch in (b'"', b"\r", b"\0")):
        return None
    head = pos = 0
    while data.startswith(b"#", pos):
        pos = (data.find(b"\n", pos) + 1) or len(data)
        head += 1
    # rows after the header; loadtxt would skip a blank one, and warn on none
    n_rows = data.count(b"\n", pos) - data.endswith(b"\n")
    if (not data.startswith(b"timestamp,", pos) or n_rows == 0
            or data.find(b"\n\n", pos) != -1):
        return None
    try:
        table = np.loadtxt(path, delimiter=",", usecols=(0, 1),
                           skiprows=head + 1, comments=None,
                           dtype=[("t", "S21"), ("v", "f8")], ndmin=1)
    except ValueError:  # a missing field or a value float() may yet read
        return None
    raw = np.frombuffer(table["t"].tobytes(), np.uint8).reshape(-1, 21)
    # uint8 arithmetic: any byte but '0'-'9' lands above 9
    if (table.size != n_rows
            or np.any(raw[:, ~_STAMP_DIGITS] != _STAMP[~_STAMP_DIGITS])
            or np.any(raw[:, _STAMP_DIGITS] - np.uint8(ord("0")) > 9)):
        return None
    try:
        # the 19 bytes before "Z" of every row as one string each
        stamps = (np.ascontiguousarray(raw[:, :19]).view("S19").ravel()
                  .astype("datetime64[s]"))
    except ValueError:  # Feb 30, hour 24, minute or second 60, ...
        return None
    if np.any(stamps < _YEAR_ONE):  # numpy reads year 0, datetime does not
        return None
    return stamps.astype(np.int64), np.ascontiguousarray(table["v"])


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


def _write_processes(n_values: int) -> int:
    """Processes write_table formats n_values data values in: one per
    full _VALUES_PER_PROCESS, at most one per usable CPU, and one where
    the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_values // _VALUES_PER_PROCESS))


def _row_text(stamps, columns, rows: range):
    """The text of the given rows, one block of _ROWS_PER_BLOCK rows at a
    time: one tolist() and repr pass per column, zipped into rows."""
    for a in range(rows.start, rows.stop, _ROWS_PER_BLOCK):
        block = slice(a, min(a + _ROWS_PER_BLOCK, rows.stop))
        fields = [np.datetime_as_string(stamps[block], unit="s",
                                        timezone="UTC").tolist()]
        fields += [map(repr, col) for col in columns[:, block].tolist()]
        yield "\n".join(map(",".join, zip(*fields))) + "\n"


def _fork_writer(part, stamps, columns, rows: range) -> int:
    """Fork a worker that writes the text of rows into the file part and
    leaves through os._exit, with status 0 once it has flushed and 1 on
    any exception, which it names on stderr; return its pid."""
    pid = os.fork()
    if pid == 0:
        try:
            part.writelines(text.encode()
                            for text in _row_text(stamps, columns, rows))
            part.flush()
            os._exit(0)
        except BaseException as exc:
            os.write(2, f"write_table worker, rows {rows.start}-"
                        f"{rows.stop - 1}: {exc!r}\n".encode())
        finally:
            os._exit(1)
    return pid


def write_table(path, timestamps, columns, header: str, comments=()):
    """Write one row per timestamp: its ISO time, then one value per column.

    '#' comment lines and the header line come first; LF line endings and
    repr() digits, so every value reads back bit for bit.  columns holds
    one row of values per column, each as long as timestamps; any other
    shape raises ValueError before the file is opened.

    The rows are formatted in _write_processes(rows x columns) processes,
    each taking one contiguous range, and the bytes do not depend on how
    many.  This process writes the comments, the header and the first
    range; each further range goes to a forked worker, which formats it
    into an unnamed temporary file in path's directory and leaves through
    os._exit, so it never flushes this process's buffers, runs no exit
    handler, calls no BLAS and takes no lock another thread may hold.
    The files are appended in range order.  A worker that fails raises
    OSError naming path, and no worker or temporary file outlives the
    call.  Python 3.12 and later
    warn when a process with more than one thread forks, as one does once
    a BLAS library has started its own threads; the workers never call
    into BLAS, so the state of those threads is never used.
    """
    stamps = np.asarray(timestamps).astype("datetime64[s]")
    columns = np.asarray(columns, dtype=float)
    if (stamps.ndim != 1 or columns.ndim != 2
            or columns.shape[1] != stamps.size):
        raise ValueError(
            f"write_table needs one value per timestamp in each column: "
            f"{stamps.shape} timestamps, columns of shape {columns.shape}")
    n_proc = _write_processes(columns.size)
    bounds = [stamps.size * i // n_proc for i in range(n_proc + 1)]
    ranges = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    parts, running = [], []  # workers' temporary files; workers not reaped
    try:
        with open(path, "w", newline="\n") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            fh.write(header + "\n")
            for rows in ranges[1:]:
                parts.append(tempfile.TemporaryFile(
                    dir=os.path.dirname(os.path.abspath(path))))
                running.append(_fork_writer(parts[-1], stamps, columns,
                                            rows))
            fh.writelines(_row_text(stamps, columns, ranges[0]))
            fh.flush()
            for part, rows in zip(parts, ranges[1:]):
                status = os.waitpid(running[0], 0)[1]
                running.pop(0)
                code = os.waitstatus_to_exitcode(status)
                if code != 0:
                    raise OSError(f"writing {path}: the worker formatting "
                                  f"rows {rows.start}-{rows.stop - 1} "
                                  f"exited with {code}")
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
    finally:
        for pid in running:
            os.kill(pid, 9)  # SIGKILL; the signal module stays unloaded
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


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

