import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdisagg import timeseries
from pvdisagg.errors import (FoldError, FormatError, GridError,
                             ResampleError, TooSparseError)
from pvdisagg.timeseries import (SECONDS_PER_DAY, UNIT_KW, UNIT_W_PER_M2,
                                 TimeSeries, check_aligned, ingest_csv,
                                 make_folds, mask_night, resample_average,
                                 write_csv, write_table)

from conftest import START, make_series


def _write(tmp_path, rows, name="in.csv"):
    path = tmp_path / name
    path.write_text("timestamp,value\n" + "\n".join(rows) + "\n")
    return path


def _epoch_rows(epochs, values):
    out = []
    for t, v in zip(epochs, values):
        iso = datetime.fromtimestamp(t, tz=timezone.utc).isoformat()
        out.append(f"{iso},{v}")
    return out


# --- construction ----------------------------------------------------------

def test_period_must_divide_a_day():
    with pytest.raises(GridError):
        make_series([1.0, 2.0], period=7)


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        make_series([1.0, np.nan])


def test_unknown_unit_rejected():
    with pytest.raises(ValueError):
        TimeSeries(START, 10, np.ones(3), "furlongs")


def test_timestamps_grid():
    s = make_series([1, 2, 3], period=10)
    assert list(s.timestamps()) == [START, START + 10, START + 20]


# --- ingestion -------------------------------------------------------------

def test_ingest_three_rows(tmp_path):
    path = _write(tmp_path, _epoch_rows([START, START + 10, START + 20],
                                        [1, 2, 3]))
    s = ingest_csv(path, UNIT_KW)
    assert s.period == 10
    assert s.start_epoch == START
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])
    assert s.repaired == 0


def test_ingest_interpolates_one_missing_row(tmp_path):
    """A skipped grid point is filled with the linear midpoint."""
    epochs = [START, START + 10, START + 30]
    path = _write(tmp_path, _epoch_rows(epochs, [1, 2, 4]))
    s = ingest_csv(path, UNIT_KW, max_missing_fraction=0.5)
    assert np.allclose(s.values, [1.0, 2.0, 3.0, 4.0])
    assert s.repaired == 1


def test_ingest_nonuniform_grid(tmp_path):
    epochs = [START, START + 10, START + 20, START + 31]
    path = _write(tmp_path, _epoch_rows(epochs, [1, 1, 1, 1]))
    with pytest.raises(GridError):
        ingest_csv(path, UNIT_KW)


def test_ingest_too_sparse(tmp_path):
    # 2 of 21 grid points missing is ~10% > the 5% default budget
    epochs = [START + 10 * k for k in range(21) if k not in (5, 6)]
    vals = [1.0] * len(epochs)
    path = _write(tmp_path, _epoch_rows(epochs, vals))
    with pytest.raises(TooSparseError):
        ingest_csv(path, UNIT_KW)


def test_ingest_bad_value_reports_line(tmp_path):
    rows = _epoch_rows([START, START + 10], [1, 2])
    rows.append("not-a-timestamp,9")
    path = _write(tmp_path, rows)
    with pytest.raises(FormatError) as err:
        ingest_csv(path, UNIT_KW)
    assert "line 4" in str(err.value)  # header is line 1


def test_round_trip(tmp_path):
    s = make_series(np.linspace(-2.5, 7.0, 12), period=30)
    path = tmp_path / "rt.csv"
    write_csv(s, path, comments=["written by a test"])
    back = ingest_csv(path, UNIT_KW)
    assert back.period == s.period
    assert back.start_epoch == s.start_epoch
    assert np.array_equal(back.values, s.values)


def test_csv_format(tmp_path):
    s = make_series([1.5, 2.5], period=10)
    path = tmp_path / "fmt.csv"
    write_csv(s, path)
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF only
    lines = raw.decode().splitlines()
    assert lines[0] == "timestamp,value"
    assert lines[1].startswith("2023-06-01T00:00:00Z,")


# --- bulk reading of write_table's layout ---------------------------------

def _epoch(*date):
    return int(datetime(*date, tzinfo=timezone.utc).timestamp())


# starts near month, year and leap-day boundaries (1900 and 2100 are not
# leap years, 1600 and 2000 are), and before 1970
_BOUNDARIES = [_epoch(*d) for d in (
    (1, 1, 1), (1600, 2, 29), (1900, 3, 1), (1969, 12, 31), (1970, 1, 1),
    (2000, 2, 29), (2023, 3, 1), (2023, 12, 31), (2024, 2, 29),
    (2024, 3, 1), (2100, 2, 28), (2100, 3, 1), (9999, 12, 30))]
_DAY_DIVISORS = [d for d in range(1, SECONDS_PER_DAY + 1)
                 if SECONDS_PER_DAY % d == 0]
_ODD_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e300,
               math.inf, -math.inf, math.nan]
_VALUES = st.one_of(st.floats(), st.sampled_from(_ODD_VALUES))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(boundary=st.sampled_from(_BOUNDARIES),
       offset=st.integers(-2 * SECONDS_PER_DAY, SECONDS_PER_DAY),
       period=st.sampled_from(_DAY_DIVISORS), n_rows=st.integers(1, 30),
       n_cols=st.integers(1, 3), data=st.data())
def test_bulk_reader_matches_the_row_parser(tmp_path_factory, boundary,
                                            offset, period, n_rows, n_cols,
                                            data):
    """Every file write_table writes is read in bulk, and bit for bit as
    the row-by-row parser reads it: epoch seconds and second column."""
    start = max(boundary + offset, _BOUNDARIES[0])
    stamps = start + period * np.arange(n_rows)
    stamps = stamps[stamps <= _BOUNDARIES[-1] + 2 * SECONDS_PER_DAY - 1]
    columns = np.array(data.draw(st.lists(
        _VALUES, min_size=n_cols * len(stamps),
        max_size=n_cols * len(stamps)))).reshape(n_cols, len(stamps))
    path = tmp_path_factory.mktemp("bulk") / "t.csv"
    write_table(path, stamps, columns,
                "timestamp," + ",".join(f"c{i}" for i in range(n_cols)),
                comments=["provenance", "second comment"])
    bulk = timeseries._read_table(path)
    assert bulk is not None
    rows = timeseries._read_rows(path)
    assert bulk[0].dtype == rows[0].dtype == np.int64
    assert np.array_equal(bulk[0], rows[0])
    assert np.array_equal(bulk[0], stamps)
    assert bulk[1].tobytes() == rows[1].tobytes()
    # repr drops a NaN's sign and payload; every other value is exact
    written = np.where(np.isnan(columns[0]), np.nan, columns[0])
    assert bulk[1].tobytes() == written.tobytes()


_NEAR_START = _epoch(2023, 2, 28, 23, 57)  # six rows at 60 s over Mar 1


def _near_miss_lines():
    s = make_series([1.5, -2.0, 3.25, 0.0, 4.5, 6.0], period=60,
                    start=_NEAR_START)
    return s, ["# provenance", "timestamp,value"] + [
        f"{datetime.fromtimestamp(t, timezone.utc):%Y-%m-%dT%H:%M:%S}Z,{v!r}"
        for t, v in zip(s.timestamps().tolist(), s.values.tolist())]


def _text(lines, ending="\n"):
    return ending.join(lines) + ending


def _replace(row, old, new):
    def edit(lines):
        assert old in lines[row]
        return _text(lines[:row] + [lines[row].replace(old, new)]
                     + lines[row + 1:])
    return edit


def _insert(row, line):
    return lambda lines: _text(lines[:row] + [line] + lines[row:])


def _delete(row):
    return lambda lines: _text(lines[:row] + lines[row + 1:])


# edits of the six-row file; its lines 3-8 hold 23:57 to 00:02
_NEAR_MISSES = {
    "as_written": _text,
    "crlf": lambda lines: _text(lines, "\r\n"),
    "blank_value": _replace(4, ",3.25", ","),
    "na_value": _replace(4, ",3.25", ",na"),
    "text_value": _replace(4, ",3.25", ",three"),
    "mid_file_comment": _insert(4, "# a note"),
    "blank_line": _insert(4, ""),
    "second_header": _insert(4, "timestamp,value"),
    "offset": _replace(4, "Z,", "+00:00,"),
    "lower_z": _replace(4, "Z,", "z,"),
    "space_separator": _replace(4, "T", " "),
    "quoted_stamp": _replace(4, "2023-02-28T23:59:00Z",
                             '"2023-02-28T23:59:00Z"'),
    "feb_29_2023": _replace(5, "2023-03-01", "2023-02-29"),
    "hour_24": _replace(5, "2023-03-01T00:00:00", "2023-02-28T24:00:00"),
    "minute_60": _replace(5, "2023-03-01T00:00:00", "2023-02-28T23:60:00"),
    "second_60": _replace(5, "2023-03-01T00:00:00", "2023-02-28T23:59:60"),
    "skipped_row": _delete(4),
    "duplicate_stamp": _insert(4, "2023-02-28T23:59:00Z,3.25"),
    "no_header": _delete(1),
    "third_column": _replace(4, ",3.25", ",3.25,99.0"),
    "year_0": _replace(2, "2023-02-28T23:57", "0000-02-28T23:57"),
}


def _outcome(path):
    try:
        s = ingest_csv(path, UNIT_KW, max_missing_fraction=0.5)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return s.start_epoch, s.period, s.values.tobytes(), s.repaired


@pytest.mark.parametrize("case", list(_NEAR_MISSES))
def test_near_misses_read_as_the_row_parser_reads_them(tmp_path,
                                                       monkeypatch, case):
    """A file that departs from write_table's layout gives the same series,
    or the same error, message and line number, as the row parser."""
    series, lines = _near_miss_lines()
    path = tmp_path / "near.csv"
    path.write_bytes(_NEAR_MISSES[case](lines).encode())
    got = _outcome(path)
    monkeypatch.setattr(timeseries, "_read_table", lambda path: None)
    assert got == _outcome(path)
    if case in ("as_written", "crlf", "offset", "quoted_stamp"):
        assert got == (series.start_epoch, 60, series.values.tobytes(), 0)


def test_tool_output_is_read_in_bulk(tmp_path):
    s = make_series([1.0, 2.0, 3.0], period=10)
    write_csv(s, tmp_path / "s.csv", comments=["provenance"])
    times, values = timeseries._read_table(tmp_path / "s.csv")
    assert np.array_equal(times, s.timestamps())
    assert np.array_equal(values, s.values)


# --- resampling ------------------------------------------------------------

def test_resample_window_means():
    s = make_series([1, 2, 3, 6, 6, 6], period=10)
    r = resample_average(s, 30)
    assert r.period == 30
    assert np.array_equal(r.values, [2.0, 6.0])


def test_resample_identity():
    s = make_series([1, 2, 3], period=10)
    assert resample_average(s, 10) is s


def test_resample_to_quarter_hour_preserves_mean():
    rng = np.random.default_rng(3)
    s = make_series(rng.random(8640), period=10)
    r = resample_average(s, 900)
    assert len(r) == 96
    assert abs(r.values.mean() - s.values.mean()) < 1e-12


def test_resample_rejects_non_multiple():
    s = make_series(np.ones(10), period=10)
    with pytest.raises(ResampleError):
        resample_average(s, 25)


def test_resample_drops_partial_block_with_warning():
    s = make_series([1, 2, 3, 4, 5, 6, 7], period=10)
    with pytest.warns(UserWarning):
        r = resample_average(s, 30)
    assert np.array_equal(r.values, [2.0, 5.0])


def test_resample_energy_conservation():
    rng = np.random.default_rng(4)
    s = make_series(rng.normal(size=1200), period=10)
    r = resample_average(s, 60)
    lhs = r.values.sum() * 6
    rhs = s.values[: len(r) * 6].sum()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# --- folds -----------------------------------------------------------------

def test_folds_three_days():
    plan = make_folds(3, seed=0)
    assert sorted(len(f) for f in plan.folds) == [1, 1, 1]


def test_folds_thirty_days():
    plan = make_folds(30, seed=1)
    assert sorted(len(f) for f in plan.folds) == [10, 10, 10]


def test_folds_deterministic():
    assert make_folds(12, seed=5).folds == make_folds(12, seed=5).folds


def test_folds_partition_all_days():
    plan = make_folds(11, seed=2)
    seen = sorted(d for f in plan.folds for d in f)
    assert seen == list(range(11))
    sizes = sorted(len(f) for f in plan.folds)
    assert sizes[-1] - sizes[0] <= 1


def test_folds_need_three_days():
    with pytest.raises(FoldError):
        make_folds(2, seed=0)


def test_train_test_split_is_disjoint():
    plan = make_folds(9, seed=3)
    for k in range(3):
        train, test = plan.train_test(k)
        assert not set(train) & set(test)
        assert sorted(set(train) | set(test)) == list(range(9))


# --- masks and helpers -----------------------------------------------------

def test_mask_night_threshold():
    ghi = make_series([0.0, 5.0, 50.0], period=10, unit=UNIT_W_PER_M2)
    assert list(mask_night(ghi, threshold=20.0)) == [False, False, True]


def test_mask_night_all_dark():
    ghi = make_series(np.zeros(6), period=10, unit=UNIT_W_PER_M2)
    assert not mask_night(ghi).any()


def test_mask_night_rejects_wrong_unit():
    p = make_series([1.0, 2.0], period=10, unit=UNIT_KW)
    with pytest.raises(ValueError):
        mask_night(p)


def test_mask_night_duty_cycle_matches_sun_geometry():
    """Mask duty cycle on a cloud-free day equals the one predicted by
    running the sun-position and clear-sky chain directly."""
    from pvdisagg.evaluation import ScenarioSpec, generate_scenario
    from pvdisagg.solar import SiteConfig, clearsky_ghi, sun_position
    spec = ScenarioSpec(days=1, period_s=60, noise_kw=0.0,
                        inrush_per_day=0.0, self_consumption=False,
                        seed=7, cloud_kinds=("clear",))
    ghi = generate_scenario(spec).ghi
    mask = mask_night(ghi, threshold=5.0)
    sun = sun_position(ghi.timestamps(), SiteConfig(47.5, 7.5, 260.0, 0.2))
    predicted = clearsky_ghi(sun.zenith) > 5.0
    # at most one sample of slack per sunrise/sunset crossing
    assert abs(int(mask.sum()) - int(predicted.sum())) <= 2


def test_check_aligned_raises_on_grid_mismatch():
    from pvdisagg.errors import AlignmentError
    a = make_series([1, 2, 3], period=10)
    b = make_series([1, 2, 3], period=30)
    with pytest.raises(AlignmentError):
        check_aligned(a, b)
