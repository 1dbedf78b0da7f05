import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from pvdisagg.dsp import apply_array, design_bandpass, frequency_response
from pvdisagg.errors import InputError

BAND = (1.0 / 7200.0, 1.0 / 600.0)  # the default training band, Hz
RATE = 0.1  # 10 s sampling


def test_design_is_three_sections():
    filt = design_bandpass(*BAND, RATE)
    assert filt.sos.shape == (3, 6)


@pytest.mark.parametrize("f_low,f_high,rate", [
    (0.0, 0.01, 0.1),       # zero low cutoff
    (0.02, 0.01, 0.1),      # inverted band
    (0.001, 0.06, 0.1),     # high cutoff at/above Nyquist
    (-0.001, 0.01, 0.1),    # negative
])
def test_design_rejects_bad_bands(f_low, f_high, rate):
    with pytest.raises(InputError, match="need 0 < f_low < f_high < rate/2"):
        design_bandpass(f_low, f_high, rate)


def test_design_rejects_a_band_too_narrow_to_discretize():
    # a decade at 1e-10 of the sample rate rounds the poles onto the circle
    with pytest.raises(InputError, match="not strictly inside the unit"):
        design_bandpass(1e-10, 1e-9, 1.0)


def test_design_rejects_a_band_whose_steady_state_is_singular():
    # at 1e-9 of the sample rate the poles stay inside the circle, but the
    # sections' unit-step steady state is a singular solve
    with pytest.raises(InputError, match=r"f_low=1e-09 Hz and f_high=2e-09 "
                                         r"Hz are too low for rate 1 Hz"):
        design_bandpass(1e-9, 2e-9, 1.0)


def test_edge_gain_is_half_power():
    filt = design_bandpass(*BAND, RATE)
    mags = np.abs(frequency_response(filt, np.array(BAND)))
    assert abs(mags[0] - 0.7071) < 1e-3
    assert abs(mags[1] - 0.7071) < 1e-3


def test_dc_fully_rejected():
    filt = design_bandpass(*BAND, RATE)
    assert abs(frequency_response(filt, np.array([0.0]))[0]) <= 1e-6


def test_band_center_passes():
    filt = design_bandpass(*BAND, RATE)
    center = np.sqrt(BAND[0] * BAND[1])
    assert abs(frequency_response(filt, np.array([center]))[0]) > 0.99


def test_random_valid_designs_are_stable():
    rng = np.random.default_rng(8)
    for _ in range(25):
        rate = 10.0 ** rng.uniform(-2, 2)
        f_low = rate / 2 * 10.0 ** rng.uniform(-4, -1)
        f_high = f_low * 10.0 ** rng.uniform(0.3, 1.5)
        if f_high >= rate / 2 * 0.95:
            continue
        filt = design_bandpass(f_low, f_high, rate)
        _, poles, _ = signal.sos2zpk(filt.sos)
        assert np.max(np.abs(poles)) < 1.0
        assert filt.settling_samples >= 1


def test_impulse_response_decays():
    filt = design_bandpass(*BAND, RATE)
    x = np.zeros(100_000)
    x[0] = 1.0
    y = signal.sosfilt(filt.sos, x)
    assert abs(y[-1]) < 1e-9


# --- application -----------------------------------------------------------

def test_apply_zero_in_zero_out():
    filt = design_bandpass(*BAND, RATE)
    out = apply_array(filt, np.zeros(5000))
    assert not out.any()


def test_apply_removes_constant():
    filt = design_bandpass(*BAND, RATE)
    out = apply_array(filt, np.full(20000, 7.3))
    assert np.max(np.abs(out)) <= 1e-6 * 7.3


def test_apply_passes_band_center_sinusoid():
    filt = design_bandpass(*BAND, RATE)
    center = np.sqrt(BAND[0] * BAND[1])
    t = 10.0 * np.arange(40000)
    x = np.sin(2 * np.pi * center * t)
    y = apply_array(filt, x)
    body = slice(5000, 35000)  # away from edges
    amp = np.max(np.abs(y[body]))
    assert 0.99 <= amp <= 1.01


def test_apply_zero_phase_has_no_lag():
    filt = design_bandpass(*BAND, RATE)
    center = np.sqrt(BAND[0] * BAND[1])
    t = 10.0 * np.arange(40000)
    x = np.sin(2 * np.pi * center * t)
    y = apply_array(filt, x)
    body = slice(5000, 35000)
    lags = range(-5, 6)
    scores = [float(np.dot(y[body.start + lag: body.stop + lag], x[body]))
              for lag in lags]
    assert list(lags)[int(np.argmax(scores))] == 0


def _best_lag(y, x, body, max_lag):
    lags = range(-max_lag, max_lag + 1)
    scores = [float(np.dot(y[body.start + lag: body.stop + lag], x[body]))
              for lag in lags]
    return list(lags)[int(np.argmax(scores))]


def test_apply_has_no_lag_at_the_band_edge():
    """Two-way filtering removes the phase a single pass leaves at the
    band edge.

    The lag scan stays inside half a cycle of the probe tone so the
    correlation maximum is unique.
    """
    filt = design_bandpass(*BAND, RATE)
    t = 10.0 * np.arange(60000)
    x = np.sin(2 * np.pi * BAND[0] * t)  # 7200 s tone: 720-sample cycle
    body = slice(20000, 50000)
    assert _best_lag(apply_array(filt, x), x, body, 350) == 0


def test_apply_is_linear():
    rng = np.random.default_rng(9)
    filt = design_bandpass(*BAND, RATE)
    x = rng.normal(size=30000)
    y = rng.normal(size=30000)
    lhs = apply_array(filt, 2.0 * x - 0.5 * y)
    rhs = 2.0 * apply_array(filt, x) - 0.5 * apply_array(filt, y)
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_apply_too_short_series():
    filt = design_bandpass(*BAND, RATE)
    with pytest.raises(InputError, match=r"series of 10 samples cannot carry "
                                         r"the forward-backward edge padding"):
        apply_array(filt, np.ones(10))


def _random_band(rate_exp, low_exp, width_exp):
    rate = 10.0 ** rate_exp
    f_low = rate / 2 * 10.0 ** low_exp
    return f_low, min(f_low * 10.0 ** width_exp, 0.9 * rate / 2), rate


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rate_exp=st.floats(-2.0, 1.0),
       low_exp=st.floats(-2.5, -0.7), width_exp=st.floats(0.2, 1.2),
       rows=st.sampled_from([None, 1, 3]),
       extra=st.one_of(st.just(1), st.integers(1, 2000)))
def test_apply_equals_sosfiltfilt(seed, rate_exp, low_exp, width_exp, rows,
                                  extra):
    """The numpy forward-backward pass is scipy's sosfiltfilt on butter's
    sections to 1e-11 of the input's size, on 1-D and stacked 2-D input
    down to one sample above the padding, and the design's settling time
    is the one sos2zpk's poles give."""
    f_low, f_high, rate = _random_band(rate_exp, low_exp, width_exp)
    filt = design_bandpass(f_low, f_high, rate)
    _, poles, _ = signal.sos2zpk(filt.sos)
    assert filt.settling_samples == int(
        np.ceil(-1.0 / np.log(np.max(np.abs(poles)))))
    padlen = 3 * filt.settling_samples
    rng = np.random.default_rng(seed)
    shape = (padlen + extra,) if rows is None else (rows, padlen + extra)
    # an offset per series, so each pass's initial state matters
    x = (rng.uniform(-50.0, 50.0, shape[:-1] + (1,))
         + rng.uniform(0.1, 10.0) * rng.standard_normal(shape))
    sos = signal.butter(3, [f_low, f_high], btype="bandpass", fs=rate,
                        output="sos")
    want = signal.sosfiltfilt(sos, x, axis=-1, padtype="odd", padlen=padlen)
    got = apply_array(filt, x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(x))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rate_exp=st.floats(-2.0, 1.0), low_exp=st.floats(-2.5, -0.7),
       width_exp=st.floats(0.2, 1.2))
def test_design_matches_butter(rate_exp, low_exp, width_exp):
    """The numpy design's response is butter's to 1e-11 from DC to
    Nyquist, and its steady state is the one sosfilt_zi solves for on
    its sections."""
    f_low, f_high, rate = _random_band(rate_exp, low_exp, width_exp)
    filt = design_bandpass(f_low, f_high, rate)
    sos = signal.butter(3, [f_low, f_high], btype="bandpass", fs=rate,
                        output="sos")
    freqs = np.concatenate(([0.0, f_low, f_high, rate / 2],
                            np.geomspace(f_low / 100, rate / 2, 200)))
    _, want = signal.sosfreqz(sos, worN=freqs, fs=rate)
    assert np.max(np.abs(frequency_response(filt, freqs) - want)) <= 1e-11
    assert np.allclose(filt.zi, signal.sosfilt_zi(filt.sos),
                       rtol=1e-9, atol=1e-12)
