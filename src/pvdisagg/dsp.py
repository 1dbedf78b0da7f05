"""Sixth-order Butterworth band-pass filtering for the frequency-domain fit.

The design is an order-3 analog Butterworth prototype taken through the
band transformation and bilinear transform (three second-order sections =
order six overall), applied forward-backward so the pass band keeps zero
phase.

``apply_array`` filters along the last axis, so a caller with many series
of one length stacks them as rows and pays the per-call overhead once:
method D filters a column's segments of one length in one call.  The
settling time that sets the edge padding and the sections' steady state
(the unit-step initial conditions of Gustafsson, IEEE TSP 44(4), 1996)
are worked out once, at design: ``apply_array`` does the odd extension
and the two ``sosfilt`` passes itself, the same arithmetic as
``sosfiltfilt`` (so the same bits), without solving for that steady
state again on every call.

scipy.signal is imported inside the functions that call it, not at module
level: loading it took most of the package's import time and memory, and
only method D's fit (the ``fit`` and ``sweep`` commands) filters anything.
``methods.fit`` loads it before starting its clock, so the time a D fit
reports is the fit alone, as when scipy loaded with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class BandpassFilter:
    """Designed filter: sample_rate in Hz, sos is a (3, 6) section matrix,
    settling_samples the slowest pole's time constant in samples (three
    make padlen, the edge padding) and zi the (3, 2) section states of a
    unit step in steady state (``scipy.signal.sosfilt_zi``)."""

    sample_rate: float
    sos: np.ndarray
    settling_samples: int
    zi: np.ndarray

    @property
    def padlen(self) -> int:
        return 3 * self.settling_samples


def design_bandpass(f_low: float, f_high: float,
                    sample_rate: float) -> BandpassFilter:
    """Design the order-6 band-pass; cutoffs are the -3 dB points."""
    from scipy import signal
    if not (0.0 < f_low < f_high < sample_rate / 2.0):
        raise InputError(
            f"need 0 < f_low < f_high < rate/2, got "
            f"({f_low:g}, {f_high:g}) at rate {sample_rate:g} Hz")
    sos = signal.butter(3, [f_low, f_high], btype="bandpass",
                        fs=sample_rate, output="sos")
    # the poles are the roots of each section's denominator, as sos2zpk
    # finds them (butter's sections have a leading denominator of 1)
    worst = max(float(np.max(np.abs(np.roots(section[3:]))))
                for section in sos)
    if worst >= 1.0:
        raise InputError(
            "discretized poles not strictly inside the unit circle "
            "(band too extreme for this sample rate)")
    try:
        zi = signal.sosfilt_zi(sos)
    except np.linalg.LinAlgError:
        raise InputError(
            f"f_low={f_low:g} Hz and f_high={f_high:g} Hz are too low for "
            f"rate {sample_rate:g} Hz: the filter's steady state is "
            f"singular") from None
    return BandpassFilter(float(sample_rate), sos,
                          int(np.ceil(-1.0 / np.log(worst))), zi)


def frequency_response(filt: BandpassFilter, freqs) -> np.ndarray:
    """Complex response of one forward pass at the given frequencies (Hz)."""
    from scipy import signal
    _, h = signal.sosfreqz(filt.sos, worN=np.atleast_1d(freqs),
                           fs=filt.sample_rate)
    return h


def apply_array(filt: BandpassFilter, values: np.ndarray) -> np.ndarray:
    """Filter contiguous series sampled at the filter's rate along the last
    axis, forward and backward, with odd padding of three settling times
    at each edge.  Each row of a 2-D array is one series; its output is
    bit-identical to filtering that row alone, and to
    ``sosfiltfilt(sos, values, axis=-1, padtype="odd", padlen=padlen)``:
    each pass starts from the design's steady state scaled by its input's
    first sample."""
    from scipy import signal
    values = np.asarray(values, dtype=float)
    padlen = filt.padlen
    if values.shape[-1] <= padlen:
        raise InputError(
            f"series of {values.shape[-1]} samples cannot carry the "
            f"forward-backward edge padding ({padlen} samples)")
    ext = np.concatenate(
        (2 * values[..., :1] - values[..., padlen:0:-1],
         values,
         2 * values[..., -1:] - values[..., -2:-(padlen + 2):-1]), axis=-1)
    # (sections, 1, ..., 2): one state pair per section, broadcast over rows
    zi = filt.zi.reshape((filt.zi.shape[0],) + (1,) * (values.ndim - 1)
                         + (2,))
    y, _ = signal.sosfilt(filt.sos, ext, zi=zi * ext[..., :1])
    y, _ = signal.sosfilt(filt.sos, y[..., ::-1], zi=zi * y[..., -1:])
    return y[..., -padlen - 1:padlen - 1:-1]
