"""Sixth-order Butterworth band-pass filtering for the frequency-domain fit.

The design is an order-3 analog Butterworth prototype taken through the
band transformation and bilinear transform (three second-order sections =
order six overall), applied forward-backward so the pass band keeps zero
phase.

scipy.signal is imported inside the functions that call it, not at module
level: loading it took most of the package's import time and memory, and
only method D's fit (the ``fit`` and ``sweep`` commands) filters anything.
``methods.fit`` loads it before starting its clock, so the time a D fit
reports is the fit alone, as when scipy loaded with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DesignError, TooShortError


@dataclass(frozen=True)
class BandpassFilter:
    """Designed filter: cutoffs in Hz, sos is a (3, 6) section matrix."""

    f_low: float
    f_high: float
    sample_rate: float
    sos: np.ndarray

    @property
    def settling_samples(self) -> int:
        """Slowest-pole time constant, in samples (used for edge padding)."""
        from scipy import signal
        _, poles, _ = signal.sos2zpk(self.sos)
        worst = float(np.max(np.abs(poles)))
        if worst >= 1.0:  # pragma: no cover - design() already rejects
            raise DesignError("unstable filter")
        return int(np.ceil(-1.0 / np.log(worst)))


def design_bandpass(f_low: float, f_high: float,
                    sample_rate: float) -> BandpassFilter:
    """Design the order-6 band-pass; cutoffs are the -3 dB points."""
    from scipy import signal
    if not (0.0 < f_low < f_high < sample_rate / 2.0):
        raise DesignError(
            f"need 0 < f_low < f_high < rate/2, got "
            f"({f_low:g}, {f_high:g}) at rate {sample_rate:g} Hz")
    sos = signal.butter(3, [f_low, f_high], btype="bandpass",
                        fs=sample_rate, output="sos")
    _, poles, _ = signal.sos2zpk(sos)
    if np.any(np.abs(poles) >= 1.0):
        raise DesignError(
            "discretized poles not strictly inside the unit circle "
            "(band too extreme for this sample rate)")
    return BandpassFilter(float(f_low), float(f_high), float(sample_rate),
                          sos)


def frequency_response(filt: BandpassFilter, freqs) -> np.ndarray:
    """Complex response of one forward pass at the given frequencies (Hz)."""
    from scipy import signal
    _, h = signal.sosfreqz(filt.sos, worN=np.atleast_1d(freqs),
                           fs=filt.sample_rate)
    return h


def apply_array(filt: BandpassFilter, values: np.ndarray) -> np.ndarray:
    """Filter a contiguous array sampled at the filter's rate, forward and
    backward, with odd padding of three settling times at each edge."""
    from scipy import signal
    values = np.asarray(values, dtype=float)
    padlen = 3 * filt.settling_samples
    if values.size <= padlen:
        raise TooShortError(
            f"series of {values.size} samples cannot carry the "
            f"forward-backward edge padding ({padlen} samples)")
    return signal.sosfiltfilt(filt.sos, values, padtype="odd",
                              padlen=padlen)
