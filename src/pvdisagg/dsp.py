"""Sixth-order Butterworth band-pass filtering for the frequency-domain fit.

The design is an order-3 analog Butterworth prototype taken through the
band transformation and bilinear transform (three second-order sections =
order six overall, the sections of ``scipy.signal.butter(3, band,
"bandpass", output="sos")``), applied forward-backward so the pass band
keeps zero phase.

The sections run as one six-state system, the state-space form of their
transposed direct form II cascade.  ``apply_array`` filters along the last
axis, so a caller with many series of one length stacks them as rows and
pays the per-call overhead once: method D filters a column's segments of
one length in one call.  Each pass cuts its input into blocks of _BLOCK
samples (the block realization of Burrus, IEEE Trans. Audio
Electroacoust. 20(4), 1972): one matrix product gives every block's
zero-state end state, a scan over the blocks carries the six states from
block to block, and a second product gives each block's outputs from its
inputs and its start state.  The block matrices, the settling time that
sets the edge padding and the unit-step steady state that starts each
pass (the initial conditions of Gustafsson, IEEE TSP 44(4), 1996) are
worked out once, at design.  The matrices are the responses of the
sections, run sample by sample as ``sosfilt`` runs them, to each unit
input and each unit start state, which keeps them accurate to rounding:
powers of the cascade's matrix, which is far from normal, would not be.
The odd extension and the pass starts are those of
``scipy.signal.sosfiltfilt``, whose output this matches to rounding.  The
module needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

_BLOCK = 64  # samples per block of a filter pass
_STATES = 6  # two per second-order section


@dataclass(frozen=True)
class BandpassFilter:
    """Designed filter: sample_rate in Hz, sos is a (3, 6) section matrix,
    settling_samples the slowest pole's time constant in samples (three
    make padlen, the edge padding) and zi the (3, 2) section states of a
    unit step in steady state (as ``scipy.signal.sosfilt_zi`` gives them).

    The block matrices of a pass over _BLOCK samples act on the rows
    [inputs of a block, its start state] (_BLOCK + 6 values): block_out
    maps such a row to the block's outputs and block_end to its end
    state."""

    sample_rate: float
    sos: np.ndarray
    settling_samples: int
    zi: np.ndarray
    block_out: np.ndarray = field(repr=False)
    block_end: np.ndarray = field(repr=False)

    @property
    def padlen(self) -> int:
        return 3 * self.settling_samples


def _sections(f_low: float, f_high: float, sample_rate: float) -> np.ndarray:
    """The (3, 6) sections of the order-3 Butterworth band-pass: the
    prototype's poles are prewarped, band-transformed and mapped by the
    bilinear transform (fs = 2 on the Nyquist-normalized axis, as scipy
    works); each section takes one pole pair, the sections run from the
    pair farthest from the unit circle to the closest, each pair takes
    the two zeros (of three at +1 and three at -1) nearest its pole, and
    the first section carries the gain."""
    warped = 4.0 * np.tan(np.pi * (2.0 * np.array([f_low, f_high])
                                   / sample_rate) / 2.0)
    bw, wo2 = warped[1] - warped[0], warped[0] * warped[1]
    proto = bw / 2.0 * np.array([-np.exp(-1j * np.pi / 3.0), -1.0 + 0j])
    root = np.sqrt(proto ** 2 - wo2)
    (c_hi, r_hi), (c_lo, r_lo) = proto + root, proto - root
    analog = [(c_hi, np.conj(c_hi)), (c_lo, np.conj(c_lo)), (r_hi, r_lo)]
    gain = bw ** 3 * 64.0 / np.prod([((4.0 - u) * (4.0 - v)).real
                                     for u, v in analog])
    pairs = sorted(([(4.0 + u) / (4.0 - u), (4.0 + v) / (4.0 - v)]
                    for u, v in analog), key=lambda pair: max(map(abs, pair)))
    zeros = [1.0] * 3 + [-1.0] * 3
    sos = np.empty((3, 6))
    for i in (2, 1, 0):  # the pair closest to the circle takes zeros first
        u, v = pairs[i]
        z1, z2 = sorted(zeros, key=lambda z: abs(max(u, v, key=abs) - z))[:2]
        zeros.remove(z1)
        zeros.remove(z2)
        sos[i] = (1.0, -(z1 + z2), z1 * z2, 1.0, -(u + v).real, (u * v).real)
    sos[0, :3] *= gain
    return sos


def _run(sos: np.ndarray, x: np.ndarray, state: np.ndarray):
    """Run the sections sample by sample over the rows of the 2-D x, in
    ``sosfilt``'s transposed direct form II, from the (rows, 6) state
    (section i's z0 and z1 at 2i and 2i + 1); (outputs, end state)."""
    state = state.reshape(len(x), 3, 2).copy()
    y = np.empty_like(x)
    for t in range(x.shape[1]):
        u = x[:, t]
        for z, (b0, b1, b2, _, a1, a2) in zip(state.transpose(1, 0, 2), sos):
            out = b0 * u + z[:, 0]
            z[:, 0] = b1 * u - a1 * out + z[:, 1]
            z[:, 1] = b2 * u - a2 * out
            u = out
        y[:, t] = u
    return y, state.reshape(len(x), _STATES)


def design_bandpass(f_low: float, f_high: float,
                    sample_rate: float) -> BandpassFilter:
    """Design the order-6 band-pass; cutoffs are the -3 dB points."""
    if not (0.0 < f_low < f_high < sample_rate / 2.0):
        raise InputError(
            f"need 0 < f_low < f_high < rate/2, got "
            f"({f_low:g}, {f_high:g}) at rate {sample_rate:g} Hz")
    sos = _sections(f_low, f_high, sample_rate)
    # the poles are the roots of each section's denominator
    worst = max(float(np.max(np.abs(np.roots(section[3:]))))
                for section in sos)
    if worst >= 1.0:
        raise InputError(
            "discretized poles not strictly inside the unit circle "
            "(band too extreme for this sample rate)")
    # the cascade's state space, in row form: one sample moves state s
    # and input x to s @ a.T + x * b
    unit = np.eye(1 + _STATES)
    _, step = _run(sos, unit[:, :1], unit[:, 1:])
    b, a = step[0], step[1:].T
    try:
        zi = np.linalg.solve(np.eye(_STATES) - a, b)
    except np.linalg.LinAlgError:
        raise InputError(
            f"f_low={f_low:g} Hz and f_high={f_high:g} Hz are too low for "
            f"rate {sample_rate:g} Hz: the filter's steady state is "
            f"singular") from None
    # a block's outputs and end state from each unit input and each unit
    # start state, run through the sections as sosfilt runs them
    unit = np.eye(_BLOCK + _STATES)
    block_out, block_end = _run(sos, unit[:, :_BLOCK], unit[:, _BLOCK:])
    return BandpassFilter(float(sample_rate), sos,
                          int(np.ceil(-1.0 / np.log(worst))),
                          zi.reshape(3, 2), block_out, block_end)


def frequency_response(filt: BandpassFilter, freqs) -> np.ndarray:
    """Complex response of one forward pass at the given frequencies (Hz):
    the product of the sections' rational functions of z^-1."""
    zinv = np.exp(-2j * np.pi * np.atleast_1d(np.asarray(freqs, float))
                  / filt.sample_rate)
    h = np.ones(zinv.shape, dtype=complex)
    for b0, b1, b2, a0, a1, a2 in filt.sos:
        h *= (b0 + zinv * (b1 + zinv * b2)) / (a0 + zinv * (a1 + zinv * a2))
    return h


def _pass(filt: BandpassFilter, x: np.ndarray) -> np.ndarray:
    """One forward pass over the rows of the 2-D x, each from the steady
    state of a step at its first sample."""
    rows, n = x.shape
    full, rest = divmod(n, _BLOCK)
    nb = full + (rest > 0)
    # one row [inputs, start state] per block; zeros past n reach no output
    buf = np.zeros((rows, nb, _BLOCK + _STATES))
    buf[:, :full, :_BLOCK] = x[:, :full * _BLOCK].reshape(rows, full, _BLOCK)
    if rest:
        buf[:, full, :rest] = x[:, full * _BLOCK:]
    flat = buf.reshape(rows * nb, _BLOCK + _STATES)
    # the start states are still zero: every block's zero-state end state
    ends = (flat @ filt.block_end).reshape(rows, nb, _STATES)
    state = filt.zi.reshape(1, _STATES) * x[:, :1]
    step = filt.block_end[_BLOCK:]
    for i in range(nb):
        buf[:, i, _BLOCK:] = state
        state = state @ step + ends[:, i]
    return (flat @ filt.block_out).reshape(rows, nb * _BLOCK)[:, :n]


def apply_array(filt: BandpassFilter, values: np.ndarray) -> np.ndarray:
    """Filter contiguous series sampled at the filter's rate along the last
    axis, forward and backward, with odd padding of three settling times
    at each edge.  Each row of a 2-D array is one series, filtered as it
    would be alone (to rounding: the block products may round differently
    for another number of rows).  The output is
    ``sosfiltfilt(sos, values, axis=-1, padtype="odd", padlen=padlen)``
    to rounding: each pass starts from the design's steady state scaled
    by its input's first sample."""
    values = np.asarray(values, dtype=float)
    padlen = filt.padlen
    if values.shape[-1] <= padlen:
        raise InputError(
            f"series of {values.shape[-1]} samples cannot carry the "
            f"forward-backward edge padding ({padlen} samples)")
    rows = values.reshape(-1, values.shape[-1])
    ext = np.concatenate(
        (2 * rows[:, :1] - rows[:, padlen:0:-1],
         rows,
         2 * rows[:, -1:] - rows[:, -2:-(padlen + 2):-1]), axis=-1)
    y = _pass(filt, _pass(filt, ext)[:, ::-1])
    return y[:, -padlen - 1:padlen - 1:-1].reshape(values.shape)
