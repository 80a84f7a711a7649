"""Signal kernels and the preprocessing chain.

Every kernel but despike_mad works along the last axis, so one call filters
all channels; each row is bit-equal to a 1-D call on it. The chain, applied
per channel in this fixed order:
    0.4-40 Hz 5th-order Butterworth (zero-phase) -> MAD despiking with cubic
    spline repair -> k-nearest-neighbour smoothing -> per-block baseline
    subtraction -> global z-scoring over the activity samples of all blocks.

Offline analysis, so filtering is always zero phase (the gain of a
forward-backward pass, applied as one spectral product): latencies of evoked
deflections are preserved.
"""

from __future__ import annotations

import math

import numpy as np

from .recording import BandDefinition, Recording

DEFAULT_FILTER_ORDER = 5
DEFAULT_BAND = (0.4, 40.0)
DEFAULT_MAD_K = 5.0
DEFAULT_SMOOTH_K = 7

# Odd extension on each side of a zero-phase filter pass, in seconds. On the
# easy 8 x 40 recording, 30 s moves the 0.4-40 Hz output by at most 4.4e-5 of
# its maximum (at the ends) and 2 s by 2.2e-2; from 40 s in, all three agree
# to 2e-15.
FILTFILT_PAD_S = 10.0
# Good samples on each side of a despiking gap that its spline repair uses.
SPLINE_KNOTS = 40

# Scales MAD to the std of a Gaussian, so k is in sigma units.
MAD_TO_SIGMA = 1.4826


class DspError(ValueError):
    """Invalid input to a signal kernel."""


def bandpass_gain(order: int, lo: float, hi: float, fs: float, freqs_hz) -> np.ndarray:
    """Zero-phase gain |H(e^{j 2 pi f / fs})|^2 of the order-N digital
    Butterworth band-pass (bilinear transform with pre-warped edges) at each
    frequency of freqs_hz: the gain of a forward-backward pass of H.

    Closed form (Oppenheim & Schafer, Discrete-Time Signal Processing, 7.2):
    pre-warp each frequency to W = 4 tan(pi f / fs); with W0^2 = W_lo W_hi
    and B = W_hi - W_lo, the low-pass-to-band-pass map gives
    nu = (W^2 - W0^2) / (W B) and the gain is 1 / (1 + nu^(2N)). It is 0 at
    DC and at Nyquist.
    """
    if not 1 <= order <= 12:
        raise DspError(f"order must be in [1, 12], got {order}")
    if not (0.0 < lo < hi < fs / 2.0):
        raise DspError(
            f"band edges must satisfy 0 < lo < hi < fs/2, got [{lo}, {hi}] at fs={fs}"
        )
    # math.tan per frequency and products, not np.tan and array **: the bits
    # must not depend on which SIMD path numpy takes
    freqs = np.asarray(freqs_hz, float)
    w = np.array([4.0 * math.tan(math.pi * f / fs) for f in freqs.ravel().tolist()])
    w_lo = 4.0 * math.tan(math.pi * lo / fs)
    w_hi = 4.0 * math.tan(math.pi * hi / fs)
    # nu is infinite at DC and nu^(2N) may overflow near Nyquist: gain 0
    with np.errstate(divide="ignore", over="ignore"):
        nu = (w * w - w_lo * w_hi) / (w * (w_hi - w_lo))
        nu2 = nu * nu
        power = nu2
        for _ in range(order - 1):
            power = power * nu2
        return (1.0 / (1.0 + power)).reshape(freqs.shape)


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n: the FFT lengths pocketfft
    handles fastest, as scipy.fft.next_fast_len picks them."""
    m = max(int(n), 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def filtfilt(x: np.ndarray, order: int, lo: float, hi: float, fs: float) -> np.ndarray:
    """Zero-phase Butterworth band-pass along the last axis of x: the
    spectrum of the odd-extended signal times bandpass_gain, transformed back.

    The odd extension (2 x[0] - x[pad:0:-1] before, 2 x[-1] - x[-2:-pad-2:-1]
    after) keeps the value and slope at each end, so the circular product
    wraps between the extension's ends rather than the signal's. It is
    FILTFILT_PAD_S long, or n - 1 samples for a shorter signal; the FFT
    zero-fills the extended signal to next_fast_len, past both extensions. A
    signal shorter than 1 s is refused.
    """
    x = np.asarray(x, float)
    n = x.shape[-1]
    if n < fs:
        raise DspError(f"signal length {n} too short: need at least 1 s ({fs:g} samples)")
    pad = min(int(round(FILTFILT_PAD_S * fs)), n - 1)
    ext = np.concatenate(
        (2.0 * x[..., :1] - x[..., pad:0:-1], x, 2.0 * x[..., -1:] - x[..., -2 : -pad - 2 : -1]),
        axis=-1,
    )
    nfft = next_fast_len(ext.shape[-1])
    gain = bandpass_gain(order, lo, hi, fs, np.fft.rfftfreq(nfft, 1.0 / fs))
    out = np.fft.irfft(np.fft.rfft(ext, nfft) * gain, nfft)
    return np.ascontiguousarray(out[..., pad : pad + n])


def _spline_repair(knots: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (knots, values), evaluated at `at`, each
    point strictly inside the knot range and on no knot.

    Local: the points between knots[j] and knots[j + 1] are read from the
    natural spline through SPLINE_KNOTS knots on each side of that gap (fewer
    near the ends). A knot's pull on the spline shrinks by a factor of
    2 - sqrt(3), about 0.27, per knot in between, so this matches the spline
    through every knot to rounding.
    """
    out = []
    gap = None
    for j, s in zip((np.searchsorted(knots, at) - 1).tolist(), at.tolist()):
        if j != gap:
            gap = j
            first = max(j - SPLINE_KNOTS + 1, 0)
            t = knots[first : j + SPLINE_KNOTS + 1].astype(float).tolist()
            v = values[first : j + SPLINE_KNOTS + 1].tolist()
            m = _natural_second_derivatives(t, v)
            k = j - first
            t0, t1, v0, v1, m0, m1 = t[k], t[k + 1], v[k], v[k + 1], m[k], m[k + 1]
            h = t1 - t0
        a, b = t1 - s, s - t0
        out.append((m0 * (a * a * a) + m1 * (b * b * b)) / (6.0 * h)
                   + (v0 / h - m0 * h / 6.0) * a + (v1 / h - m1 * h / 6.0) * b)
    return np.array(out)


def _natural_second_derivatives(t: list, v: list) -> list:
    """Second derivatives at the knots of the natural cubic spline through
    (t, v): zero at both ends, the interior ones from the tridiagonal
    continuity equations, solved by forward elimination and back
    substitution."""
    n = len(t)
    m = [0.0] * n
    c = [0.0] * n
    d = [0.0] * n
    for i in range(1, n - 1):
        h0, h1 = t[i] - t[i - 1], t[i + 1] - t[i]
        rhs = 6.0 * ((v[i + 1] - v[i]) / h1 - (v[i] - v[i - 1]) / h0)
        denom = 2.0 * (h0 + h1) - h0 * c[i - 1]
        c[i] = h1 / denom
        d[i] = (rhs - h0 * d[i - 1]) / denom
    for i in range(n - 2, 0, -1):
        m[i] = d[i] - c[i] * m[i + 1]
    return m


def despike_mad(x: np.ndarray, k: float = DEFAULT_MAD_K) -> tuple[np.ndarray, np.ndarray]:
    """Flag |x - median| > k * 1.4826 * MAD and repair with a cubic spline.

    Returns (repaired signal, flagged indices). Non-flagged samples are
    passed through untouched; a zero MAD means nothing is flagged. Flagged
    runs at either edge take the nearest non-flagged value, since spline
    extrapolation there is unstable.
    """
    x = np.asarray(x, float)
    if len(x) < 8:
        raise DspError(f"need at least 8 samples, got {len(x)}")
    med = np.median(x)
    mad = np.median(np.abs(x - med))
    if mad == 0.0:
        return x.copy(), np.empty(0, dtype=np.int64)
    flagged = np.abs(x - med) > k * MAD_TO_SIGMA * mad
    idx = np.flatnonzero(flagged)
    if idx.size == 0:
        return x.copy(), idx
    good = np.flatnonzero(~flagged)
    if good.size == 0:
        raise DspError("every sample flagged as a spike; refusing to fabricate signal")

    out = x.copy()
    interior = idx[(idx > good[0]) & (idx < good[-1])]
    if interior.size:
        out[interior] = _spline_repair(good, x[good], interior)
    out[idx[idx < good[0]]] = x[good[0]]
    out[idx[idx > good[-1]]] = x[good[-1]]
    return out, idx


def knn_smooth(x: np.ndarray, k: int = DEFAULT_SMOOTH_K) -> np.ndarray:
    """Truncated moving average over the k nearest samples by time index,
    along the last axis.

    Uniform weights; the window is clipped at the signal edges. k = 1 is the
    identity.
    """
    x = np.asarray(x, float)
    n = x.shape[-1]
    if k % 2 != 1 or not 1 <= k <= n:
        raise DspError(f"k must be odd and in [1, {n}], got {k}")
    if k == 1:
        return x.copy()
    half = k // 2
    csum = np.concatenate((np.zeros((*x.shape[:-1], 1)), np.cumsum(x, axis=-1)), axis=-1)
    hi = np.minimum(np.arange(n) + half + 1, n)
    lo = np.maximum(np.arange(n) - half, 0)
    return (np.take(csum, hi, axis=-1) - np.take(csum, lo, axis=-1)) / (hi - lo)


def baseline_correct(activity: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """Subtract the baseline mean from the activity signal, along the last
    axis of both."""
    baseline = np.asarray(baseline, float)
    if baseline.shape[-1] == 0:
        raise DspError("empty baseline")
    return np.asarray(activity, float) - baseline.mean(axis=-1, keepdims=True)


def preprocess(rec: Recording) -> Recording:
    """Run the full chain on every channel and return a new recording.

    Filtering/despiking/smoothing act on the continuous channel signal;
    baseline subtraction is per block (its mean is removed from the whole
    block so the signal stays continuous); the final z-score is an affine
    map per channel computed from the activity samples of all blocks.
    """
    out = filtfilt(rec.samples, DEFAULT_FILTER_ORDER, *DEFAULT_BAND, rec.fs)
    for c, name in enumerate(rec.channels):
        try:
            out[c], _ = despike_mad(out[c])
        except DspError as e:
            raise DspError(f"channel {name}: {e}") from e
    out = knn_smooth(out)

    for b in range(rec.n_blocks):
        whole = rec.block_slice(b)
        out[:, whole] = baseline_correct(out[:, whole], out[:, rec.phase_slice(b, "baseline")])

    # C order: the fancy-indexed gather is not, and its row sums would round apart
    activity = np.ascontiguousarray(out[:, rec.phase == "activity"])
    mean = activity.mean(axis=1)
    std = activity.std(axis=1)
    for c, name in enumerate(rec.channels):
        if std[c] == 0.0:
            raise DspError(f"channel {name}: zero variance over activity")
    out = (out - mean[:, None]) / std[:, None]

    extra = dict(rec.extra)
    extra["preprocessed"] = True
    return Recording(
        subject_id=rec.subject_id,
        fs=rec.fs,
        channels=rec.channels,
        samples=out,
        block=rec.block,
        phase=rec.phase,
        trial=rec.trial,
        label=rec.label,
        block_labels=rec.block_labels,
        extra=extra,
    )


def analytic_envelope(x: np.ndarray, band: BandDefinition, fs: float) -> np.ndarray:
    """Amplitude envelope of x restricted to a frequency band, along the last
    axis of x ([n] or [..., n]).

    One spectral product: the spectrum of x times |H|^2, the zero-phase gain
    of a forward-backward pass of the 4th-order Butterworth band-pass, times
    the analytic mask (negative frequencies zeroed, positive doubled; Marple
    1999), then the magnitude of its inverse FFT. The product is circular, so
    x should be a whole segment whose ends lie outside the samples of
    interest.
    """
    x = np.asarray(x, float)
    if band.hi > fs / 2.0:
        raise DspError(
            f"band {band.name!r} upper edge {band.hi} Hz exceeds Nyquist {fs / 2.0} Hz"
        )
    n = x.shape[-1]
    if n < 64:
        raise DspError(f"need at least 64 samples, got {n}")
    if not 0 < band.lo < band.hi:
        raise DspError(f"band {band.name!r} edges [{band.lo}, {band.hi}] invalid")
    # non-negative frequencies only: the analytic mask zeroes the rest, and
    # ifft's zero fill past them does the same
    h = np.full(n // 2 + 1, 2.0)
    h[0] = 1.0
    if n % 2 == 0:
        h[-1] = 1.0
    gain = bandpass_gain(4, band.lo, band.hi, fs, np.fft.rfftfreq(n, 1.0 / fs))
    return np.abs(np.fft.ifft(np.fft.rfft(x) * (gain * h), n))
