"""Signal kernels and the preprocessing chain.

Every kernel but despike_mad works along the last axis, so one call filters
all channels; each row is bit-equal to a 1-D call on it. The chain, applied
per channel in this fixed order:
    0.4-40 Hz 5th-order Butterworth (zero-phase) -> MAD despiking with cubic
    spline repair -> k-nearest-neighbour smoothing -> per-block baseline
    subtraction -> global z-scoring over the activity samples of all blocks.

Offline analysis, so filtering is always forward-backward (zero phase):
latencies of evoked deflections are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .recording import BandDefinition, Recording

DEFAULT_FILTER_ORDER = 5
DEFAULT_BAND = (0.4, 40.0)
DEFAULT_MAD_K = 5.0
DEFAULT_SMOOTH_K = 7

# Scales MAD to the std of a Gaussian, so k is in sigma units.
MAD_TO_SIGMA = 1.4826


class DspError(ValueError):
    """Invalid input to a signal kernel."""


@dataclass(frozen=True)
class IirFilter:
    """Cascade of second-order sections at sampling rate fs."""

    sos: np.ndarray
    fs: float

    @property
    def n_sections(self) -> int:
        return self.sos.shape[0]

    def pole_magnitudes(self) -> np.ndarray:
        mags = []
        for sec in self.sos:
            mags.extend(abs(p) for p in np.roots(sec[3:]))
        return np.array(mags)

    def response(self, freqs_hz) -> np.ndarray:
        """Complex frequency response H(e^{j 2 pi f / fs}) of the cascade."""
        w = 2.0 * np.pi * np.atleast_1d(np.asarray(freqs_hz, float)) / self.fs
        zinv = np.exp(-1j * w)
        h = np.ones_like(zinv)
        for b0, b1, b2, a0, a1, a2 in self.sos:
            h *= (b0 + b1 * zinv + b2 * zinv**2) / (a0 + a1 * zinv + a2 * zinv**2)
        return h

    def padlen(self) -> int:
        # Mirrors scipy's default edge padding for a sos cascade.
        return 3 * (2 * self.n_sections + 1)


def design_butterworth_bandpass(order: int, lo: float, hi: float, fs: float) -> IirFilter:
    """Digital Butterworth bandpass via bilinear transform with pre-warping."""
    if not 1 <= order <= 12:
        raise DspError(f"order must be in [1, 12], got {order}")
    if not (0.0 < lo < hi < fs / 2.0):
        raise DspError(
            f"band edges must satisfy 0 < lo < hi < fs/2, got [{lo}, {hi}] at fs={fs}"
        )
    from scipy.signal import butter

    sos = butter(order, [lo, hi], btype="bandpass", fs=fs, output="sos")
    filt = IirFilter(sos=sos, fs=fs)
    if np.any(filt.pole_magnitudes() >= 1.0):
        raise DspError(f"unstable design for order={order}, band=[{lo}, {hi}]")
    center = np.sqrt(lo * hi)
    gain = abs(filt.response(center)[0])
    if abs(gain - 1.0) > 0.01:
        raise DspError(f"passband gain {gain:.4f} at {center:.3f} Hz deviates from 1")
    return filt


def filtfilt(filt: IirFilter, x: np.ndarray) -> np.ndarray:
    """Zero-phase (forward-backward) filtering with reflected-edge padding,
    along the last axis of x."""
    from scipy.signal import sosfiltfilt

    x = np.asarray(x, float)
    pad = filt.padlen()
    if x.shape[-1] <= pad:
        raise DspError(f"signal length {x.shape[-1]} too short for padding {pad}")
    # sosfiltfilt returns a reversed view of the padded signal
    return np.ascontiguousarray(sosfiltfilt(filt.sos, x, padtype="odd", padlen=pad))


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
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(good, x[good], bc_type="natural")
        out[interior] = spline(interior)
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
    filt = design_butterworth_bandpass(DEFAULT_FILTER_ORDER, *DEFAULT_BAND, rec.fs)
    out = filtfilt(filt, rec.samples)
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
    filt = design_butterworth_bandpass(4, band.lo, band.hi, fs)
    gain = np.abs(filt.response(np.abs(np.fft.fftfreq(n, 1.0 / fs)))) ** 2
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
        h[1 : n // 2] = 2.0
    else:
        h[1 : (n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * (gain * h)))
