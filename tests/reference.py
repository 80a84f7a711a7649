"""Reference signal chain on scipy's filters, the referee for attndecode's
numpy-only one.

The package filters by one spectral product with the closed-form zero-phase
Butterworth gain (`dsp.bandpass_gain`) and repairs spikes with a local
natural spline. This module computes the same chain the way scipy does it:
second-order sections from `scipy.signal.butter`, run forward and backward
by `scipy.signal.sosfiltfilt` with odd padding of 3 (2 n_sections + 1)
samples, and a global `scipy.interpolate.CubicSpline` through every good
sample. The k-NN smoothing, baseline subtraction, z-scoring, window and
envelope statistics and the Morlet transform are the package's own, so a
difference between the two chains is a difference of filtering or spline
repair alone. `tests/test_reference.py` pins how large it may be.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.signal import butter, sosfiltfilt

from attndecode.dsp import (
    DEFAULT_BAND,
    DEFAULT_FILTER_ORDER,
    DEFAULT_MAD_K,
    MAD_TO_SIGMA,
    baseline_correct,
    knn_smooth,
)
from attndecode.features import (
    ERP_BAND,
    ERP_FILTER_ORDER,
    ERP_FS_OUT,
    _tf_extract,
    envelope_statistics,
    window_stats,
)
from attndecode.recording import DEFAULT_BANDS, Recording


def butter_sos(order: int, lo: float, hi: float, fs: float) -> np.ndarray:
    return butter(order, [lo, hi], btype="bandpass", fs=fs, output="sos")


def sos_gain(sos: np.ndarray, freqs_hz, fs: float) -> np.ndarray:
    """|H|^2 of the cascade at freqs_hz, from the product of its sections."""
    zinv = np.exp(-2j * np.pi * np.asarray(freqs_hz, float) / fs)
    h = np.ones_like(zinv)
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 * zinv + b2 * zinv * zinv) / (a0 + a1 * zinv + a2 * zinv * zinv)
    return np.abs(h) ** 2


def sos_filtfilt(x: np.ndarray, order: int, lo: float, hi: float, fs: float) -> np.ndarray:
    sos = butter_sos(order, lo, hi, fs)
    pad = 3 * (2 * len(sos) + 1)
    return np.ascontiguousarray(sosfiltfilt(sos, x, padtype="odd", padlen=pad))


def despike(x: np.ndarray, k: float = DEFAULT_MAD_K) -> np.ndarray:
    """MAD despiking with a natural CubicSpline through every good sample;
    flagged runs at either edge take the nearest good value."""
    med = np.median(x)
    mad = np.median(np.abs(x - med))
    if mad == 0.0:
        return x.copy()
    idx = np.flatnonzero(np.abs(x - med) > k * MAD_TO_SIGMA * mad)
    good = np.setdiff1d(np.arange(len(x)), idx)
    out = x.copy()
    interior = idx[(idx > good[0]) & (idx < good[-1])]
    if interior.size:
        out[interior] = CubicSpline(good, x[good], bc_type="natural")(interior)
    out[idx[idx < good[0]]] = x[good[0]]
    out[idx[idx > good[-1]]] = x[good[-1]]
    return out


def preprocess(rec: Recording) -> Recording:
    """The preprocessing chain of `attndecode.dsp.preprocess`."""
    out = sos_filtfilt(rec.samples, DEFAULT_FILTER_ORDER, *DEFAULT_BAND, rec.fs)
    out = knn_smooth(np.array([despike(row) for row in out]))
    for b in range(rec.n_blocks):
        whole = rec.block_slice(b)
        out[:, whole] = baseline_correct(out[:, whole], out[:, rec.phase_slice(b, "baseline")])
    activity = np.ascontiguousarray(out[:, rec.phase == "activity"])
    out = (out - activity.mean(axis=1)[:, None]) / activity.std(axis=1)[:, None]
    return dataclasses.replace(rec, samples=out, extra={**rec.extra, "preprocessed": True})


def features(rec: Recording) -> dict[str, np.ndarray]:
    """{"erp": [n, 336], "tf": [n, 56], "hilb": [n, 240]} trial features of a
    preprocessed recording, in the column order of the package's matrix."""
    fs_i = int(round(rec.fs))
    n = rec.n_trials
    tpb = rec.trials_per_block

    filtered = sos_filtfilt(rec.samples, ERP_FILTER_ORDER, *ERP_BAND, rec.fs)
    starts = rec.trial_starts().ravel()
    epochs = filtered[:, starts[:, None] + np.arange(0, fs_i, fs_i // int(ERP_FS_OUT))]
    erp = window_stats(epochs.transpose(1, 0, 2)).reshape(n, -1)

    hilb = np.empty((n, rec.n_channels, len(DEFAULT_BANDS), 6))
    for b in range(rec.n_blocks):
        whole = rec.block_slice(b)
        x = rec.samples[:, whole]
        m = x.shape[-1]
        mask = np.zeros(m)
        mask[0] = 1.0
        mask[1 : (m + 1) // 2] = 2.0
        if m % 2 == 0:
            mask[m // 2] = 1.0
        window = rec.trial_starts()[b, :, None] - whole.start + np.arange(fs_i)
        for k, band in enumerate(DEFAULT_BANDS):
            gain = sos_gain(butter_sos(4, band.lo, band.hi, rec.fs),
                            np.abs(np.fft.fftfreq(m, 1.0 / rec.fs)), rec.fs)
            env = np.abs(np.fft.ifft(np.fft.fft(x) * (gain * mask)))
            hilb[b * tpb : (b + 1) * tpb, :, k] = envelope_statistics(
                env[:, window]).transpose(1, 0, 2)

    return {"erp": erp, "tf": _tf_extract(rec)[0], "hilb": hilb.reshape(n, -1)}
