import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import butter

from attndecode import (
    BandDefinition,
    DspError,
    analytic_envelope,
    bandpass_gain,
    baseline_correct,
    despike_mad,
    filtfilt,
    knn_smooth,
    preprocess,
)

FS = 250.0


def butter_sos(order: int, lo: float, hi: float, fs: float) -> np.ndarray:
    """scipy's second-order sections of the same Butterworth band-pass."""
    return butter(order, [lo, hi], btype="bandpass", fs=fs, output="sos")


def oracle_magnitude(sos: np.ndarray, f_hz: float, fs: float) -> float:
    """|H| from the cascade's roots: independent of bandpass_gain."""
    z = np.exp(1j * 2.0 * np.pi * f_hz / fs)
    mag = 1.0
    for b0, b1, b2, a0, a1, a2 in sos:
        zeros = np.roots([b0, b1, b2])
        poles = np.roots([a0, a1, a2])
        mag *= abs(b0 / a0)
        for q in zeros:
            mag *= abs(1.0 - q / z)
        for p in poles:
            mag /= abs(1.0 - p / z)
    return mag


def fit_tone_amplitude(x: np.ndarray, f_hz: float, fs: float) -> float:
    """Least-squares amplitude of a tone at f_hz (quadrature projection)."""
    t = np.arange(len(x)) / fs
    c = 2.0 * np.mean(x * np.cos(2.0 * np.pi * f_hz * t))
    s = 2.0 * np.mean(x * np.sin(2.0 * np.pi * f_hz * t))
    return float(np.hypot(c, s))


# -- filter design -------------------------------------------------------------


def gain_db(order, lo, hi, f_hz):
    """The zero-phase gain in dB of |H|, the one-pass magnitude."""
    return 10.0 * np.log10(bandpass_gain(order, lo, hi, FS, f_hz))


def test_design_rejects_60hz_by_20db():
    assert gain_db(5, 0.4, 40.0, 60.0) <= -20.0


def test_design_passband_flat_at_4hz():
    assert abs(gain_db(5, 0.4, 40.0, 4.0)) <= 1.0


def test_design_passband_4_to_30hz_within_1db():
    for f in np.arange(4.0, 30.5, 0.5):
        db = gain_db(5, 0.4, 40.0, f)
        assert abs(db) <= 1.0, f"{f} Hz: {db:.3f} dB"


def test_response_matches_root_oracle():
    sos = butter_sos(5, 0.4, 40.0, FS)
    freqs = (0.2, 1.0, 4.0, 10.0, 25.0, 40.0, 60.0, 100.0)
    gain = bandpass_gain(5, 0.4, 40.0, FS, freqs)
    for f, g in zip(freqs, gain):
        expected = oracle_magnitude(sos, f, FS) ** 2
        if expected > 1e-6:
            assert g == pytest.approx(expected, rel=1e-9), f"{f} Hz"


def test_design_center_gain_unity():
    center = np.sqrt(0.4 * 40.0)
    assert bandpass_gain(5, 0.4, 40.0, FS, center) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("band", [(0.4, 40.0), (1.0, 4.0), (8.0, 14.0), (30.0, 40.0)])
def test_design_stability_sweep(order, band):
    gain = bandpass_gain(order, band[0], band[1], FS, np.fft.rfftfreq(1001, 1.0 / FS))
    assert np.all(np.isfinite(gain))
    assert np.all((gain >= 0.0) & (gain <= 1.0))


@pytest.mark.parametrize(
    "args",
    [(5, 4.0, 4.0, FS), (5, -1.0, 40.0, FS), (5, 0.4, 130.0, FS), (0, 0.4, 40.0, FS), (13, 0.4, 40.0, FS)],
)
def test_design_rejects_bad_arguments(args):
    with pytest.raises(DspError):
        bandpass_gain(*args, 10.0)


# -- zero-phase filtering --------------------------------------------------------


def test_filtfilt_zero_signal():
    out = filtfilt(np.zeros(1000), 5, 0.4, 40.0, FS)
    np.testing.assert_array_equal(out, np.zeros(1000))


def test_filtfilt_passband_amplitude_matches_gain_squared():
    t = np.arange(int(10 * FS)) / FS
    x = np.sin(2.0 * np.pi * 10.0 * t)
    y = filtfilt(x, 5, 0.4, 40.0, FS)
    interior = slice(int(FS), int(9 * FS))
    amp = fit_tone_amplitude(y[interior], 10.0, FS)
    expected = oracle_magnitude(butter_sos(5, 0.4, 40.0, FS), 10.0, FS) ** 2
    assert amp == pytest.approx(expected, rel=0.02)
    assert amp == pytest.approx(1.0, rel=0.02)


def test_filtfilt_zero_phase_crossings():
    t = np.arange(int(10 * FS)) / FS
    x = np.sin(2.0 * np.pi * 10.0 * t)
    y = filtfilt(x, 5, 0.4, 40.0, FS)
    interior = slice(int(FS), int(9 * FS))

    def crossings(s):
        return np.flatnonzero(s[:-1] * s[1:] < 0)

    cx = crossings(x[interior])
    cy = crossings(y[interior])
    assert len(cx) == len(cy)
    assert np.max(np.abs(cx - cy)) <= 1


def test_filtfilt_linearity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    lhs = filtfilt(2.5 * x - 1.25 * y, 5, 0.4, 40.0, FS)
    rhs = 2.5 * filtfilt(x, 5, 0.4, 40.0, FS) - 1.25 * filtfilt(y, 5, 0.4, 40.0, FS)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_filtfilt_too_short():
    with pytest.raises(DspError, match="too short"):
        filtfilt(np.zeros(10), 5, 0.4, 40.0, FS)


# -- despiking -------------------------------------------------------------------


def test_despike_constant_signal_untouched():
    x = np.full(100, 3.7)
    out, idx = despike_mad(x)
    np.testing.assert_array_equal(out, x)
    assert idx.size == 0


def test_despike_repairs_single_spike():
    t = np.arange(int(4 * FS)) / FS
    clean = np.sin(2.0 * np.pi * 5.0 * t)
    x = clean.copy()
    x[500] += 50.0
    out, idx = despike_mad(x, k=5.0)
    assert 500 in idx
    assert abs(out[500] - clean[500]) < 0.1
    untouched = np.setdiff1d(np.arange(len(x)), idx)
    np.testing.assert_array_equal(out[untouched], x[untouched])


def test_despike_false_positive_rate_gaussian():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(200_000)
    _, idx = despike_mad(x, k=5.0)
    assert idx.size / len(x) < 0.001  # 5-sigma tail is ~6e-7


def test_despike_edge_spike_uses_nearest_value():
    x = np.sin(np.arange(100) * 0.1)
    x[0] += 100.0
    out, idx = despike_mad(x, k=5.0)
    assert 0 in idx
    assert out[0] == x[1]


def test_despike_all_flagged_is_error():
    # two-valued signal with zero-MAD trick avoided: craft MAD>0 but all far
    x = np.array([0.0, 1000.0] * 8)
    with pytest.raises(DspError):
        # k tiny: every sample beyond k*MAD from the median
        despike_mad(x, k=1e-6)


def test_despike_flag_set_scale_invariant():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(5000)
    x[rng.choice(5000, 20, replace=False)] += 30.0
    _, idx1 = despike_mad(x, k=5.0)
    for a in (2.0, 0.25, 1024.0):  # powers of two scale without rounding
        _, idx2 = despike_mad(a * x, k=5.0)
        np.testing.assert_array_equal(idx1, idx2)
    assert idx1.size >= 20


def test_despike_too_short():
    with pytest.raises(DspError):
        despike_mad(np.zeros(7))


# -- k-nearest smoothing ----------------------------------------------------------


def test_knn_smooth_k1_is_identity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(257)
    np.testing.assert_array_equal(knn_smooth(x, 1), x)


def test_knn_smooth_constant_unchanged():
    x = np.full(100, 0.1)
    for k in (3, 7, 99):
        np.testing.assert_allclose(knn_smooth(x, k), x, atol=1e-12)


def test_knn_smooth_variance_reduction():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(100_000)
    y = knn_smooth(x, 7)
    ratio = y[100:-100].var() / x.var()
    assert abs(ratio - 1.0 / 7.0) < 0.01


def test_knn_smooth_interior_is_plain_window_mean():
    x = np.arange(20.0) ** 2
    y = knn_smooth(x, 5)
    assert y[10] == pytest.approx(np.mean(x[8:13]), rel=1e-12)
    assert y[0] == pytest.approx(np.mean(x[0:3]), rel=1e-12)  # truncated edge


@settings(deadline=None, max_examples=25)
@given(
    a=st.floats(min_value=0.1, max_value=8.0),
    b=st.floats(min_value=-5.0, max_value=5.0),
    k=st.sampled_from([1, 3, 7, 15]),
)
def test_knn_smooth_affine_equivariance(a, b, k):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    lhs = knn_smooth(a * x + b, k)
    rhs = a * knn_smooth(x, k) + b
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("k", [0, 2, -1, 301])
def test_knn_smooth_invalid_k(k):
    with pytest.raises(DspError):
        knn_smooth(np.zeros(300), k)


# -- baseline and z-score -----------------------------------------------------------


def test_baseline_correct_examples():
    np.testing.assert_array_equal(
        baseline_correct(np.array([3.0, 4.0, 5.0]), np.array([1.0, 3.0])),
        np.array([1.0, 2.0, 3.0]),
    )
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(baseline_correct(x, np.array([-1.0, 1.0])), x)
    act = np.full(10, 2.5)
    np.testing.assert_array_equal(baseline_correct(act, act), np.zeros(10))
    with pytest.raises(DspError, match="empty baseline"):
        baseline_correct(x, np.array([]))


# -- full preprocessing chain ---------------------------------------------------------


def test_preprocess_flat_channel_names_it(small_easy_rec):
    samples = np.array(small_easy_rec.samples)
    samples[5] = 0.0  # PO7 carries no signal at all
    rec = dataclasses.replace(small_easy_rec, samples=samples)
    with pytest.raises(DspError, match="channel PO7: zero variance"):
        preprocess(rec)


def test_preprocess_deterministic(small_easy_rec):
    a = preprocess(small_easy_rec)
    b = preprocess(small_easy_rec)
    assert a.samples.tobytes() == b.samples.tobytes()


def test_preprocess_activity_standardized(small_easy_pre):
    pre = small_easy_pre
    act = np.concatenate(
        [pre.samples[:, pre.phase_slice(b, "activity")] for b in range(pre.n_blocks)],
        axis=1,
    )
    np.testing.assert_allclose(act.mean(axis=1), 0.0, atol=1e-9)
    np.testing.assert_allclose(act.std(axis=1), 1.0, atol=1e-9)


def test_preprocess_removes_generator_spikes(small_easy_rec, small_easy_pre):
    truth = small_easy_rec.extra["synth_truth"]["spike_samples"]
    for c, ch in enumerate(small_easy_pre.channels):
        pos = np.array(truth[ch])
        assert np.all(np.abs(small_easy_pre.samples[c, pos]) < 6.0), ch


def test_preprocess_annotations_unchanged(small_easy_rec, small_easy_pre):
    assert small_easy_pre.extra["preprocessed"] is True
    np.testing.assert_array_equal(small_easy_pre.block, small_easy_rec.block)
    np.testing.assert_array_equal(small_easy_pre.trial, small_easy_rec.trial)
    assert small_easy_pre.block_labels == small_easy_rec.block_labels


# -- analytic envelope ------------------------------------------------------------------


ALPHA = BandDefinition("alpha", 8.0, 14.0)


def test_envelope_of_tone_is_its_amplitude():
    t = np.arange(int(6 * FS)) / FS
    x = 2.0 * np.cos(2.0 * np.pi * 10.0 * t)
    env = analytic_envelope(x, ALPHA, FS)
    interior = env[int(0.5 * FS) : -int(0.5 * FS)]
    assert np.max(np.abs(interior - 2.0)) < 0.04  # within 2% of 2.0


def test_envelope_zero_signal():
    env = analytic_envelope(np.zeros(1000), ALPHA, FS)
    np.testing.assert_array_equal(env, np.zeros(1000))


def test_envelope_tracks_am_modulator():
    t = np.arange(int(8 * FS)) / FS
    modulator = 1.0 + 0.5 * np.cos(2.0 * np.pi * 1.0 * t)
    x = modulator * np.cos(2.0 * np.pi * 10.0 * t)
    env = analytic_envelope(x, ALPHA, FS)
    sl = slice(int(0.5 * FS), -int(0.5 * FS))
    r = np.corrcoef(env[sl], modulator[sl])[0, 1]
    assert r > 0.95


def test_envelope_sign_flip_invariant():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2000)
    a = analytic_envelope(x, ALPHA, FS)
    b = analytic_envelope(-x, ALPHA, FS)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_envelope_band_validation():
    with pytest.raises(DspError):
        analytic_envelope(np.zeros(1000), BandDefinition("bad", 30.0, 140.0), FS)
    with pytest.raises(DspError):
        analytic_envelope(np.zeros(32), ALPHA, FS)
    # an upper edge at Nyquist has no stable band-pass design
    with pytest.raises(DspError, match="hi < fs/2"):
        analytic_envelope(np.zeros(1000), BandDefinition("top", 100.0, 125.0), FS)
