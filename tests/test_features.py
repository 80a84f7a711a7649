import functools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from attndecode import (
    FeatureError,
    SynthConfig,
    analytic_envelope,
    db_normalize,
    envelope_statistics,
    erp_epochs,
    hilbert_features,
    lda_fit,
    lda_project,
    load_feature_matrix,
    preprocess,
    synthesize,
    window_stats,
    write_feature_matrix,
)
from attndecode.dsp import baseline_correct, filtfilt, knn_smooth
from attndecode.features import (
    N_ERP_STAT_COLS,
    N_FEATURES,
    N_HILBERT_COLS,
    N_LDA_COLS,
    N_TF_COLS,
    _moments,
    column_names,
    load_tf_class_maps,
    parse_column,
    write_tf_class_maps,
)
from attndecode.recording import CHANNELS, CLASS_LABELS, DEFAULT_BANDS

from conftest import make_toy_recording
from test_dsp import butter_sos, fit_tone_amplitude, oracle_magnitude

FS = 250.0


# -- ERP epochs -----------------------------------------------------------------


def test_erp_epoch_shape(small_easy_pre):
    ep = erp_epochs(small_easy_pre)
    assert ep.data.shape == (16, 8, 50)
    assert np.array_equal(ep.labels, np.repeat(list(small_easy_pre.block_labels), 8))


def test_erp_zero_recording_gives_zero_epochs():
    rec = make_toy_recording(lambda t: np.zeros_like(t))
    ep = erp_epochs(rec)
    np.testing.assert_array_equal(ep.data, np.zeros_like(ep.data))


def test_erp_2hz_tone_survives_filter_and_decimation():
    rec = make_toy_recording(lambda t: np.sin(2.0 * np.pi * 2.0 * t))
    ep = erp_epochs(rec)
    # interior trial of block 0; tone amplitude measured at 50 Hz
    amp = fit_tone_amplitude(ep.data[2, 0], 2.0, 50.0)
    expected = oracle_magnitude(butter_sos(4, 1.0, 4.0, FS), 2.0, FS) ** 2
    assert amp == pytest.approx(expected, rel=0.02)
    assert abs(amp - 1.0) < 0.05


def test_erp_decimation_keeps_every_fifth_sample():
    rec = make_toy_recording(lambda t: np.cos(2.0 * np.pi * 1.5 * t))
    ep = erp_epochs(rec)
    filtered = filtfilt(rec.samples[0], 4, 1.0, 4.0, FS)
    start = rec.trial_starts()[0, 1]
    np.testing.assert_allclose(ep.data[1, 0], filtered[start : start + int(FS) : 5], atol=1e-12)


def test_erp_requires_divisible_rate():
    rec = make_toy_recording(np.sin, fs=240)
    with pytest.raises(FeatureError, match="divisible"):
        erp_epochs(rec)


# -- window statistics ------------------------------------------------------------


def test_window_stats_constant_epoch():
    out = window_stats(np.full(50, 2.5))
    for w in range(7):
        np.testing.assert_array_equal(out[w * 6 : w * 6 + 6], [2.5, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_window_stats_sine_enumeration_oracle():
    # 2 Hz sine sampled at 50 Hz over 1 s
    x = np.sin(2.0 * np.pi * 2.0 * np.arange(50) / 50.0)
    out = window_stats(x)
    full = out[36:42]  # final window is (0, 1000) ms = all samples

    # independent enumeration oracle
    zc = sum(1 for i in range(49) if x[i] * x[i + 1] < 0)
    peaks = sum(1 for i in range(1, 49) if x[i] > x[i - 1] and x[i] > x[i + 1])
    assert full[4] == zc == 3
    assert full[5] == peaks == 2
    assert full[0] == pytest.approx(x.mean())
    assert full[1] == pytest.approx(x.var())
    assert full[2] == pytest.approx(x.std())
    assert full[3] == pytest.approx(x.max() - x.min())


def test_window_zero_to_fifty_ms_selects_three_samples():
    x = np.arange(50.0)
    out = window_stats(x)
    assert out[0] == pytest.approx(np.mean([0.0, 1.0, 2.0]))  # samples 0, 1, 2


def test_window_selection_rule_half_open():
    # (80, 210) ms at 20 ms steps selects t = 80..200 -> indices 4..10
    x = np.zeros(50)
    x[4:11] = 7.0
    out = window_stats(x)
    w1 = out[6:12]
    assert w1[0] == 7.0 and w1[1] == 0.0


def test_window_stats_translation_property():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(50)
    base = window_stats(x)
    shifted = window_stats(x + 5.0)
    for w in range(7):
        assert shifted[w * 6] == pytest.approx(base[w * 6] + 5.0, rel=1e-9)
        np.testing.assert_allclose(
            shifted[w * 6 + 1 : w * 6 + 4], base[w * 6 + 1 : w * 6 + 4], rtol=1e-7, atol=1e-9
        )
        assert shifted[w * 6 + 5] == base[w * 6 + 5]  # peak count


def test_window_stats_bad_epoch_length():
    with pytest.raises(FeatureError):
        window_stats(np.zeros(49))


def _kernel_rows(rng, n):
    """Random rows, a flat row and a sign-flipped copy of the first row."""
    rows = rng.standard_normal((6, n)) * rng.uniform(0.1, 50.0, (6, 1))
    return np.vstack((rows, np.full(n, 2.5), -rows[:1]))


@pytest.mark.parametrize(
    "kernel, n, n_out",
    [(window_stats, 50, 42), (envelope_statistics, 250, 6), (envelope_statistics, 17, 6),
     (functools.partial(analytic_envelope, band=DEFAULT_BANDS[1], fs=FS), 1000, 1000),
     (functools.partial(filtfilt, order=5, lo=0.4, hi=40.0, fs=FS), 1000, 1000),
     (functools.partial(knn_smooth, k=7), 300, 300),
     (lambda x: baseline_correct(x, x[..., 40:90]), 300, 300)],
    ids=["window_stats", "envelope_statistics", "envelope_statistics_odd", "analytic_envelope",
         "filtfilt", "knn_smooth", "baseline_correct"],
)
def test_stacked_kernels_equal_row_by_row_calls(kernel, n, n_out):
    # bit-equality, not a tolerance: the feature artifacts are defined by the
    # per-slice values
    rows = _kernel_rows(np.random.default_rng(21), n)
    expected = np.array([kernel(r) for r in rows])
    assert expected.shape == (len(rows), n_out)
    assert np.array_equal(kernel(rows), expected)
    assert kernel(rows).flags.c_contiguous
    assert np.array_equal(kernel(rows.reshape(2, 4, n)), expected.reshape(2, 4, n_out))


# -- per-channel LDA ---------------------------------------------------------------


def _clusters(rng, n, dim, gap):
    face = rng.standard_normal((n, dim))
    scene = rng.standard_normal((n, dim))
    face[:, 3] += gap
    scene[:, 3] -= gap
    x = np.vstack([face, scene])
    is_face = np.repeat([True, False], n)
    return x, is_face


def test_lda_separable_clusters_project_with_opposite_signs():
    rng = np.random.default_rng(1)
    x, is_face = _clusters(rng, 60, 50, gap=2.0)
    w, b = lda_fit(x, is_face)
    proj = lda_project(w, b, x)
    assert proj[is_face].mean() > 0 > proj[~is_face].mean()


def test_lda_null_distribution_gap_below_noise_floor():
    rng = np.random.default_rng(2)
    x_null = rng.standard_normal((200, 50))
    is_face = np.repeat([True, False], 100)
    w_null, b_null = lda_fit(x_null, is_face)
    proj = lda_project(w_null, b_null, x_null)
    gap_null = abs(proj[is_face].mean() - proj[~is_face].mean())
    assert gap_null < proj.std()  # gap within the projection noise floor

    x_sep, is_face_sep = _clusters(rng, 100, 50, gap=2.0)
    w_sep, _ = lda_fit(x_sep, is_face_sep)
    assert np.linalg.norm(w_null) < 0.2 * np.linalg.norm(w_sep)


def test_lda_matches_pseudoinverse_oracle():
    rng = np.random.default_rng(3)
    x, is_face = _clusters(rng, 40, 50, gap=1.0)
    w, b = lda_fit(x, is_face)

    mu_f = x[is_face].mean(axis=0)
    mu_s = x[~is_face].mean(axis=0)
    sw = np.zeros((50, 50))
    for grp, mu in ((x[is_face], mu_f), (x[~is_face], mu_s)):
        d = grp - mu
        sw += d.T @ d
    lam = 1e-3 * np.trace(sw) / 50
    w_oracle = np.linalg.pinv(sw + lam * np.eye(50)) @ (mu_f - mu_s)
    cos = w @ w_oracle / (np.linalg.norm(w) * np.linalg.norm(w_oracle))
    assert cos > 0.999
    assert b == pytest.approx(-0.5 * float(w @ (mu_f + mu_s)), rel=1e-9)


def test_lda_single_class_rejected():
    x = np.random.default_rng(0).standard_normal((10, 50))
    with pytest.raises(FeatureError, match="single class"):
        lda_fit(x, np.ones(10, dtype=bool))


def test_lda_scaling_leaves_projection_signs():
    rng = np.random.default_rng(4)
    x, is_face = _clusters(rng, 50, 50, gap=1.5)
    w1, b1 = lda_fit(x, is_face)
    w4, b4 = lda_fit(4.0 * x, is_face)
    s1 = np.sign(lda_project(w1, b1, x))
    s4 = np.sign(lda_project(w4, b4, 4.0 * x))
    np.testing.assert_array_equal(s1, s4)


# -- dB normalization and TF features --------------------------------------------------


def test_db_identity_when_activity_equals_baseline():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.5, 2.0, size=40)
    power = np.tile(base[:, None], (1, 250))
    db = db_normalize(power, base)
    np.testing.assert_array_equal(db, np.zeros((40, 250)))


def test_db_ten_times_baseline_is_ten_db():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.5, 2.0, size=40)
    power = 10.0 * np.tile(base[:, None], (1, 250))
    db = db_normalize(power, base)
    np.testing.assert_allclose(db, 10.0, rtol=0, atol=1e-9)


def test_db_floor_prevents_infinities():
    db = db_normalize(np.zeros((3, 4)), np.zeros(3))
    np.testing.assert_array_equal(db, np.zeros((3, 4)))
    db = db_normalize(np.ones((1, 2)), np.zeros(1))
    assert np.all(np.isfinite(db))


def test_tf_face_trials_peak_in_theta_on_po7(twoblock_full_fm):
    fm = twoblock_full_fm
    col = fm.columns.index("tf:PO7:peak_freq")
    face_peaks = fm.values[fm.is_face, col]
    frac_theta = np.mean((face_peaks >= 4.0) & (face_peaks <= 8.0))
    assert frac_theta > 0.5


def test_tf_scale_invariance_of_db_maps(small_easy_pre):
    from attndecode.features import _tf_extract

    rec = small_easy_pre
    scaled = np.array(rec.samples)
    sl = rec.block_slice(0)
    scaled[:, sl] = 3.0 * scaled[:, sl]
    import dataclasses

    rec3 = dataclasses.replace(rec, samples=scaled)
    a, _ = _tf_extract(rec)
    b, _ = _tf_extract(rec3)
    block0 = np.flatnonzero(np.arange(16) < 8)
    np.testing.assert_allclose(a[block0], b[block0], rtol=1e-9, atol=1e-9)


# -- Hilbert envelope features -----------------------------------------------------


def test_envelope_statistics_match_direct_oracle():
    seg = np.linspace(0.0, 5.0, 250)  # fixed ramp
    got = envelope_statistics(seg)

    n = len(seg)
    mean = sum(seg) / n
    med = (seg[124] + seg[125]) / 2.0
    var = sum((v - mean) ** 2 for v in seg) / n
    std = var**0.5
    skew = (sum((v - mean) ** 3 for v in seg) / n) / var**1.5
    energy = sum(v * v for v in seg)
    kurt = (sum((v - mean) ** 4 for v in seg) / n) / var**2 - 3.0
    np.testing.assert_allclose(
        got, [mean, med, std, skew, energy, kurt], rtol=1e-12, atol=1e-12
    )


def _exact_moments(row):
    """Exact mean, m2, skewness, |d|^3 scale (mean |d|^3 / m2^1.5) and
    kurtosis ratio m4 / m2^2 of a row of doubles, from Fractions; the two
    square roots are taken to 60 digits."""
    xs = [Fraction(float(v)) for v in row]
    n = len(xs)
    mu = sum(xs) / n
    d = [v - mu for v in xs]
    m2 = sum(v * v for v in d) / n
    with localcontext() as ctx:
        ctx.prec = 60
        norm3 = Decimal(m2.numerator) / Decimal(m2.denominator)
        norm3 *= norm3.sqrt()

        def standardized(m):
            return float(Decimal(m.numerator) / Decimal(m.denominator) / norm3)

        skew = standardized(sum(v**3 for v in d) / n)
        abs3 = standardized(sum(abs(v) ** 3 for v in d) / n)
    return float(mu), float(m2), skew, abs3, float(sum(v**4 for v in d) / n / (m2 * m2))


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 3e2, 1e6])
def test_moments_match_exact_rational_reference(scale):
    # Relative errors are taken against each moment's natural size: skewness
    # against mean |d|^3 / m2^1.5 (skewness itself can cancel to near 0), and
    # kurtosis as the ratio m4 / m2^2 before the 3 is taken off.
    rng = np.random.default_rng(int(scale * 1e6) % 9973)
    rows = [rng.standard_normal(n) * scale + rng.uniform(-3, 3) * scale
            for n in (5, 17, 50, 250)]
    rows += [rng.exponential(scale, 40), -rows[2]]
    for row in rows:
        mean, m2, skew, energy, kurt = _moments(row)
        e_mean, e_m2, e_skew, e_abs3, e_ratio = _exact_moments(row)
        np.testing.assert_allclose([mean, m2], [e_mean, e_m2], rtol=1e-14)
        assert abs(skew - e_skew) <= 1e-14 * e_abs3
        np.testing.assert_allclose(kurt + 3.0, e_ratio, rtol=1e-14)
        assert energy == np.sum(row * row)
    # negating a row negates mean and skewness exactly and keeps the rest
    a, b = _moments(rows[2]), _moments(rows[-1])
    assert (a[0], a[2]) == (-b[0], -b[2]) and (a[1], a[3], a[4]) == (b[1], b[3], b[4])


def test_moments_flat_slice_rule_on_tf_layout():
    # _tf_extract passes [trials, freqs * time]: a flat trial gets skewness and
    # kurtosis 0, without a division by zero, and leaves the other rows alone
    db = np.random.default_rng(4).standard_normal((5, 6, 30)) * 4.0 - 2.0
    db[1] = -7.5
    db[3] = 0.0
    x = db.reshape(5, -1)
    with np.errstate(all="raise"):
        mean, m2, skew, energy, kurt = _moments(x)
    assert m2[1] == m2[3] == 0.0
    assert skew[1] == kurt[1] == skew[3] == kurt[3] == 0.0
    assert np.all(skew[[0, 2, 4]] != 0.0) and np.all(kurt[[0, 2, 4]] != 0.0)
    for i in range(5):
        assert np.array_equal(np.array(_moments(x[i])), np.array(_moments(x)).T[i])


def test_envelope_statistics_zero_variance_rule():
    got = envelope_statistics(np.full(250, 1.5))
    assert got[3] == 0.0 and got[5] == 0.0  # skew, kurtosis
    got = envelope_statistics(np.zeros(250))
    np.testing.assert_array_equal(got, np.zeros(6))


def test_hilbert_flat_tone_envelope(small_easy_pre):
    rec = make_toy_recording(lambda t: np.cos(2.0 * np.pi * 10.0 * t))
    feats = hilbert_features(rec)
    # alpha-band std / mean for channel 0, trial 1 (interior)
    cols = column_names()
    i_std = cols.index("hilb:Fz:alpha:std") - 400
    i_mean = cols.index("hilb:Fz:alpha:mean") - 400
    assert feats[1, i_std] < 0.02 * feats[1, i_mean]


def _envelope_means(feats):
    """[n_trials, channels, bands] envelope means of hilbert_features output."""
    return feats.reshape(len(feats), len(CHANNELS), len(DEFAULT_BANDS), -1)[..., 0]


def test_hilbert_matches_whole_block_sosfiltfilt_reference():
    # Reference: each whole block filtered by a forward-backward order-4 SOS
    # pass with 10 s of odd padding, then scipy's analytic signal. Edge trials
    # are where a per-trial or per-activity-segment filter goes wrong.
    from scipy.signal import hilbert, sosfiltfilt

    rec = preprocess(synthesize(SynthConfig(n_blocks=2, trials_per_block=8, seed=5)))
    fs_i = int(rec.fs)
    tpb = rec.trials_per_block
    expected = np.empty((rec.n_trials, len(CHANNELS), len(DEFAULT_BANDS)))
    for b in range(rec.n_blocks):
        whole = rec.block_slice(b)
        window = rec.trial_starts()[b, :, None] - whole.start + np.arange(fs_i)
        for k, band in enumerate(DEFAULT_BANDS):
            sos = butter_sos(4, band.lo, band.hi, rec.fs)
            y = sosfiltfilt(sos, rec.samples[:, whole], padtype="odd", padlen=10 * fs_i)
            env = np.abs(hilbert(y))
            expected[b * tpb : (b + 1) * tpb, :, k] = env[:, window].mean(axis=-1).T
    got = _envelope_means(hilbert_features(rec))
    np.testing.assert_allclose(got, expected, rtol=5e-3)


@pytest.mark.parametrize("band, tone_hz", [("delta", 2.0), ("theta", 5.0), ("alpha", 9.0)])
def test_hilbert_stationary_tone_same_on_every_trial(band, tone_hz):
    # the toy blocks last 9 s, so each tone is periodic in its block: every
    # trial, first and last included, sees the same envelope
    rec = make_toy_recording(lambda t: np.cos(2.0 * np.pi * tone_hz * t))
    k = [b.name for b in DEFAULT_BANDS].index(band)
    means = _envelope_means(hilbert_features(rec))[:, :, k]
    means = means.reshape(rec.n_blocks, rec.trials_per_block, len(CHANNELS))
    middle = means[:, rec.trials_per_block // 2][:, None]
    np.testing.assert_allclose(means, np.broadcast_to(middle, means.shape), rtol=5e-3)


def test_hilbert_zero_signal_all_zero_stats():
    rec = make_toy_recording(lambda t: np.zeros_like(t))
    feats = hilbert_features(rec)
    np.testing.assert_array_equal(feats, np.zeros_like(feats))


def test_hilbert_energy_sign_flip_invariant(small_easy_pre):
    import dataclasses

    rec = small_easy_pre
    flipped = dataclasses.replace(rec, samples=-np.array(rec.samples))
    a = hilbert_features(rec)
    b = hilbert_features(flipped)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


# -- assembly ---------------------------------------------------------------------


def test_feature_counts():
    assert N_ERP_STAT_COLS == 336
    assert N_LDA_COLS == 8
    assert N_TF_COLS == 56
    assert N_HILBERT_COLS == 240
    assert N_ERP_STAT_COLS + N_LDA_COLS == 344
    assert N_FEATURES == 640


def test_assemble_two_block_protocol_is_80_by_640(twoblock_full_fm):
    assert twoblock_full_fm.values.shape == (80, 640)
    assert np.isfinite(twoblock_full_fm.values).all()


def test_assemble_small_set_shape(small_easy_fm):
    assert small_easy_fm.values.shape == (16, 640)
    # LDA placeholder columns stay zero until fold time
    np.testing.assert_array_equal(small_easy_fm.values[:, 336:344], np.zeros((16, 8)))


def test_column_names_parse_back():
    names = column_names()
    assert len(names) == len(set(names)) == 640
    fams = []
    for name in names:
        family, channel, descriptor = parse_column(name)
        assert channel in CHANNELS
        assert descriptor
        fams.append(family)
    assert fams[:336] == ["erp"] * 336
    assert fams[336:344] == ["lda"] * 8
    assert fams[344:400] == ["tf"] * 56
    assert fams[400:] == ["hilb"] * 240


def test_parse_column_rejects_garbage():
    with pytest.raises(FeatureError):
        parse_column("nope:Fz:mean")
    with pytest.raises(FeatureError):
        parse_column("erp:XX:mean")
    with pytest.raises(FeatureError):
        parse_column("erp:Fz")


def test_erp_window_columns_match_window_stats(small_easy_pre, small_easy_fm):
    ep = erp_epochs(small_easy_pre)
    expected = window_stats(ep.data[5, 2])
    np.testing.assert_allclose(small_easy_fm.values[5, 2 * 42 : 3 * 42], expected, rtol=1e-12)


def test_feature_matrix_roundtrip(tmp_path, small_easy_fm):
    write_feature_matrix(small_easy_fm, tmp_path)
    fm = load_feature_matrix(tmp_path)
    np.testing.assert_array_equal(fm.values, small_easy_fm.values)
    np.testing.assert_array_equal(fm.labels, small_easy_fm.labels)
    np.testing.assert_array_equal(fm.block_of, small_easy_fm.block_of)
    np.testing.assert_array_equal(fm.erp.data, small_easy_fm.erp.data)
    assert fm.columns == small_easy_fm.columns


def test_load_feature_matrix_missing_artifact(tmp_path):
    with pytest.raises(FeatureError, match="missing artifact"):
        load_feature_matrix(tmp_path)


def _tf_maps_dir(tmp_path):
    rng = np.random.default_rng(22)
    maps = {ch: {lab: rng.standard_normal((3, 4)) for lab in CLASS_LABELS} for ch in CHANNELS}
    write_tf_class_maps(maps, np.array([4.0, 6.5, 9.0]), tmp_path)
    return maps


def test_tf_class_maps_roundtrip(tmp_path):
    maps = _tf_maps_dir(tmp_path)
    loaded, freqs = load_tf_class_maps(tmp_path)
    np.testing.assert_array_equal(freqs, [4.0, 6.5, 9.0])
    assert list(loaded) == list(CHANNELS)
    for ch in CHANNELS:
        for lab in CLASS_LABELS:
            np.testing.assert_array_equal(loaded[ch][lab], maps[ch][lab])


def _set_field(row, pos, value):
    def edit(lines):
        parts = lines[row].split(",")
        parts[pos] = value
        return lines[:row] + [",".join(parts)] + lines[row + 1 :]

    return edit


@pytest.mark.parametrize(
    "name, edit, message",
    [
        # a label outside face/scene must not be truncated and read as scene
        ("features.csv", _set_field(2, -2, "scenery"), r"features\.csv:3: label 'scenery'"),
        ("features.csv", _set_field(3, 7, "n/a"), r"features\.csv:4: could not convert"),
        ("erp_epochs.csv", _set_field(4, -1, "x"), r"erp_epochs\.csv:5: invalid literal"),
        ("erp_epochs.csv", lambda ls: ls[:-1], r"erp_epochs\.csv: 15 trials, .* has 16"),
        # same trial count, but the epochs belong to other trials
        ("erp_epochs.csv", lambda ls: ls[:1] + ls[9:17] + ls[1:9],
         r"erp_epochs\.csv:2: trial \(\w+, block 1\) does not match .*features\.csv:2"),
    ],
    ids=["unknown_label", "non_numeric", "bad_block", "fewer_epochs", "epochs_misaligned"],
)
def test_load_feature_matrix_rejects_bad_rows(tmp_path, small_easy_fm, name, edit, message):
    write_feature_matrix(small_easy_fm, tmp_path)
    path = tmp_path / name
    lines = edit(path.read_text().rstrip("\n").split("\n"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FeatureError, match=message):
        load_feature_matrix(tmp_path)


@pytest.mark.parametrize(
    "name, row, pos, value",
    [("features.csv", 2, 5, "inf"), ("erp_epochs.csv", 3, 0, "nan")],
    ids=["features_inf", "epochs_nan"],
)
def test_load_feature_matrix_rejects_non_finite_cells(
    tmp_path, small_easy_fm, name, row, pos, value
):
    write_feature_matrix(small_easy_fm, tmp_path)
    path = tmp_path / name
    lines = _set_field(row, pos, value)(path.read_text().rstrip("\n").split("\n"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FeatureError, match=rf"{name}:{row + 1}: non-finite \S+ = {value}$"):
        load_feature_matrix(tmp_path)


# tf_class_means.csv rows: header, then channel x label x 3 frequencies in
# CHANNELS x CLASS_LABELS order, so PO8 (the last channel) owns the last 6 rows
@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_field(4, 5, "abc"), r"tf_class_means\.csv:5: could not convert string"),
        (lambda ls: ls[:3] + [ls[3] + ",0.5"] + ls[4:], r"tf_class_means\.csv:4: 8 fields"),
        (lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0]] + ls[3:],
         r"tf_class_means\.csv:3: 6 fields, expected 7"),
        (lambda ls: ls[:-6], r"no rows for channel PO8, label face"),
        (_set_field(9, 0, "T7"), r"tf_class_means\.csv:10: unknown channel/label pair \(T7"),
        (_set_field(8, 2, "6.0"), r"frequency column of C3/face differs from Fz/face"),
        (lambda ls: ls[:-1], r"frequency column of PO8/scene differs"),
    ],
    ids=["non_numeric", "extra_field", "ragged_row", "missing_channel", "unknown_channel",
         "freqs_differ", "missing_freq_row"],
)
def test_load_tf_class_maps_rejects_bad_rows(tmp_path, edit, message):
    _tf_maps_dir(tmp_path)
    path = tmp_path / "tf_class_means.csv"
    lines = edit(path.read_text().rstrip("\n").split("\n"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FeatureError, match=message):
        load_tf_class_maps(tmp_path)


def test_assemble_reports_non_finite(monkeypatch, small_easy_pre):
    import attndecode.features as fmod

    real = fmod.hilbert_features

    def poisoned(rec):
        out = real(rec)
        out[3, 17] = np.nan
        return out

    monkeypatch.setattr(fmod, "hilbert_features", poisoned)
    with pytest.raises(FeatureError, match="non-finite hilb feature"):
        fmod.extract_features(small_easy_pre)
