import numpy as np
import pytest
from scipy import stats

from attndecode import RecordingError, SynthConfig, synthesize, write_recording
from attndecode.recording import CHANNELS


def band_power(trial: np.ndarray, fs: float, lo: float, hi: float) -> float:
    """Periodogram band power oracle, independent of the dsp module."""
    spec = np.abs(np.fft.rfft(trial)) ** 2
    f = np.fft.rfftfreq(len(trial), 1.0 / fs)
    return float(spec[(f >= lo) & (f < hi)].sum())


def trial_matrix(rec, channel: str) -> tuple[np.ndarray, np.ndarray]:
    c = rec.channels.index(channel)
    window = rec.trial_starts().reshape(-1, 1) + np.arange(int(rec.fs))
    labs = np.repeat(rec.block_labels, rec.trials_per_block)
    return rec.samples[c, window], labs


def test_determinism_identical_output(tmp_path):
    cfg = SynthConfig(n_blocks=2, trials_per_block=8, seed=1)
    a = synthesize(cfg)
    b = synthesize(cfg)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.block_labels == b.block_labels
    assert a.extra == b.extra
    write_recording(a, tmp_path / "a")
    write_recording(b, tmp_path / "b")
    assert (tmp_path / "a" / "recording.csv").read_bytes() == (
        tmp_path / "b" / "recording.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "meta.json").read_bytes() == (
        tmp_path / "b" / "meta.json"
    ).read_bytes()


def test_different_seeds_differ():
    a = synthesize(SynthConfig(n_blocks=2, trials_per_block=8, seed=1))
    b = synthesize(SynthConfig(n_blocks=2, trials_per_block=8, seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_label_balance():
    rec = synthesize(SynthConfig(n_blocks=6, trials_per_block=5, seed=4))
    labs = list(rec.block_labels)
    assert labs.count("face") == labs.count("scene") == 3
    n_face = sum(
        rec.trials_per_block for b in range(6) if rec.block_labels[b] == "face"
    )
    assert n_face == rec.n_trials // 2


def test_null_preset_classes_indistinguishable():
    rec = synthesize(SynthConfig(n_blocks=4, trials_per_block=20, seed=11, snr_preset="null"))
    for ch in CHANNELS:
        rows, labs = trial_matrix(rec, ch)
        power = np.mean(rows**2, axis=1)
        t, p = stats.ttest_ind(power[labs == "face"], power[labs == "scene"])
        assert p > 0.01, f"channel {ch}: p={p}"


def test_easy_preset_theta_boost_on_face():
    rec = synthesize(SynthConfig(n_blocks=4, trials_per_block=20, seed=12))
    for ch in ("PO7", "PO8"):
        rows, labs = trial_matrix(rec, ch)
        theta = np.array([band_power(r, rec.fs, 4.0, 8.0) for r in rows])
        assert theta[labs == "face"].mean() > theta[labs == "scene"].mean()


def test_easy_preset_alpha_boost_on_scene():
    rec = synthesize(SynthConfig(n_blocks=4, trials_per_block=20, seed=12))
    for ch in ("PO7", "Oz", "PO8"):
        rows, labs = trial_matrix(rec, ch)
        alpha = np.array([band_power(r, rec.fs, 8.0, 14.0) for r in rows])
        assert alpha[labs == "scene"].mean() > alpha[labs == "face"].mean()


def test_hard_preset_weak_but_present():
    # detectable at full protocol size, far smaller than the easy contrast
    hard = synthesize(SynthConfig(n_blocks=8, trials_per_block=40, seed=13, snr_preset="hard"))
    rows, labs = trial_matrix(hard, "PO7")
    theta = np.array([band_power(r, hard.fs, 4.0, 8.0) for r in rows])
    hard_ratio = theta[labs == "face"].mean() / theta[labs == "scene"].mean()
    assert 1.05 < hard_ratio < 2.0

    easy = synthesize(SynthConfig(n_blocks=4, trials_per_block=20, seed=13))
    rows, labs = trial_matrix(easy, "PO7")
    theta = np.array([band_power(r, easy.fs, 4.0, 8.0) for r in rows])
    easy_ratio = theta[labs == "face"].mean() / theta[labs == "scene"].mean()
    assert easy_ratio > 2.0 * hard_ratio


def test_erp_deflection_timing():
    rec = synthesize(SynthConfig(n_blocks=6, trials_per_block=20, seed=13))
    rows, labs = trial_matrix(rec, "PO7")
    face_mean = rows[labs == "face"].mean(axis=0)
    scene_mean = rows[labs == "scene"].mean(axis=0)
    diff = face_mean - scene_mean
    peak_ms = 1000.0 * np.argmin(diff) / rec.fs
    assert 120.0 <= peak_ms <= 220.0  # negative deflection near 170 ms
    assert diff.min() < -1.0


def test_spike_truth_recorded():
    rec = synthesize(SynthConfig(n_blocks=2, trials_per_block=8, seed=5))
    truth = rec.extra["synth_truth"]["spike_samples"]
    n_expected = int(round(0.001 * rec.n_samples))
    for ch in CHANNELS:
        pos = truth[ch]
        assert len(pos) == n_expected
        assert all(0 <= p < rec.n_samples for p in pos)
    # spikes are visibly large in the raw signal
    c = rec.channels.index("Cz")
    pos = np.array(truth["Cz"])
    sigma = rec.samples[c].std()
    assert np.mean(np.abs(rec.samples[c, pos]) > 4.0 * sigma) > 0.8


def test_irrelevant_trials_recorded():
    rec = synthesize(SynthConfig(n_blocks=2, trials_per_block=40, seed=6))
    irr = rec.extra["synth_truth"]["irrelevant_trials"]
    assert set(irr) == {"0", "1"}
    for trials in irr.values():
        assert len(trials) == 4  # 10% of 40
        assert all(0 <= t < 40 for t in trials)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(n_blocks=3), "even"),
        (dict(n_blocks=0), "even"),
        (dict(trials_per_block=4), "trials_per_block"),
        (dict(snr_preset="impossible"), "snr_preset"),
    ],
)
def test_invalid_config(kwargs, match):
    with pytest.raises(RecordingError, match=match):
        SynthConfig(**kwargs)
