"""Synthetic EEG generator for exercising the pipeline without human data.

Each block is cue (5 s) -> grey baseline (7 s) -> 1 s stimulus trials ->
rest (10 s). All channels ride on 1/f noise with sparse large-amplitude
spikes. Face blocks add a negative deflection peaking ~170 ms after each
stimulus onset on PO7/PO8 plus a theta-band burst; scene blocks add an
alpha-band burst on the occipital channels. The null preset adds no
class-dependent component at all, so face and scene trials are draws from
the same distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .recording import CHANNELS, NO_LABEL, NO_TRIAL, Recording, RecordingError

FS_HZ = 250.0
CUE_SECONDS = 5
BASELINE_SECONDS = 7
REST_SECONDS = 10

SNR_PRESETS = ("easy", "hard", "null")

# Fraction of samples hit by amplitude spikes, and their size range in units
# of the channel's std. Large enough to exercise MAD repair, rare enough not
# to dominate.
SPIKE_FRACTION = 0.001
SPIKE_RANGE_STD = (8.0, 15.0)

# Per-preset amplitudes (microvolts) of the class-dependent components,
# relative to ~10 uV 1/f background noise.
_PRESET_GAINS = {
    "easy": {"erp": 8.0, "theta": 11.0, "alpha": 9.0},
    "hard": {"erp": 2.5, "theta": 3.0, "alpha": 3.0},
    "null": {"erp": 0.0, "theta": 0.0, "alpha": 0.0},
}

_NOISE_STD_UV = 10.0
_ERP_PEAK_S = 0.170
_ERP_WIDTH_S = 0.030
# Burst carriers sit low inside their bands: the wavelet bank's small cycle
# counts smear power upward in frequency, and the 1/f baseline makes the dB
# ratio grow with frequency, so a mid-band carrier would peak above its band.
_THETA_HZ = 5.0
_ALPHA_HZ = 10.0

# Channel weights for the class components. ERP is posterior-lateral,
# oscillatory boosts are occipital with a weaker parietal spread.
_ERP_WEIGHT = {"PO7": 1.0, "PO8": 1.0}
_THETA_WEIGHT = {"PO7": 1.0, "PO8": 1.0, "Oz": 0.5, "Pz": 0.5}
_ALPHA_WEIGHT = {"PO7": 1.0, "PO8": 1.0, "Oz": 1.0}

# SART-style relevance manipulation: rare task-irrelevant composites. The
# fraction is recorded in the dataset metadata but does not affect labels.
IRRELEVANT_FRACTION = 0.1


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; identical configs give byte-identical datasets."""

    n_blocks: int = 8
    trials_per_block: int = 40
    snr_preset: str = "easy"
    seed: int = 0
    subject_id: str = "synth"

    def __post_init__(self):
        if self.n_blocks < 2 or self.n_blocks % 2 != 0:
            raise RecordingError(f"n_blocks must be even and >= 2, got {self.n_blocks}")
        if self.trials_per_block < 5:
            raise RecordingError(
                f"trials_per_block must be >= 5, got {self.trials_per_block}"
            )
        if self.snr_preset not in SNR_PRESETS:
            raise RecordingError(
                f"snr_preset must be one of {SNR_PRESETS}, got {self.snr_preset!r}"
            )


def _pink_noise(
    rng: np.random.Generator, n: int, fs: float, pinned: bool = False
) -> np.ndarray:
    """1/f-power noise, unit std.

    pinned=True pins the amplitude spectrum exactly to the 1/f profile and
    randomizes phases only (spectral synthesis). Baseline segments use this
    so every block normalizes trial power against the same spectral floor;
    otherwise a block's random baseline-power estimate would stamp a
    block-identity fingerprint onto its trials' dB features.
    """
    f = np.fft.rfftfreq(n, 1.0 / fs)
    amp = np.zeros(len(f))
    amp[1:] = 1.0 / np.sqrt(f[1:])
    if pinned:
        phase = rng.uniform(0.0, 2.0 * np.pi, size=len(f))
        x = np.fft.irfft(amp * np.exp(1j * phase), n)
        return x / x.std()
    spec = np.fft.rfft(rng.standard_normal(n))
    x = np.fft.irfft(spec * amp, n)
    # scale by the ensemble std, not the realization's, so trial powers keep
    # their natural variation
    weight = np.full(len(f), 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    return x / np.sqrt((weight * amp**2).sum() / n)


def _trial_window(n: int) -> np.ndarray:
    """Cosine-tapered (10%) window to avoid discontinuities at trial edges."""
    w = np.ones(n)
    ramp = max(1, n // 10)
    edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    w[:ramp] = edge
    w[-ramp:] = edge[::-1]
    return w


def synthesize(cfg: SynthConfig) -> Recording:
    """Generate a deterministic synthetic recording for cfg.

    Ground truth needed by tests (spike positions, irrelevant-trial indices)
    is stored under the "synth_truth" key of the recording's extra metadata.
    """
    rng = np.random.default_rng(cfg.seed)
    fs = int(FS_HZ)
    n_t = cfg.trials_per_block
    block_len = (CUE_SECONDS + BASELINE_SECONDS + n_t + REST_SECONDS) * fs
    n_total = cfg.n_blocks * block_len
    n_ch = len(CHANNELS)
    gains = _PRESET_GAINS[cfg.snr_preset]

    # Balanced face/scene assignment, shuffled per seed.
    base = ["face", "scene"] * (cfg.n_blocks // 2)
    block_labels = tuple(base[i] for i in rng.permutation(cfg.n_blocks))

    # Rare irrelevant-subcategory composites, chosen per block.
    n_irr = int(round(IRRELEVANT_FRACTION * n_t))
    irrelevant = {
        b: sorted(int(i) for i in rng.choice(n_t, size=n_irr, replace=False))
        for b in range(cfg.n_blocks)
    }

    samples = np.empty((n_ch, n_total))
    block_ann = np.empty(n_total, dtype=np.int64)
    phase_ann = np.empty(n_total, dtype="U8")
    trial_ann = np.full(n_total, NO_TRIAL, dtype=np.int64)
    label_ann = np.full(n_total, NO_LABEL, dtype="U5")

    t_trial = np.arange(fs) / fs
    erp_shape = -np.exp(-0.5 * ((t_trial - _ERP_PEAK_S) / _ERP_WIDTH_S) ** 2)
    window = _trial_window(fs)

    # Every block shows the same cue texture and the same grey baseline, so
    # their background realizations are drawn once per channel and reused in
    # every block; activity noise is drawn independently per 1 s trial. This
    # makes trials exchangeable across blocks: all block-level quantities the
    # pipeline derives (baseline means, baseline power spectra) are constant,
    # and trial-level CV on the null preset cannot memorize block noise
    # fingerprints instead of class structure.
    cue_wave = [
        _NOISE_STD_UV * _pink_noise(rng, CUE_SECONDS * fs, FS_HZ) for _ in range(n_ch)
    ]
    base_wave = [
        _NOISE_STD_UV * _pink_noise(rng, BASELINE_SECONDS * fs, FS_HZ, pinned=True)
        for _ in range(n_ch)
    ]
    rest_wave = [
        _NOISE_STD_UV * _pink_noise(rng, REST_SECONDS * fs, FS_HZ) for _ in range(n_ch)
    ]

    for b in range(cfg.n_blocks):
        start = b * block_len
        act_start = start + (CUE_SECONDS + BASELINE_SECONDS) * fs
        for c in range(n_ch):
            samples[c, start : start + CUE_SECONDS * fs] = cue_wave[c]
            samples[c, start + CUE_SECONDS * fs : act_start] = base_wave[c]
            pos = act_start
            for _ in range(n_t):
                samples[c, pos : pos + fs] = _NOISE_STD_UV * _pink_noise(rng, fs, FS_HZ)
                pos += fs
            samples[c, pos : pos + REST_SECONDS * fs] = rest_wave[c]

        cursor = start
        for phase, dur_s in (
            ("cue", CUE_SECONDS),
            ("baseline", BASELINE_SECONDS),
            ("activity", n_t),
            ("rest", REST_SECONDS),
        ):
            n = dur_s * fs
            block_ann[cursor : cursor + n] = b
            phase_ann[cursor : cursor + n] = phase
            cursor += n

        lab = block_labels[b]
        for t in range(n_t):
            lo = act_start + t * fs
            trial_ann[lo : lo + fs] = t
            label_ann[lo : lo + fs] = lab
            if lab == "face":
                amp = gains["erp"] * (1.0 + 0.2 * rng.standard_normal())
                ph = rng.uniform(0.0, 2.0 * np.pi)
                burst = gains["theta"] * np.sin(2.0 * np.pi * _THETA_HZ * t_trial + ph)
                for name, w in _ERP_WEIGHT.items():
                    samples[CHANNELS.index(name), lo : lo + fs] += w * amp * erp_shape
                for name, w in _THETA_WEIGHT.items():
                    samples[CHANNELS.index(name), lo : lo + fs] += w * burst * window
            else:
                ph = rng.uniform(0.0, 2.0 * np.pi)
                burst = gains["alpha"] * np.sin(2.0 * np.pi * _ALPHA_HZ * t_trial + ph)
                for name, w in _ALPHA_WEIGHT.items():
                    samples[CHANNELS.index(name), lo : lo + fs] += w * burst * window

    # Spikes land in the rest phase, past a guard gap after the last trial.
    # The preprocessing chain filters before despiking, so a spike leaves a
    # ~1 s broadband ripple that point repair cannot fully remove; placed in
    # rest it exercises MAD repair without stamping ripples onto analyzed
    # segments (activity trials) or shared normalizers (baseline windows).
    guard = int(round(1.5 * fs))
    rest_offset = (CUE_SECONDS + BASELINE_SECONDS + n_t) * fs
    allowed = np.concatenate(
        [
            np.arange(b * block_len + rest_offset + guard, (b + 1) * block_len)
            for b in range(cfg.n_blocks)
        ]
    )
    spike_samples: dict[str, list[int]] = {}
    n_spikes = int(round(SPIKE_FRACTION * n_total))
    for c, name in enumerate(CHANNELS):
        pos = np.sort(rng.choice(allowed, size=n_spikes, replace=False))
        mag = rng.uniform(*SPIKE_RANGE_STD, size=n_spikes)
        sign = rng.choice((-1.0, 1.0), size=n_spikes)
        samples[c, pos] += sign * mag * samples[c].std()
        spike_samples[name] = [int(p) for p in pos]

    extra = {
        "snr_preset": cfg.snr_preset,
        "seed": cfg.seed,
        "synth_truth": {
            "irrelevant_trials": {str(b): v for b, v in irrelevant.items()},
            "spike_samples": spike_samples,
        },
    }
    return Recording(
        subject_id=cfg.subject_id,
        fs=FS_HZ,
        channels=CHANNELS,
        samples=samples,
        block=block_ann,
        phase=phase_ann,
        trial=trial_ann,
        label=label_ann,
        block_labels=block_labels,
        extra=extra,
    )
