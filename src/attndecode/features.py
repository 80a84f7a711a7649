"""Trial feature extraction: ERP window statistics, per-channel Fisher LDA,
Morlet time-frequency features with dB baseline normalization, and Hilbert
envelope band statistics.

Per trial the assembled matrix holds 640 columns: 8 channels x (7 windows x
6 stats) = 336 ERP statistics, 8 LDA projection columns, 8 x 7 = 56
time-frequency features, and 8 channels x 5 bands x 6 stats = 240 envelope
features. The LDA columns are placeholders here: they are fit inside each
cross-validation training fold (see evaluate) so no label information leaks
into held-out trials.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import read_csv, read_header, write_csv
from .dsp import DspError, analytic_envelope, design_butterworth_bandpass, filtfilt
from .recording import CHANNELS, CLASS_LABELS, DEFAULT_BANDS, Recording
from .wavelets import build_wavelet_bank, cwt_power

log = logging.getLogger(__name__)

ERP_BAND = (1.0, 4.0)
ERP_FILTER_ORDER = 4
ERP_FS_OUT = 50.0
ERP_SAMPLES = 50

ERP_STATS = ("mean", "var", "std", "ptp", "zcross", "peaks")
TF_STATS = ("mean", "var", "peak_freq", "peak_mag", "skew", "energy", "kurt")
HILBERT_STATS = ("mean", "median", "std", "skew", "energy", "kurt")

# Power below this is clamped before the activity/baseline ratio so the dB
# map stays finite.
DB_POWER_FLOOR = 1e-12

# ERP analysis windows in ms, [start, end) each: early response, four
# mid-range windows, an extended period, and the full epoch.
ERP_WINDOWS_MS = (
    (0, 50), (80, 210), (240, 350), (400, 500), (520, 630), (650, 900), (0, 1000)
)

# The windows as basic slices of the epoch (sample k is at k / ERP_FS_OUT s);
# a basic slice keeps each row's reductions bit-equal to a 1-D call.
_ERP_WINDOW_SLICES = tuple(
    slice(math.ceil(start * ERP_FS_OUT / 1000), math.ceil(end * ERP_FS_OUT / 1000))
    for start, end in ERP_WINDOWS_MS
)

N_ERP_STAT_COLS = len(CHANNELS) * len(ERP_WINDOWS_MS) * len(ERP_STATS)  # 336
N_LDA_COLS = len(CHANNELS)  # 8
N_TF_COLS = len(CHANNELS) * len(TF_STATS)  # 56
N_HILBERT_COLS = len(CHANNELS) * len(DEFAULT_BANDS) * len(HILBERT_STATS)  # 240
N_FEATURES = N_ERP_STAT_COLS + N_LDA_COLS + N_TF_COLS + N_HILBERT_COLS  # 640

LDA_COL_START = N_ERP_STAT_COLS
TF_COL_START = LDA_COL_START + N_LDA_COLS
HILBERT_COL_START = TF_COL_START + N_TF_COLS


class FeatureError(ValueError):
    """Feature extraction received invalid input or produced invalid output."""


@dataclass(frozen=True, eq=False)
class ErpEpochs:
    """Per-trial, per-channel 1-4 Hz epochs downsampled to 50 samples."""

    data: np.ndarray  # [n_trials, n_channels, ERP_SAMPLES]
    labels: np.ndarray
    block_of: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[2] != ERP_SAMPLES:
            raise FeatureError(
                f"epochs must be [n, n_channels, {ERP_SAMPLES}], got {self.data.shape}"
            )

    @property
    def n_trials(self) -> int:
        return self.data.shape[0]


def erp_epochs(rec: Recording) -> ErpEpochs:
    """1-4 Hz filter all channels, slice activity trials, decimate to 50 Hz.

    The 4 Hz cutoff is far below the 25 Hz post-decimation Nyquist, so
    keeping every fs/50-th sample needs no extra anti-alias filter.
    """
    fs_i = int(round(rec.fs))
    if fs_i % int(ERP_FS_OUT) != 0:
        raise FeatureError(f"fs={rec.fs} is not divisible by {int(ERP_FS_OUT)}")
    decim = fs_i // int(ERP_FS_OUT)
    filt = design_butterworth_bandpass(ERP_FILTER_ORDER, *ERP_BAND, fs=rec.fs)
    filtered = filtfilt(filt, rec.samples)

    starts = rec.trial_starts().ravel()
    gathered = filtered[:, starts[:, None] + np.arange(0, fs_i, decim)]
    return ErpEpochs(
        data=np.ascontiguousarray(gathered.transpose(1, 0, 2)),
        labels=np.repeat(np.array(rec.block_labels, dtype="U5"), rec.trials_per_block),
        block_of=np.repeat(np.arange(rec.n_blocks, dtype=np.int64), rec.trials_per_block),
    )


def window_stats(epochs: np.ndarray) -> np.ndarray:
    """The 6 statistics per ERP window of channel epochs, [..., 50] -> [..., 42].

    Per window, in order: mean, population variance, population std,
    peak-to-peak, zero crossings (consecutive pairs with strictly negative
    product), and strict interior local maxima.
    """
    epochs = np.asarray(epochs, float)
    if epochs.ndim < 1 or epochs.shape[-1] != ERP_SAMPLES:
        raise FeatureError(f"epochs must end in {ERP_SAMPLES} samples, got {epochs.shape}")
    stats = []
    for window in _ERP_WINDOW_SLICES:
        seg = epochs[..., window]
        mid = seg[..., 1:-1]
        var = seg.var(axis=-1)
        stats += (
            seg.mean(axis=-1),
            var,
            np.sqrt(var),
            seg.max(axis=-1) - seg.min(axis=-1),
            np.sum(seg[..., :-1] * seg[..., 1:] < 0.0, axis=-1),
            np.sum((mid > seg[..., :-2]) & (mid > seg[..., 2:]), axis=-1),
        )
    return np.stack(stats, axis=-1).astype(float)


# -- Fisher LDA (one projection per channel) --------------------------------


def lda_fit(epochs: np.ndarray, is_face: np.ndarray) -> tuple[np.ndarray, float]:
    """Fisher discriminant for one channel's training epochs [n, 50].

    w solves (S_w + lambda I) w = mu_face - mu_scene with the ridge term
    lambda = 1e-3 tr(S_w)/dim; the bias centers the projected class means
    around zero so face projects positive.
    """
    epochs = np.asarray(epochs, float)
    is_face = np.asarray(is_face, bool)
    if epochs.ndim != 2:
        raise FeatureError(f"epochs must be 2-D, got shape {epochs.shape}")
    if is_face.all() or not is_face.any():
        raise FeatureError("training labels contain a single class")
    face = epochs[is_face]
    scene = epochs[~is_face]
    mu_f = face.mean(axis=0)
    mu_s = scene.mean(axis=0)
    dim = epochs.shape[1]
    sw = np.zeros((dim, dim))
    for grp, mu in ((face, mu_f), (scene, mu_s)):
        d = grp - mu
        sw += d.T @ d
    lam = 1e-3 * np.trace(sw) / dim
    try:
        w = np.linalg.solve(sw + lam * np.eye(dim), mu_f - mu_s)
    except np.linalg.LinAlgError as e:
        raise FeatureError(f"singular within-class scatter: {e}") from e
    b = -0.5 * float(w @ (mu_f + mu_s))
    return w, b


def lda_project(w: np.ndarray, b: float, epochs: np.ndarray) -> np.ndarray:
    """Project epochs [n, 50] (or one epoch) onto a fitted discriminant."""
    return np.asarray(epochs, float) @ w + b


# -- statistics helpers ------------------------------------------------------


def _moments(x: np.ndarray):
    """Mean, variance, skewness, energy and excess kurtosis over the last
    axis; a flat slice (zero variance) has skewness and kurtosis 0."""
    # Products, sqrt and division only: each is exactly rounded, so the bits
    # do not depend on which SIMD path numpy takes (array ** does).
    mean = x.mean(axis=-1)
    d = x - mean[..., None]
    d2 = d * d
    m2 = d2.mean(axis=-1)
    flat = m2 == 0.0
    safe = np.where(flat, 1.0, m2)
    skew = np.where(flat, 0.0, (d2 * d).mean(axis=-1) / (safe * np.sqrt(safe)))
    kurt = np.where(flat, 0.0, (d2 * d2).mean(axis=-1) / (safe * safe) - 3.0)
    return mean, m2, skew, np.sum(x * x, axis=-1), kurt


# -- time-frequency features -------------------------------------------------


def db_normalize(power: np.ndarray, baseline_power: np.ndarray) -> np.ndarray:
    """Power maps [..., n_freqs, n_t] to dB relative to per-frequency
    baseline power.

    dB = 10 log10(activity / baseline); values below DB_POWER_FLOOR are
    clamped first so the map stays finite.
    """
    power = np.maximum(np.asarray(power, float), DB_POWER_FLOOR)
    baseline_power = np.asarray(baseline_power, float).reshape(-1, 1)
    return 10.0 * np.log10(power / np.maximum(baseline_power, DB_POWER_FLOOR))


def _tf_extract(rec: Recording):
    """[n_trials, 56] statistics of per-trial dB maps (7 per channel), plus
    {channel: {label: mean dB map}} for the report heatmaps."""
    bank = build_wavelet_bank(fs=rec.fs)
    fs_i = int(round(rec.fs))
    edge = fs_i // 2  # 0.5 s trimmed from each end of the baseline
    tpb = rec.trials_per_block
    feats = np.empty((rec.n_trials, N_TF_COLS))
    map_sum = {
        ch: {lab: np.zeros((bank.n_freqs, fs_i)) for lab in CLASS_LABELS}
        for ch in rec.channels
    }
    n_floored = 0

    for b in range(rec.n_blocks):
        whole = rec.block_slice(b)
        base = rec.phase_slice(b, "baseline")
        if base.stop - base.start <= 2 * edge:
            raise FeatureError(f"block {b} baseline too short to trim 0.5 s per edge")
        b0 = base.start - whole.start + edge
        b1 = base.stop - whole.start - edge
        window = rec.trial_starts()[b, :, None] - whole.start + np.arange(fs_i)
        rows = slice(b * tpb, (b + 1) * tpb)
        lab = rec.block_labels[b]
        for c, ch in enumerate(rec.channels):
            power = cwt_power(rec.samples[c, whole], bank)
            base_power = power[:, b0:b1].mean(axis=1)
            n_floored += int(np.sum(base_power < DB_POWER_FLOOR))
            base_power = np.maximum(base_power, DB_POWER_FLOOR)
            # [trials, freqs, time]
            trials = np.ascontiguousarray(power[:, window].transpose(1, 0, 2))
            db = db_normalize(trials, base_power)
            temporal_mean = db.mean(axis=-1)
            peak = np.argmax(temporal_mean, axis=-1)  # ties resolve low
            mean, var, skew, energy, kurt = _moments(db.reshape(tpb, -1))
            feats[rows, c * 7 : c * 7 + 7] = np.column_stack(
                (mean, var, bank.freqs[peak], temporal_mean[np.arange(tpb), peak],
                 skew, energy, kurt)
            )
            # one trial at a time, in trial order: a per-block partial sum
            # would round differently
            for m in db:
                map_sum[ch][lab] += m

    if n_floored:
        log.warning("floored %d near-zero baseline power values", n_floored)
    class_maps = {
        ch: {lab: m / max(tpb * rec.block_labels.count(lab), 1) for lab, m in per.items()}
        for ch, per in map_sum.items()
    }
    return feats, class_maps


# -- Hilbert envelope features ------------------------------------------------


def envelope_statistics(env: np.ndarray) -> np.ndarray:
    """mean, median, std, skewness, energy, excess kurtosis of envelope
    slices, [..., n] -> [..., 6]; the zero-variance rule maps skew/kurtosis
    of a flat slice to 0."""
    env = np.asarray(env, float)
    mean, var, skew, energy, kurt = _moments(env)
    return np.stack(
        (mean, np.median(env, axis=-1), np.sqrt(var), skew, energy, kurt), axis=-1
    )


def hilbert_features(rec: Recording) -> np.ndarray:
    """[n_trials, 240] envelope statistics (6 per channel per band).

    Envelopes are computed over each whole block (cue through rest) and then
    sliced per trial, so trial boundaries add no edge artifacts: the circular
    spectral product wraps only at the cue and rest ends of the block.
    """
    fs_i = int(round(rec.fs))
    tpb = rec.trials_per_block
    feats = np.empty((rec.n_trials, rec.n_channels, len(DEFAULT_BANDS), len(HILBERT_STATS)))
    for b in range(rec.n_blocks):
        whole = rec.block_slice(b)
        window = rec.trial_starts()[b, :, None] - whole.start + np.arange(fs_i)
        rows = slice(b * tpb, (b + 1) * tpb)
        for k, band in enumerate(DEFAULT_BANDS):
            try:
                env = analytic_envelope(rec.samples[:, whole], band, rec.fs)
            except DspError as e:
                raise FeatureError(f"band {band.name!r}: {e}") from e
            # [channels, trials, fs] -> [trials, channels, 6]
            feats[rows, :, k] = envelope_statistics(env[:, window]).transpose(1, 0, 2)
    return feats.reshape(rec.n_trials, N_HILBERT_COLS)


# -- assembly ------------------------------------------------------------------


def column_names() -> tuple[str, ...]:
    names = []
    for ch in CHANNELS:
        for start, end in ERP_WINDOWS_MS:
            for stat in ERP_STATS:
                names.append(f"erp:{ch}:w{start:04d}_{end:04d}:{stat}")
    names.extend(f"lda:{ch}:proj" for ch in CHANNELS)
    for ch in CHANNELS:
        names.extend(f"tf:{ch}:{stat}" for stat in TF_STATS)
    for ch in CHANNELS:
        for band in DEFAULT_BANDS:
            names.extend(f"hilb:{ch}:{band.name}:{stat}" for stat in HILBERT_STATS)
    return tuple(names)


def parse_column(name: str) -> tuple[str, str, str]:
    """Split an encoded column name into (family, channel, descriptor)."""
    family, channel, *rest = name.split(":")
    if family not in ("erp", "lda", "tf", "hilb") or channel not in CHANNELS or not rest:
        raise FeatureError(f"unparsable column name {name!r}")
    return family, channel, ":".join(rest)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """[n_trials, 640] trial features plus the raw ERP epochs for fold-time LDA."""

    values: np.ndarray
    columns: tuple[str, ...]
    labels: np.ndarray
    block_of: np.ndarray
    erp: ErpEpochs

    def __post_init__(self):
        if self.values.shape != (len(self.labels), N_FEATURES):
            raise FeatureError(
                f"values must be [n_trials, {N_FEATURES}], got {self.values.shape}"
            )
        if len(self.columns) != N_FEATURES:
            raise FeatureError(f"{len(self.columns)} column names != {N_FEATURES}")
        if self.erp.n_trials != len(self.labels):
            raise FeatureError("ERP epochs / labels trial count mismatch")

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]

    @property
    def is_face(self) -> np.ndarray:
        return self.labels == "face"


def extract_features(rec: Recording) -> tuple[FeatureMatrix, dict]:
    """Assemble the full matrix; also returns TF class-mean maps for reports."""
    ep = erp_epochs(rec)
    n = ep.n_trials
    values = np.zeros((n, N_FEATURES))
    values[:, :N_ERP_STAT_COLS] = window_stats(ep.data).reshape(n, N_ERP_STAT_COLS)

    tf, class_maps = _tf_extract(rec)
    values[:, TF_COL_START : TF_COL_START + N_TF_COLS] = tf
    values[:, HILBERT_COL_START:] = hilbert_features(rec)

    for fam, lo, hi in (
        ("erp", 0, N_ERP_STAT_COLS),
        ("tf", TF_COL_START, TF_COL_START + N_TF_COLS),
        ("hilb", HILBERT_COL_START, N_FEATURES),
    ):
        bad = np.argwhere(~np.isfinite(values[:, lo:hi]))
        if bad.size:
            trial, col = bad[0]
            ch = parse_column(column_names()[lo + col])[1]
            raise FeatureError(
                f"non-finite {fam} feature (channel {ch}, trial {trial})"
            )

    fm = FeatureMatrix(
        values=values,
        columns=column_names(),
        labels=ep.labels,
        block_of=ep.block_of,
        erp=ep,
    )
    return fm, class_maps


# -- persistence ---------------------------------------------------------------

FEATURES_CSV = "features.csv"
EPOCHS_CSV = "erp_epochs.csv"
TF_MAPS_CSV = "tf_class_means.csv"


def write_feature_matrix(fm: FeatureMatrix, path) -> None:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / FEATURES_CSV, (*fm.columns, "label", "block"),
              [*fm.values.T, fm.labels, fm.block_of])
    write_csv(out / EPOCHS_CSV, (*_epoch_columns(), "label", "block"),
              [*fm.erp.data.reshape(fm.erp.n_trials, -1).T, fm.erp.labels, fm.erp.block_of])


def load_feature_matrix(path) -> FeatureMatrix:
    root = Path(path)
    feat_path = root / FEATURES_CSV
    ep_path = root / EPOCHS_CSV
    for p in (feat_path, ep_path):
        if not p.is_file():
            raise FeatureError(f"missing artifact: {p}")

    values, (labels, blocks) = _read_trials(feat_path, column_names())
    ep_values, (ep_labels, ep_blocks) = _read_trials(ep_path, _epoch_columns())
    n = len(labels)
    if len(ep_labels) != n:
        raise FeatureError(f"{ep_path}: {len(ep_labels)} trials, {feat_path} has {n}")
    bad = np.flatnonzero((ep_labels != labels) | (ep_blocks != blocks))
    if bad.size:
        i = int(bad[0])
        raise FeatureError(
            f"{ep_path}:{i + 2}: trial ({ep_labels[i]}, block {ep_blocks[i]}) does not "
            f"match {feat_path}:{i + 2} ({labels[i]}, block {blocks[i]})"
        )
    data = ep_values.reshape(n, len(CHANNELS), ERP_SAMPLES)
    erp = ErpEpochs(data=data, labels=ep_labels, block_of=ep_blocks)
    return FeatureMatrix(
        values=values, columns=column_names(), labels=labels, block_of=blocks, erp=erp
    )


def _epoch_columns() -> tuple[str, ...]:
    return tuple(f"{ch}:s{j:02d}" for ch in CHANNELS for j in range(ERP_SAMPLES))


def _label_block(label, block):
    if label not in CLASS_LABELS:
        raise ValueError(f"label {label!r} not in {CLASS_LABELS}")
    return label, int(block)


def _read_trials(path: Path, columns):
    """Values, labels and blocks of a per-trial CSV with trailing label,block."""
    return read_csv(path, (*columns, "label", "block"), ("label", "block"), _label_block,
                    error=FeatureError)


def write_tf_class_maps(class_maps: dict, freqs: np.ndarray, path) -> None:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    pairs = [(ch, lab) for ch in CHANNELS for lab in CLASS_LABELS]
    maps = np.concatenate([class_maps[ch][lab] for ch, lab in pairs])
    channel, label = np.repeat(pairs, len(freqs), axis=0).T
    header = ("channel", "label", "freq_hz", *(f"t{j}" for j in range(maps.shape[1])))
    write_csv(out / TF_MAPS_CSV, header,
              [channel, label, np.tile(np.asarray(freqs, float), len(pairs)), *maps.T])


def _channel_label(channel, label):
    if channel not in CHANNELS or label not in CLASS_LABELS:
        raise ValueError(f"unknown channel/label pair ({channel}, {label})")
    return channel, label


def load_tf_class_maps(path) -> tuple[dict, np.ndarray]:
    """{channel: {label: [n_freqs, n_t] map}} and the frequencies. A bad row
    fails naming path:line; the file must hold every channel x label pair,
    all with the same frequency column."""
    p = Path(path) / TF_MAPS_CSV
    if not p.is_file():
        raise FeatureError(f"missing artifact: {p}")
    header = read_header(p)
    if header[:3] != ["channel", "label", "freq_hz"]:
        raise FeatureError(f"{p}:1: expected a channel,label,freq_hz,... header")
    values, (channel, label) = read_csv(p, header, ("channel", "label"), _channel_label,
                                        error=FeatureError)
    tables = {}
    for ch in CHANNELS:
        for lab in CLASS_LABELS:
            tables[ch, lab] = values[(channel == ch) & (label == lab)]
            if not len(tables[ch, lab]):
                raise FeatureError(f"{p}: no rows for channel {ch}, label {lab}")
    freqs = tables[CHANNELS[0], CLASS_LABELS[0]][:, 0]
    for (ch, lab), table in tables.items():
        if not np.array_equal(table[:, 0], freqs):
            raise FeatureError(
                f"{p}: frequency column of {ch}/{lab} differs from "
                f"{CHANNELS[0]}/{CLASS_LABELS[0]}"
            )
    maps = {ch: {lab: tables[ch, lab][:, 1:].copy() for lab in CLASS_LABELS} for ch in CHANNELS}
    return maps, freqs
