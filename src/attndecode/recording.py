"""Core domain types: multi-channel recordings and frequency bands.

A recording is one subject's continuous 8-channel EEG session, annotated
sample-by-sample with the block structure of the experiment (cue, baseline,
activity, rest) and with per-trial stimulus labels during activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CHANNELS = ("Fz", "C3", "Cz", "C4", "Pz", "PO7", "Oz", "PO8")
PHASES = ("cue", "baseline", "activity", "rest")
CLASS_LABELS = ("face", "scene")
NO_LABEL = "none"
NO_TRIAL = -1


class RecordingError(ValueError):
    """A recording violates its structural invariants; index, when known, is
    the first offending sample."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class BandDefinition:
    """A named frequency band in Hz."""

    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi):
            raise RecordingError(
                f"band {self.name!r}: need 0 < lo < hi, got [{self.lo}, {self.hi}]"
            )


DEFAULT_BANDS = (
    BandDefinition("delta", 1.0, 4.0),
    BandDefinition("theta", 4.0, 8.0),
    BandDefinition("alpha", 8.0, 14.0),
    BandDefinition("beta", 14.0, 30.0),
    BandDefinition("gamma", 30.0, 40.0),
)


def _frozen_array(a, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Recording:
    """One subject's annotated continuous EEG session.

    samples is [n_channels, n_samples] in microvolts. The annotation arrays
    (block, phase, trial, label) all have length n_samples; trial is -1 and
    label is "none" outside activity phases.
    """

    subject_id: str
    fs: float
    channels: tuple[str, ...]
    samples: np.ndarray
    block: np.ndarray
    phase: np.ndarray
    trial: np.ndarray
    label: np.ndarray
    block_labels: tuple[str, ...]
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        # before the U8/U5 casts below, which would cut "activityX" to "activity"
        for name, allowed in (("phase", PHASES), ("label", (NO_LABEL, *CLASS_LABELS))):
            raw = np.ravel(getattr(self, name))
            bad = np.flatnonzero(~np.isin(raw, allowed))
            if bad.size:
                raise RecordingError(f"unknown {name} value {str(raw[bad[0]])!r}", int(bad[0]))
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "block_labels", tuple(self.block_labels))
        object.__setattr__(self, "samples", _frozen_array(self.samples, float))
        object.__setattr__(self, "block", _frozen_array(self.block, np.int64))
        object.__setattr__(self, "phase", _frozen_array(self.phase, "U8"))
        object.__setattr__(self, "trial", _frozen_array(self.trial, np.int64))
        object.__setattr__(self, "label", _frozen_array(self.label, "U5"))
        self._validate()
        # _validate ensures fs-sample trials 0..n-1 per block, blocks in time order
        first = np.r_[True, self.trial[1:] != self.trial[:-1]] & (self.trial != NO_TRIAL)
        starts = np.flatnonzero(first).reshape(self.n_blocks, self.trials_per_block)
        object.__setattr__(self, "_trial_starts", _frozen_array(starts, np.int64))

    # -- structure ---------------------------------------------------------

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def n_blocks(self) -> int:
        return len(self.block_labels)

    @property
    def trials_per_block(self) -> int:
        return int(self.trial.max()) + 1

    @property
    def n_trials(self) -> int:
        return self.n_blocks * self.trials_per_block

    def block_slice(self, b: int) -> slice:
        idx = np.flatnonzero(self.block == b)
        return slice(int(idx[0]), int(idx[-1]) + 1)

    def phase_slice(self, b: int, phase: str) -> slice:
        """Contiguous sample range of one phase within one block."""
        idx = np.flatnonzero((self.block == b) & (self.phase == phase))
        if idx.size == 0:
            raise RecordingError(f"block {b} has no {phase!r} phase")
        return slice(int(idx[0]), int(idx[-1]) + 1)

    def trial_starts(self) -> np.ndarray:
        """First sample of every trial, [n_blocks, trials_per_block]; trial t
        of block b covers samples [starts[b, t], starts[b, t] + fs)."""
        return self._trial_starts

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        if self.fs <= 0 or self.fs != int(self.fs):
            raise RecordingError(f"fs must be a positive integer rate, got {self.fs}")
        if self.channels != CHANNELS:
            raise RecordingError(
                f"expected the {len(CHANNELS)} channels {CHANNELS}, got {self.channels}"
            )
        if self.samples.ndim != 2 or self.samples.shape[0] != len(CHANNELS):
            raise RecordingError(
                f"samples must be [{len(CHANNELS)} x n], got shape {self.samples.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise RecordingError("samples contain non-finite values")
        n = self.n_samples
        if n == 0:
            raise RecordingError("recording has no samples")
        for name in ("block", "phase", "trial", "label"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise RecordingError(f"annotation {name!r} length {arr.shape} != {n}")

        n_blocks = len(self.block_labels)
        if n_blocks == 0:
            raise RecordingError("no blocks")
        for lab in self.block_labels:
            if lab not in CLASS_LABELS:
                raise RecordingError(f"block label {lab!r} not in {CLASS_LABELS}")
        if set(np.unique(self.block)) != set(range(n_blocks)):
            raise RecordingError(
                f"block ids must be exactly 0..{n_blocks - 1}, got {np.unique(self.block)}"
            )
        # Blocks must be contiguous runs in ascending order.
        if np.any(np.diff(self.block) < 0):
            raise RecordingError("block ids are not nondecreasing in time")

        fs_i = int(round(self.fs))
        per_block_trials = []
        for b in range(n_blocks):
            in_b = self.block == b
            base = self._contiguous_run(in_b & (self.phase == "baseline"), b, "baseline")
            act = self._contiguous_run(in_b & (self.phase == "activity"), b, "activity")
            if base.stop > act.start:
                raise RecordingError(f"block {b}: baseline must precede activity")
            trials = self.trial[act]
            n_t = int(trials.max()) + 1 if trials.size else 0
            if n_t < 1:
                raise RecordingError(f"block {b}: activity has no trials")
            expected = np.repeat(np.arange(n_t), fs_i)
            if trials.size != n_t * fs_i or np.any(trials != expected):
                raise RecordingError(
                    f"block {b}: activity must be {n_t} contiguous trials of "
                    f"{fs_i} samples, got {trials.size} samples"
                )
            per_block_trials.append((n_t, act.start))
            off = np.flatnonzero(self.label[act] != self.block_labels[b])
            if off.size:
                raise RecordingError(
                    f"block {b}: label {str(self.label[act][off[0]])!r} differs from block "
                    f"label {self.block_labels[b]!r}",
                    act.start + off[0],
                )
        most = max(per_block_trials)[0]
        for b, (n_t, start) in enumerate(per_block_trials):
            if n_t != most:  # index: where block b stops matching `most` trials
                raise RecordingError(f"blocks disagree on trial count: block {b} has "
                                     f"{n_t} trials, expected {most}", start + n_t * fs_i)

        outside = self.phase != "activity"
        if np.any(self.trial[outside] != NO_TRIAL):
            raise RecordingError("trial ids present outside activity")
        if np.any(self.label[outside] != NO_LABEL):
            raise RecordingError("labels present outside activity")

    def _contiguous_run(self, mask: np.ndarray, b: int, phase: str) -> slice:
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise RecordingError(f"block {b} is missing its {phase} phase")
        if idx[-1] - idx[0] + 1 != idx.size:
            raise RecordingError(f"block {b}: {phase} phase is not contiguous")
        return slice(int(idx[0]), int(idx[-1]) + 1)

