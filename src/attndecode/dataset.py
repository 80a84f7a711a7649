"""Dataset directory I/O: {meta.json, recording.csv} per recording.

recording.csv carries one row per sample:
    t_s,Fz,C3,Cz,C4,Pz,PO7,Oz,PO8,block,phase,trial,label
with trial/label empty outside activity. Floats are written with repr so a
write -> load round trip is exact and two writes of the same recording are
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .recording import CHANNELS, NO_LABEL, NO_TRIAL, Recording

META_NAME = "meta.json"
CSV_NAME = "recording.csv"

_CSV_HEADER = "t_s," + ",".join(CHANNELS) + ",block,phase,trial,label"
_META_KEYS = ("subject_id", "fs", "channel_names", "n_blocks", "block_labels")
_META_TYPES = {
    "fs": float,
    "n_blocks": int,
    "trials_per_block": int,
    "channel_names": tuple,
    "block_labels": tuple,
}


class DatasetError(ValueError):
    """A dataset directory is missing, malformed, or inconsistent."""

    def __init__(self, message: str, path=None, line: int | None = None):
        ctx = ""
        if path is not None:
            ctx = f"{path}: "
            if line is not None:
                ctx = f"{path}:{line}: "
        super().__init__(ctx + message)
        self.path = path
        self.line = line


def write_recording(rec: Recording, path) -> None:
    """Write a recording as a dataset directory (created if needed)."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    meta = {
        "subject_id": rec.subject_id,
        "fs": int(rec.fs),
        "channel_names": list(rec.channels),
        "n_blocks": rec.n_blocks,
        "trials_per_block": rec.trials_per_block,
        "block_labels": list(rec.block_labels),
    }
    for key, value in rec.extra.items():
        meta.setdefault(key, value)
    (out / META_NAME).write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    fs = rec.fs
    cols = rec.samples
    lines = [_CSV_HEADER]
    for i in range(rec.n_samples):
        vals = ",".join(repr(float(cols[c, i])) for c in range(rec.n_channels))
        t = rec.trial[i]
        trial_s = "" if t == NO_TRIAL else str(int(t))
        lab = rec.label[i]
        label_s = "" if lab == NO_LABEL else str(lab)
        lines.append(
            f"{i / fs!r},{vals},{int(rec.block[i])},{rec.phase[i]},{trial_s},{label_s}"
        )
    (out / CSV_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def load_recording(path) -> Recording:
    """Load a dataset directory written by write_recording (or compatible)."""
    root = Path(path)
    meta_path = root / META_NAME
    csv_path = root / CSV_NAME
    if not meta_path.is_file():
        raise DatasetError(f"missing {META_NAME}", path=root)
    if not csv_path.is_file():
        raise DatasetError(f"missing {CSV_NAME}", path=root)

    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DatasetError(f"invalid JSON: {e}", path=meta_path) from e
    if not isinstance(meta, dict):
        raise DatasetError("expected a JSON object", path=meta_path)
    for key in _META_KEYS:
        if key not in meta:
            raise DatasetError(f"missing key {key!r}", path=meta_path)
    for key, kind in _META_TYPES.items():
        if key in meta:
            try:
                meta[key] = kind(meta[key])
            except (TypeError, ValueError) as e:
                raise DatasetError(f"bad {key!r}: {e}", path=meta_path) from e
    channel_names = meta["channel_names"]
    if len(channel_names) != len(CHANNELS):
        raise DatasetError(
            f"channel count mismatch: meta lists {len(channel_names)} channels, "
            f"expected {len(CHANNELS)}",
            path=meta_path,
        )
    if channel_names != CHANNELS:
        raise DatasetError(
            f"channel names {channel_names} do not match {CHANNELS}", path=meta_path
        )

    text = csv_path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetError("empty file", path=csv_path, line=1)
    header = lines[0]
    n_header_cols = len(header.split(","))
    if n_header_cols != len(_CSV_HEADER.split(",")):
        raise DatasetError(
            f"channel count mismatch: header has {n_header_cols} columns, "
            f"expected {len(_CSV_HEADER.split(','))} ({_CSV_HEADER})",
            path=csv_path,
            line=1,
        )
    if header != _CSV_HEADER:
        raise DatasetError(
            f"bad header {header!r}, expected {_CSV_HEADER!r}", path=csv_path, line=1
        )

    n = len(lines) - 1
    if n == 0:
        raise DatasetError("no sample rows", path=csv_path, line=2)
    n_ch = len(CHANNELS)
    samples = np.empty((n_ch, n))
    block = np.empty(n, dtype=np.int64)
    phase = np.empty(n, dtype="U8")
    trial = np.empty(n, dtype=np.int64)
    label = np.empty(n, dtype="U5")

    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        parts = line.split(",")
        if len(parts) != n_header_cols:
            raise DatasetError(
                f"expected {n_header_cols} fields, got {len(parts)}",
                path=csv_path,
                line=lineno,
            )
        try:
            for c in range(n_ch):
                samples[c, i] = float(parts[1 + c])
            block[i] = int(parts[1 + n_ch])
        except ValueError as e:
            raise DatasetError(f"malformed row: {e}", path=csv_path, line=lineno) from e
        phase[i] = parts[2 + n_ch]
        t = parts[3 + n_ch]
        trial[i] = NO_TRIAL if t == "" else int(t)
        label[i] = parts[4 + n_ch] or NO_LABEL

    block_labels = meta["block_labels"]
    if len(block_labels) != meta["n_blocks"]:
        raise DatasetError(
            f"n_blocks={meta['n_blocks']} but {len(block_labels)} block_labels",
            path=meta_path,
        )

    _check_trial_counts(block, phase, trial, meta, csv_path)
    _check_block_labels(block, phase, label, block_labels, csv_path)

    extra = {k: v for k, v in meta.items() if k not in _META_KEYS + ("trials_per_block",)}
    from .recording import RecordingError

    try:
        return Recording(
            subject_id=str(meta["subject_id"]),
            fs=meta["fs"],
            channels=channel_names,
            samples=samples,
            block=block,
            phase=phase,
            trial=trial,
            label=label,
            block_labels=block_labels,
            extra=extra,
        )
    except RecordingError as e:
        raise DatasetError(str(e), path=csv_path) from e


def _check_trial_counts(block, phase, trial, meta, csv_path) -> None:
    """Every block must carry the same number of activity trials.

    When meta declares trials_per_block that is the expected count; otherwise
    the maximum across blocks is, so a single short block is still named.
    """
    act = phase == "activity"
    counts = {}
    for b in range(meta["n_blocks"]):
        t = trial[act & (block == b)]
        counts[b] = int(t.max()) + 1 if t.size else 0
    expected = meta.get("trials_per_block", max(counts.values(), default=0))
    for b, c in sorted(counts.items()):
        if c != expected:
            raise DatasetError(
                f"block {b} has {c} trials, expected {expected}", path=csv_path
            )


def _check_block_labels(block, phase, label, block_labels, csv_path) -> None:
    act = phase == "activity"
    for b, expected in enumerate(block_labels):
        rows = np.flatnonzero(act & (block == b))
        labs = label[rows]
        off = np.flatnonzero(labs != expected)
        if off.size:
            raise DatasetError(
                f"block {b}: label {labs[off[0]]!r} differs from block label "
                f"{expected!r}",
                path=csv_path,
                line=int(rows[off[0]]) + 2,
            )
