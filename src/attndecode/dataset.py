"""Dataset directory I/O ({meta.json, recording.csv} per recording) and the
one CSV codec every pipeline artifact goes through.

recording.csv carries one row per sample,
    t_s,Fz,C3,Cz,C4,Pz,PO7,Oz,PO8,block,phase,trial,label
with trial/label empty outside activity.

The codec writes a header of column names, then one row per line, each
ending in "\n"; floats are written with repr, so a write -> read round trip
is bit-exact and two writes of the same data are byte-identical. A file
that does not parse fails in one line naming path:line.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .recording import CHANNELS, NO_LABEL, NO_TRIAL, Recording, RecordingError

META_NAME = "meta.json"
CSV_NAME = "recording.csv"

_CSV_COLUMNS = ("t_s", *CHANNELS, "block", "phase", "trial", "label")
_META_KEYS = ("subject_id", "fs", "channel_names", "n_blocks", "block_labels")
_META_TYPES = {  # key: JSON types, their name, and the lossless cast to the stored type
    "subject_id": (str, "a string", str),
    "fs": ((int, float), "a number", float),
    "n_blocks": (int, "an integer", int),
    "trials_per_block": (int, "an integer", int),
    "channel_names": (list, "a list", tuple),
    "block_labels": (list, "a list", tuple),
}

# Rows formatted per write: bounds the text held in memory at once.
CSV_CHUNK_ROWS = 4096


class DatasetError(ValueError):
    """A dataset directory is missing, malformed, or inconsistent; the
    message leads with path or path:line."""


# -- the artifact CSV codec ----------------------------------------------------


def write_csv(path, columns, cells) -> None:
    """Write a header of column names, then row i of the 1-D arrays in cells
    (floats as repr, anything else as str)."""
    n = len(cells[0])
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(columns) + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            chunk = [c[lo : lo + CSV_CHUNK_ROWS] for c in cells]
            text = [map(repr if c.dtype.kind == "f" else str, c.tolist()) for c in chunk]
            f.write("\n".join(map(",".join, zip(*text))) + "\n")


def read_header(path) -> list[str]:
    """The column names on the first line of an artifact CSV."""
    with open(path, encoding="utf-8") as f:
        return f.readline().rstrip("\n").split(",")


def read_csv(path, columns, text, convert, error=DatasetError, row_prefix=""):
    """The rows of an artifact CSV whose header is columns.

    Returns the cells of every column not named in text as one float array
    [n_rows, n_numbers], and the text columns as arrays of their values:
    convert maps one row's text cells to their values and raises ValueError
    to refuse them. Every refusal raises error naming path:line; row_prefix
    leads the message of a refused row.
    """
    content = Path(path).read_text(encoding="utf-8")
    n_commas = content.count(",")
    header, *rows = content.split("\n")
    del content
    if rows and rows[-1] == "":
        rows.pop()
    if header.split(",") != list(columns):
        raise error(f"{path}:1: bad header {header!r}, expected {','.join(columns)!r}")
    if not rows:
        raise error(f"{path}:2: {row_prefix}no data rows")
    text_at = [columns.index(name) for name in text]
    number_at = [j for j in range(len(columns)) if j not in text_at]
    kw = dict(delimiter=",", comments=None, ndmin=2)
    try:
        if "" in rows:  # loadtxt would skip a blank line
            raise ValueError("blank line")
        numbers = np.loadtxt(rows, usecols=number_at, **kw)
        cells = np.loadtxt(rows, dtype=str, usecols=text_at, **kw)
        if n_commas != (len(rows) + 1) * (len(columns) - 1):  # fields past usecols
            raise ValueError("extra fields")
    except ValueError as e:
        _raise_first_bad_line(path, rows, len(columns), number_at, error, row_prefix, e)

    finite = np.isfinite(numbers)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise error(
            f"{path}:{i + 2}: {row_prefix}non-finite {columns[number_at[j]]} = {numbers[i, j]}"
        )
    # convert each distinct row once, in order of first appearance
    keys: dict = {}
    codes = np.array([keys.setdefault(row, len(keys)) for row in map(tuple, cells.tolist())])
    values = []
    for k, key in enumerate(keys):
        try:
            values.append(convert(*key))
        except ValueError as e:
            raise error(f"{path}:{np.argmax(codes == k) + 2}: {row_prefix}{e}") from None
    return numbers, [np.array(col)[codes] for col in zip(*values)]


def _raise_first_bad_line(path, rows, n_fields, number_at, error, row_prefix, refusal):
    """Name the first row np.loadtxt refused; this never returns data."""
    for line_no, row in enumerate(rows, start=2):
        where = f"{path}:{line_no}: {row_prefix}"
        parts = row.split(",")
        if len(parts) != n_fields:
            raise error(f"{where}{len(parts)} fields, expected {n_fields}") from None
        for cell in (parts[j] for j in number_at):
            try:
                # loadtxt reads float()'s syntax without digit separators
                if "_" in cell or not cell.isascii():
                    raise ValueError(f"could not convert string to float: {cell!r}")
                float(cell)
            except ValueError as e:
                raise error(f"{where}{e}") from None
    raise error(f"{path}: {refusal}") from refusal


# -- recordings ------------------------------------------------------------------


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

    write_csv(out / CSV_NAME, _CSV_COLUMNS, [
        np.arange(rec.n_samples) / rec.fs,
        *rec.samples,
        rec.block,
        rec.phase,
        np.where(rec.trial == NO_TRIAL, "", rec.trial.astype(str)),
        np.where(rec.label == NO_LABEL, "", rec.label),
    ])


def _annotation(block, phase, trial, label):
    return int(block), phase, NO_TRIAL if trial == "" else int(trial), label or NO_LABEL


def load_recording(path) -> Recording:
    """Load a dataset directory written by write_recording (or compatible)."""
    root = Path(path)
    meta_path = root / META_NAME
    csv_path = root / CSV_NAME
    if not meta_path.is_file():
        raise DatasetError(f"{root}: missing {META_NAME}")
    if not csv_path.is_file():
        raise DatasetError(f"{root}: missing {CSV_NAME}")

    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DatasetError(f"{meta_path}: invalid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise DatasetError(f"{meta_path}: expected a JSON object")
    for key in _META_KEYS:
        if key not in meta:
            raise DatasetError(f"{meta_path}: missing key {key!r}")
    for key, (types, name, cast) in _META_TYPES.items():
        if key in meta:
            v = meta[key]
            if isinstance(v, bool) or not isinstance(v, types):  # a bool is no number
                raise DatasetError(f"{meta_path}: bad {key!r}: must be {name}, got {v!r}")
            meta[key] = cast(v)
    channel_names = meta["channel_names"]
    if len(channel_names) != len(CHANNELS):
        raise DatasetError(
            f"{meta_path}: channel count mismatch: meta lists {len(channel_names)} "
            f"channels, expected {len(CHANNELS)}"
        )
    if channel_names != CHANNELS:
        raise DatasetError(f"{meta_path}: channel names {channel_names} do not match {CHANNELS}")
    block_labels = meta["block_labels"]
    if len(block_labels) != meta["n_blocks"]:
        raise DatasetError(
            f"{meta_path}: n_blocks={meta['n_blocks']} but {len(block_labels)} block_labels"
        )

    header = read_header(csv_path)
    if len(header) != len(_CSV_COLUMNS):
        raise DatasetError(
            f"{csv_path}:1: channel count mismatch: header has {len(header)} columns, "
            f"expected {len(_CSV_COLUMNS)} ({','.join(_CSV_COLUMNS)})"
        )
    numbers, (block, phase, trial, label) = read_csv(
        csv_path, _CSV_COLUMNS, _CSV_COLUMNS[-4:], _annotation, row_prefix="malformed row: "
    )

    extra = {k: v for k, v in meta.items() if k not in _META_KEYS + ("trials_per_block",)}
    try:
        rec = Recording(
            subject_id=meta["subject_id"],
            fs=meta["fs"],
            channels=channel_names,
            samples=np.ascontiguousarray(numbers[:, 1:].T),
            block=block,
            phase=phase,
            trial=trial,
            label=label,
            block_labels=block_labels,
            extra=extra,
        )
    except RecordingError as e:
        where = csv_path if e.index is None else f"{csv_path}:{e.index + 2}"
        raise DatasetError(f"{where}: {e}") from e
    declared = meta.get("trials_per_block", rec.trials_per_block)
    if declared != rec.trials_per_block:
        raise DatasetError(f"{meta_path}: trials_per_block is {declared}, but every block "
                           f"has {rec.trials_per_block} trials")
    return rec
