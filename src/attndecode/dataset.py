"""Dataset directory I/O ({meta.json, recording.csv} per recording), the
one CSV codec every pipeline artifact goes through, and the one JSON reader.

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
import sys
from dataclasses import asdict, dataclass, is_dataclass
from functools import cache, partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .recording import CHANNELS, NO_LABEL, NO_TRIAL, Recording, RecordingError

META_NAME = "meta.json"
CSV_NAME = "recording.csv"

_CSV_COLUMNS = ("t_s", *CHANNELS, "block", "phase", "trial", "label")

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


# -- the JSON reader -----------------------------------------------------------


def _finite(cast, text):
    """A JSON number (or NaN/Infinity) as cast reads it, refused outside float range."""
    if abs(value := cast(text)) <= sys.float_info.max:
        return value
    raise ValueError(f"number {text[:24]}{'...' * (len(text) > 24)} is not a finite float")


def parse_json(text, where, error=DatasetError):
    """The value of JSON text. A syntax error, NaN, Infinity or a number that
    overflows a float raises error, its message led by where."""
    try:
        return json.loads(text, parse_float=partial(_finite, float),
                          parse_int=partial(_finite, int), parse_constant=partial(_finite, float))
    except ValueError as e:
        raise error(f"{where}: {e}") from None


@cache
def _field_types(cls) -> dict:
    """Field name -> annotation of dataclass cls, resolved once per class."""
    return get_type_hints(cls)


_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"),
            str: (str, "a string"), dict: (dict, "a JSON object")}


def read_json(tp, value, owner, error=DatasetError, path="", **given):
    """Value of annotation tp from a parsed JSON value: a dataclass is an
    object read field by field (given fields are taken as they are, other keys
    ignored), tuple[X, ...] a list of X, an ndarray a rectangular list of
    numbers, X | None null or an X, a float any number (as a float); a bool is
    never a number. A mismatch raises error naming path, its place below owner.
    """
    where = f"{owner} field {path!r}" if path else owner
    if is_dataclass(tp):
        read_json(dict, value, owner, error, path)
        for name, hint in _field_types(tp).items():
            if name not in given:
                if name not in value:
                    raise error(f"{owner} has no field {name!r}")
                given[name] = read_json(hint, value[name], owner, error,
                                        f"{path}.{name}" if path else name)
        return tp(**given)
    if tp is np.ndarray or get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise error(f"{where} must be a list, got {type(value).__name__}")
        if tp is not np.ndarray:
            return tuple(read_json(get_args(tp)[0], v, owner, error, f"{path}[{i}]")
                         for i, v in enumerate(value))
        try:
            array = np.array(value)
        except ValueError as e:  # ragged
            raise error(f"{where} must be a rectangular list of numbers ({path}: {e})") from e
        # np.array casts a bool among numbers; the object array keeps it
        kind = "b" if bool in map(type, np.array(value, object).flat) else array.dtype.kind
        if kind not in "iuf":
            got = {"b": "bool", "U": "str"}.get(kind, "object")
            raise error(f"{where} must hold numbers, got {got}")
        return array
    inner, *null = get_args(tp) or (tp,)  # X | None gives (X, NoneType)
    if value is None and null:
        return None
    types, name = _SCALARS[inner]
    if isinstance(value, bool) or not isinstance(value, types):
        raise error(f"{where} must be {name}{' or null' * bool(null)}, got {type(value).__name__}")
    return float(value) if inner is float else value


# -- recordings ------------------------------------------------------------------


@dataclass(frozen=True)
class _Meta:  # the meta.json keys a Recording is built from; others go to its extra
    subject_id: str
    fs: float
    channel_names: tuple[str, ...]
    n_blocks: int
    block_labels: tuple[str, ...]
    trials_per_block: int


def write_recording(rec: Recording, path) -> None:
    """Write a recording as a dataset directory (created if needed)."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)

    meta = _Meta(rec.subject_id, int(rec.fs), rec.channels, rec.n_blocks,  # fs as an integer
                 rec.block_labels, rec.trials_per_block)
    (out / META_NAME).write_text(
        json.dumps({**rec.extra, **asdict(meta)}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
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

    doc = parse_json(meta_path.read_text(encoding="utf-8"), f"{meta_path}: invalid JSON")
    meta = read_json(_Meta, doc, str(meta_path))
    if len(meta.channel_names) != len(CHANNELS):
        raise DatasetError(
            f"{meta_path}: channel count mismatch: meta lists {len(meta.channel_names)} "
            f"channels, expected {len(CHANNELS)}"
        )
    if meta.channel_names != CHANNELS:
        raise DatasetError(
            f"{meta_path}: channel names {meta.channel_names} do not match {CHANNELS}"
        )
    if len(meta.block_labels) != meta.n_blocks:
        raise DatasetError(
            f"{meta_path}: n_blocks={meta.n_blocks} but {len(meta.block_labels)} block_labels"
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

    try:
        rec = Recording(
            subject_id=meta.subject_id,
            fs=meta.fs,
            channels=meta.channel_names,
            samples=np.ascontiguousarray(numbers[:, 1:].T),
            block=block,
            phase=phase,
            trial=trial,
            label=label,
            block_labels=meta.block_labels,
            extra={k: v for k, v in doc.items() if k not in _field_types(_Meta)},
        )
    except RecordingError as e:
        where = csv_path if e.index is None else f"{csv_path}:{e.index + 2}"
        raise DatasetError(f"{where}: {e}") from e
    if meta.trials_per_block != rec.trials_per_block:
        raise DatasetError(f"{meta_path}: trials_per_block is {meta.trials_per_block}, but "
                           f"every block has {rec.trials_per_block} trials")
    return rec
