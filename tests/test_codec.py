"""The artifact CSV codec: bit-exact round trips, chunk-independent bytes,
and a pinned verdict with a path:line for each kind of corrupted file."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attndecode import dataset
from attndecode.dataset import DatasetError, load_recording, read_csv, write_csv, write_recording
from attndecode.features import (
    FeatureError,
    load_feature_matrix,
    load_tf_class_maps,
    write_feature_matrix,
    write_tf_class_maps,
)
from attndecode.recording import CHANNELS, CLASS_LABELS

from conftest import make_toy_recording

EXTREMES = [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 0.0, -0.0,
            1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1]

tables = st.integers(1, 12).flatmap(lambda n: st.tuples(
    arrays(np.float64, st.tuples(st.just(n), st.integers(1, 4)),
           elements=st.floats(allow_nan=False, allow_infinity=False)),
    st.lists(st.sampled_from(CLASS_LABELS), min_size=n, max_size=n),
))


def _write(path, values, labels):
    columns = (*(f"x{j}" for j in range(values.shape[1])), "label")
    write_csv(path, columns, [*values.T, np.array(labels)])
    return columns


@settings(max_examples=60, deadline=None)
@given(tables)
@example((np.array(EXTREMES).reshape(-1, 1), ["face"] * len(EXTREMES)))
def test_round_trip_is_bit_exact(table):
    values, labels = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        columns = _write(path, values, labels)
        numbers, (read_labels,) = read_csv(path, columns, ("label",), lambda label: (label,))
    assert numbers.view(np.int64).tolist() == values.view(np.int64).tolist()
    assert read_labels.tolist() == labels


@settings(max_examples=30, deadline=None)
@given(tables, st.integers(1, 5))
def test_bytes_do_not_depend_on_chunk_size(table, chunk):
    values, labels = table
    saved = dataset.CSV_CHUNK_ROWS
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for rows in (saved, chunk, 1, len(labels) + 1):
                dataset.CSV_CHUNK_ROWS = rows
                _write(Path(tmp) / "t.csv", values, labels)
                written.append((Path(tmp) / "t.csv").read_bytes())
        finally:
            dataset.CSV_CHUNK_ROWS = saved
    assert len(set(written)) == 1


def test_recording_bytes_do_not_depend_on_chunk_size(tmp_path, monkeypatch):
    rec = make_toy_recording(np.sin, trials_per_block=3)
    write_recording(rec, tmp_path / "default")
    for rows in (1, rec.n_samples + 1):
        monkeypatch.setattr(dataset, "CSV_CHUNK_ROWS", rows)
        write_recording(rec, tmp_path / str(rows))
        assert (tmp_path / str(rows) / "recording.csv").read_bytes() == (
            tmp_path / "default" / "recording.csv"
        ).read_bytes()


# -- corrupted files -------------------------------------------------------------
# Each edit touches the data row on line 5 (its fourth cell, a number) or
# inserts a line after it; None means the file still loads, to the same values.


def _cell(value):
    def edit(lines):
        parts = lines[4].split(",")
        parts[3] = value
        return lines[:4] + [",".join(parts)] + lines[5:]

    return edit


CORRUPTIONS = {
    "blank_line": (lambda ls: ls[:5] + [""] + ls[5:], r"6: {row}1 fields, expected {n}$"),
    "hash_in_cell": (_cell("0.5#1"), r"5: {row}could not convert string to float: '0\.5#1'$"),
    # float() reads 1_0 as 10; loadtxt, and so the codec, refuse it
    "digit_separator": (_cell("1_0"), r"5: {row}could not convert string to float: '1_0'$"),
    "nan": (_cell("nan"), r"5: {row}non-finite {col} = nan$"),
    "inf": (_cell("-inf"), r"5: {row}non-finite {col} = -inf$"),
    "crlf": ("crlf", None),
    "trailing_field": (lambda ls: ls[:4] + [ls[4] + ","] + ls[5:],
                       r"5: {row}{m} fields, expected {n}$"),
}


def _artifacts(root):
    rec = make_toy_recording(np.sin, trials_per_block=3)
    write_recording(rec, root / "ds")
    rng = np.random.default_rng(3)
    maps = {ch: {lab: rng.standard_normal((3, 4)) for lab in CLASS_LABELS} for ch in CHANNELS}
    write_tf_class_maps(maps, np.array([4.0, 6.5, 9.0]), root / "f")
    return {
        # file: (loader, the arrays it loaded, error, row prefix, field count,
        # name of cell 4)
        "recording.csv": (load_recording, lambda r: [r.samples, r.trial, r.label],
                          DatasetError, "malformed row: ", 13, "Cz"),
        "features.csv": (load_feature_matrix, lambda fm: [fm.values, fm.labels, fm.erp.data],
                         FeatureError, "", 642, "erp:Fz:w0000_0050:ptp"),
        "tf_class_means.csv": (load_tf_class_maps, lambda m: [m[1], m[0]["Fz"]["face"]],
                               FeatureError, "", 7, "t0"),
    }


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("name", ["recording.csv", "features.csv", "tf_class_means.csv"])
def test_corrupted_artifact_verdict(tmp_path, small_easy_fm, name, corruption):
    specs = _artifacts(tmp_path)
    write_feature_matrix(small_easy_fm, tmp_path / "f")
    load, arrays_of, error, row, n, col = specs[name]
    root = tmp_path / ("ds" if name == "recording.csv" else "f")
    path = root / name
    before = load(root)
    lines = path.read_text(encoding="utf-8").rstrip("\n").split("\n")
    edit, message = CORRUPTIONS[corruption]
    if edit == "crlf":
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    else:
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    if message is None:
        for a, b in zip(arrays_of(before), arrays_of(load(root)), strict=True):
            np.testing.assert_array_equal(a, b)
        return
    expected = message.format(row=re.escape(row), n=n, m=n + 1, col=re.escape(col))
    with pytest.raises(error, match=re.escape(str(path)) + ":" + expected):
        load(root)
