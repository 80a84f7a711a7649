import dataclasses
import json

import numpy as np
import pytest

from attndecode import (
    DatasetError,
    Recording,
    RecordingError,
    SynthConfig,
    load_recording,
    synthesize,
    write_recording,
)
from attndecode.recording import CHANNELS

from conftest import make_toy_recording


def test_generator_roundtrip_shape(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "ds")
    rec = load_recording(tmp_path / "ds")
    assert rec.channels == CHANNELS
    assert rec.n_channels == 8
    assert rec.n_trials == 16
    assert rec.block_labels == small_easy_rec.block_labels


def test_roundtrip_values_within_tolerance(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "ds")
    rec = load_recording(tmp_path / "ds")
    np.testing.assert_allclose(rec.samples, small_easy_rec.samples, rtol=1e-9)
    assert np.array_equal(rec.block, small_easy_rec.block)
    assert np.array_equal(rec.trial, small_easy_rec.trial)
    assert np.array_equal(rec.phase, small_easy_rec.phase)
    assert np.array_equal(rec.label, small_easy_rec.label)
    assert rec.extra == small_easy_rec.extra


def test_two_writes_byte_identical(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "a")
    write_recording(small_easy_rec, tmp_path / "b")
    for name in ("meta.json", "recording.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_invalid_recording_rejected_before_write():
    rec = make_toy_recording(np.sin)
    with pytest.raises(RecordingError, match="samples"):
        dataclasses.replace(rec, samples=np.empty((0, rec.n_samples)))
    with pytest.raises(RecordingError, match="channels"):
        dataclasses.replace(rec, channels=CHANNELS[:7])


def test_channel_count_mismatch_meta(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "ds")
    meta_path = tmp_path / "ds" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["channel_names"] = meta["channel_names"][:7]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match="channel count mismatch"):
        load_recording(tmp_path / "ds")


class JsonText(str):
    """A value written into the file as this JSON text, not as a JSON string."""


@pytest.mark.parametrize(
    "key, value",
    [
        ("fs", "abc"), ("n_blocks", [2]), ("block_labels", 3), ("trials_per_block", 8.9),
        ("n_blocks", 2.5), ("fs", "250"), ("fs", True), ("block_labels", "fs"),
        ("subject_id", None), ("subject_id", 5),
        # numbers no float holds fail at parse time, before any field is read
        pytest.param("fs", JsonText("1e400"), id="fs-1e400"),
        pytest.param("fs", JsonText("NaN"), id="fs-NaN"),
        pytest.param("fs", JsonText("1" + "0" * 400), id="fs-int_401_digits"),
        pytest.param("fs", JsonText("1" + "0" * 5000), id="fs-int_5001_digits"),
    ],
)
def test_meta_field_of_wrong_type_names_meta_json(tmp_path, small_easy_rec, key, value):
    write_recording(small_easy_rec, tmp_path / "ds")
    meta_path = tmp_path / "ds" / "meta.json"
    meta = json.loads(meta_path.read_text())
    is_text = isinstance(value, JsonText)
    meta[key] = "@value@" if is_text else value
    text = json.dumps(meta)
    meta_path.write_text(text.replace('"@value@"', value) if is_text else text)
    message = (r"meta\.json: invalid JSON: (number .* is not a finite float|Exceeds the limit)"
               if is_text else rf"meta\.json field '{key}' must be ")
    with pytest.raises(DatasetError, match=message):
        load_recording(tmp_path / "ds")


@pytest.mark.parametrize(
    "key", ["subject_id", "fs", "channel_names", "n_blocks", "block_labels", "trials_per_block"]
)
def test_meta_without_a_key_names_it(tmp_path, small_easy_rec, key):
    write_recording(small_easy_rec, tmp_path / "ds")
    meta_path = tmp_path / "ds" / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta[key]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(DatasetError, match=rf"meta\.json has no field '{key}'$"):
        load_recording(tmp_path / "ds")


def test_channel_count_mismatch_csv_header(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "ds")
    csv_path = tmp_path / "ds" / "recording.csv"
    lines = csv_path.read_text().split("\n")
    header = lines[0].split(",")
    del header[2]  # drop the C3 column name -> 7 channel columns
    lines[0] = ",".join(header)
    csv_path.write_text("\n".join(lines))
    with pytest.raises(DatasetError, match="channel count mismatch"):
        load_recording(tmp_path / "ds")


def test_block_with_missing_trial_names_block(tmp_path):
    rec = synthesize(SynthConfig(n_blocks=4, trials_per_block=40, seed=3))
    write_recording(rec, tmp_path / "ds")
    csv_path = tmp_path / "ds" / "recording.csv"
    lines = csv_path.read_text().rstrip("\n").split("\n")
    fs = int(rec.fs)
    start = rec.trial_starts()[3, 39]  # drop the final trial of block 3
    del lines[1 + start : 1 + start + fs]
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=r"block 3 has 39 trials, expected 40"):
        load_recording(tmp_path / "ds")
    assert fs == 250


def test_mixed_labels_within_block_rejected(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "ds")
    csv_path = tmp_path / "ds" / "recording.csv"
    lines = csv_path.read_text().rstrip("\n").split("\n")
    start = small_easy_rec.trial_starts()[0, 2]
    row = lines[1 + start].split(",")
    row[-1] = "face" if row[-1] == "scene" else "scene"
    lines[1 + start] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=rf"recording.csv:{start + 2}.*block 0"):
        load_recording(tmp_path / "ds")


@pytest.mark.parametrize("column, value", [(-1, "scenery"), (-3, "activityX")],
                         ids=["label_scenery", "phase_activityX"])
def test_overlong_annotation_text_fails_at_its_line(tmp_path, column, value):
    # a U5/U8 cast would cut these to "scene"/"activity" and load them
    write_recording(synthesize(SynthConfig(n_blocks=2, trials_per_block=8, seed=5)),
                    tmp_path / "ds")
    csv_path = tmp_path / "ds" / "recording.csv"
    lines = csv_path.read_text().split("\n")
    row = lines[3001].split(",")  # the first activity sample of block 0, a scene block
    assert row[-3:] == ["activity", "0", "scene"]
    row[column] = value
    lines[3001] = ",".join(row)
    csv_path.write_text("\n".join(lines))
    with pytest.raises(DatasetError, match=rf"recording.csv:3002: unknown \w+ value '{value}'$"):
        load_recording(tmp_path / "ds")


def test_malformed_row_reports_line(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "ds")
    csv_path = tmp_path / "ds" / "recording.csv"
    lines = csv_path.read_text().rstrip("\n").split("\n")
    row = lines[5].split(",")
    row[1] = "not-a-number"
    lines[5] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=r"recording.csv:6: malformed row"):
        load_recording(tmp_path / "ds")


def test_missing_files(tmp_path):
    with pytest.raises(DatasetError, match="missing meta.json"):
        load_recording(tmp_path)
    (tmp_path / "meta.json").write_text("{}")
    with pytest.raises(DatasetError, match="missing recording.csv"):
        load_recording(tmp_path)


def test_extra_metadata_preserved(tmp_path, small_easy_rec):
    assert "synth_truth" in small_easy_rec.extra
    write_recording(small_easy_rec, tmp_path / "ds")
    rec = load_recording(tmp_path / "ds")
    assert rec.extra["snr_preset"] == "easy"
    assert rec.extra["synth_truth"] == small_easy_rec.extra["synth_truth"]


def test_phase_and_trial_structure(small_easy_rec):
    rec = small_easy_rec
    fs = int(rec.fs)
    for b in range(rec.n_blocks):
        assert rec.phase_slice(b, "cue").stop - rec.phase_slice(b, "cue").start == 5 * fs
        base = rec.phase_slice(b, "baseline")
        assert base.stop - base.start == 7 * fs
        act = rec.phase_slice(b, "activity")
        assert act.stop - act.start == rec.trials_per_block * fs
        rest = rec.phase_slice(b, "rest")
        assert rest.stop - rest.start == 10 * fs


def test_trial_starts_cover_annotated_trials(small_easy_rec):
    rec = small_easy_rec
    fs = int(rec.fs)
    assert rec.n_trials == 16
    starts = rec.trial_starts()
    assert starts.shape == (rec.n_blocks, rec.trials_per_block)
    assert starts.dtype == np.int64 and not starts.flags.writeable
    for b in range(rec.n_blocks):
        act = rec.phase_slice(b, "activity")
        for t in range(rec.trials_per_block):
            assert starts[b, t] == act.start + t * fs
            sl = slice(starts[b, t], starts[b, t] + fs)
            np.testing.assert_array_equal(rec.trial[sl], t)
            np.testing.assert_array_equal(rec.block[sl], b)
            np.testing.assert_array_equal(rec.label[sl], rec.block_labels[b])


def test_recording_arrays_immutable(small_easy_rec):
    with pytest.raises(ValueError):
        small_easy_rec.samples[0, 0] = 1.0


def test_uneven_trial_counts_rejected():
    rec = make_toy_recording(np.sin, n_blocks=2, trials_per_block=5)
    # widen block 1's activity annotation into its rest second -> 6 trials
    trial = np.array(rec.trial)
    phase = np.array(rec.phase)
    act = rec.phase_slice(1, "activity")
    fs = int(rec.fs)
    phase[act.stop : act.stop + fs] = "activity"
    trial[act.stop : act.stop + fs] = 5
    label = np.array(rec.label)
    label[act.stop : act.stop + fs] = rec.block_labels[1]
    with pytest.raises(RecordingError, match="disagree on trial count"):
        Recording(
            subject_id="toy",
            fs=rec.fs,
            channels=rec.channels,
            samples=rec.samples,
            block=rec.block,
            phase=phase,
            trial=trial,
            label=label,
            block_labels=rec.block_labels,
        )


def test_csv_format_details(tmp_path, small_easy_rec):
    write_recording(small_easy_rec, tmp_path / "ds")
    text = (tmp_path / "ds" / "recording.csv").read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "t_s,Fz,C3,Cz,C4,Pz,PO7,Oz,PO8,block,phase,trial,label"
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[-4] == "0" and first[-3] == "cue"
    assert first[-2] == "" and first[-1] == ""  # no trial/label outside activity
    act_row = lines[1 + small_easy_rec.trial_starts()[0, 0]].split(",")
    assert act_row[-3] == "activity" and act_row[-2] == "0"
    assert act_row[-1] in ("face", "scene")
