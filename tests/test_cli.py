import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import attndecode
from attndecode.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run on a tiny dataset, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    args = dict(ds=root / "ds", pre=root / "pre", feats=root / "feats",
                studies=root / "studies", report=root / "report")
    assert run([
        "synth", "--out", str(args["ds"]), "--seed", "1", "--snr", "easy",
        "--blocks", "2", "--trials-per-block", "8",
    ]) == 0
    assert run(["preprocess", "--data", str(args["ds"]), "--out", str(args["pre"])]) == 0
    assert run(["features", "--data", str(args["pre"]), "--out", str(args["feats"])]) == 0
    assert run([
        "tune", "--data", str(args["feats"]), "--out", str(args["studies"]),
        "--model", "both", "--trials", "2", "--seed", "1",
    ]) == 0
    assert run([
        "evaluate", "--data", str(args["feats"]), "--studies", str(args["studies"]),
        "--out", str(args["report"]), "--model", "both", "--seed", "1",
    ]) == 0
    return args


def test_pipeline_artifacts_exist(pipeline):
    assert (pipeline["ds"] / "meta.json").is_file()
    assert (pipeline["ds"] / "recording.csv").is_file()
    assert (pipeline["feats"] / "features.csv").is_file()
    assert (pipeline["feats"] / "erp_epochs.csv").is_file()
    assert (pipeline["feats"] / "tf_class_means.csv").is_file()
    assert (pipeline["studies"] / "study_svm.jsonl").is_file()
    assert (pipeline["studies"] / "study_rf.jsonl").is_file()
    for name in ("results.json", "table.md", "roc.svg", "erp.svg", "tf_heatmap.svg",
                 "model_svm.json", "model_rf.json"):
        assert (pipeline["report"] / name).is_file(), name


def test_results_json_is_valid(pipeline):
    from attndecode.report import validate_results

    doc = json.loads((pipeline["report"] / "results.json").read_text())
    validate_results(doc)
    assert set(doc["models"]) == {"svm", "rf"}
    assert doc["seed"] == 1


def test_report_svgs_are_wellformed_xml(pipeline):
    import xml.etree.ElementTree as ET

    for name in ("roc.svg", "erp.svg", "tf_heatmap.svg"):
        ET.fromstring((pipeline["report"] / name).read_text())


def _stage_files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_reruns_byte_identical(pipeline, tmp_path):
    assert run([
        "synth", "--out", str(tmp_path / "ds2"), "--seed", "1", "--snr", "easy",
        "--blocks", "2", "--trials-per-block", "8",
    ]) == 0
    assert run(["preprocess", "--data", str(tmp_path / "ds2"), "--out", str(tmp_path / "pre2")]) == 0
    assert run(["features", "--data", str(tmp_path / "pre2"), "--out", str(tmp_path / "f2")]) == 0
    assert run([
        "tune", "--data", str(tmp_path / "f2"), "--out", str(tmp_path / "s2"),
        "--model", "both", "--trials", "2", "--seed", "1",
    ]) == 0
    assert run([
        "evaluate", "--data", str(tmp_path / "f2"), "--studies", str(tmp_path / "s2"),
        "--out", str(tmp_path / "r2"), "--model", "both", "--seed", "1",
    ]) == 0
    for stage, rerun in (("ds", "ds2"), ("pre", "pre2"), ("feats", "f2"),
                         ("studies", "s2"), ("report", "r2")):
        first = _stage_files(pipeline[stage])
        second = _stage_files(tmp_path / rerun)
        assert first, stage
        assert sorted(first) == sorted(second), stage
        for name, data in first.items():
            assert data == second[name], f"{stage}/{name} differs between same-seed runs"


def test_tune_resume_skips_completed_trials(pipeline, capsys):
    # same journal, same budget: loads existing trials, adds none
    before = (pipeline["studies"] / "study_svm.jsonl").read_text()
    assert run([
        "tune", "--data", str(pipeline["feats"]), "--out", str(pipeline["studies"]),
        "--model", "svm", "--trials", "2", "--seed", "1",
    ]) == 0
    after = (pipeline["studies"] / "study_svm.jsonl").read_text()
    assert before == after


def test_truncated_features_meta_fails_naming_it(pipeline, tmp_path, capsys):
    feats = shutil.copytree(pipeline["feats"], tmp_path / "feats")
    meta = feats / "features_meta.json"
    meta.write_text(meta.read_text()[:15])
    code = run(["tune", "--data", str(feats), "--out", str(tmp_path / "s"), "--trials", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: tune: {meta}: Expecting")
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(n_trials=m["n_trials"] + 1),
         r"n_trials is 17, but features\.csv has 16 trials"),
        (lambda m: m.update(subject_id=None), r"field 'subject_id' must be a string, got NoneType"),
        (lambda m: m.update(fs=float("nan")), r"number NaN is not a finite float"),
    ],
    ids=["n_trials_differs", "subject_id_null", "fs_nan"],
)
@pytest.mark.parametrize("stage", ["tune", "evaluate"])
def test_bad_features_meta_fails_naming_it(pipeline, tmp_path, capsys, stage, edit, message):
    feats = shutil.copytree(pipeline["feats"], tmp_path / "feats")
    meta = feats / "features_meta.json"
    doc = json.loads(meta.read_text())
    edit(doc)
    meta.write_text(json.dumps(doc))
    argv = [stage, "--data", str(feats), "--out", str(tmp_path / "out")]
    code = run(argv + (["--studies", str(pipeline["studies"])] if stage == "evaluate"
                       else ["--trials", "1"]))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {stage}: {meta}")
    assert re.search(message, err)
    assert "\n" not in err.strip()
    assert not (tmp_path / "out").exists()


def test_journal_trial_missing_param_fails_naming_line(pipeline, tmp_path, capsys):
    studies = shutil.copytree(pipeline["studies"], tmp_path / "studies")
    journal = studies / "study_svm.jsonl"
    lines = journal.read_text().split("\n")
    rec = json.loads(lines[1])
    del rec["params"]["gamma"]
    lines[1] = json.dumps(rec)
    journal.write_text("\n".join(lines))
    code = run([
        "tune", "--data", str(pipeline["feats"]), "--out", str(studies),
        "--model", "svm", "--trials", "3", "--seed", "1",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: tune: {journal}:2: bad journal line: ")
    assert "gamma" in err
    assert "\n" not in err.strip()


def test_journal_ok_trial_without_value_fails_naming_line(pipeline, tmp_path, capsys):
    studies = shutil.copytree(pipeline["studies"], tmp_path / "studies")
    journal = studies / "study_svm.jsonl"
    lines = journal.read_text().split("\n")
    rec = json.loads(lines[1])
    rec.update(status="ok", value=None)
    lines[1] = json.dumps(rec)
    journal.write_text("\n".join(lines))
    code = run([
        "tune", "--data", str(pipeline["feats"]), "--out", str(studies),
        "--model", "svm", "--trials", "3", "--seed", "1",
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: tune: {journal}:2: bad journal line: ")
    assert "status 'ok' with value None" in err
    assert "\n" not in err.strip()


def test_evaluate_without_features_fails_with_named_artifact(tmp_path, capsys):
    code = run([
        "evaluate", "--data", str(tmp_path / "nowhere"), "--studies", str(tmp_path),
        "--out", str(tmp_path / "rep"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "error: evaluate:" in captured.err
    assert "missing artifact" in captured.err
    assert "features.csv" in captured.err
    assert "\n" not in captured.err.strip()


def test_preprocess_missing_dataset_fails(tmp_path, capsys):
    code = run(["preprocess", "--data", str(tmp_path / "none"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error: preprocess:" in capsys.readouterr().err


def test_synth_invalid_flags_fail(tmp_path, capsys):
    code = run(["synth", "--out", str(tmp_path / "x"), "--blocks", "3"])
    assert code == 1
    assert "error: synth:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--trials", "5"],  # not read as --trials-per-block
        ["synth", "--model", "svm"],
        ["preprocess", "--data", "d", "--trials", "5"],
        ["features", "--data", "d", "--model", "svm"],
        ["tune", "--data", "d", "--mod", "svm"],  # no prefix matching
        ["preprocess", "--data", "d", "--seed", "1"],
        ["features", "--data", "d", "--seed", "1"],
        ["evaluate", "--data", "d", "--studies", "s", "--trials", "5"],
        ["synth", "--config", "x"],
    ],
    ids=["synth_trials", "synth_model", "preprocess_trials", "features_model",
         "tune_abbreviated_flag", "preprocess_seed", "features_seed", "evaluate_trials",
         "synth_config"],
)
def test_flags_a_stage_does_not_read_are_refused(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "stage, missing",
    [("synth", "--out"), *((stage, flag) for stage in ("preprocess", "features", "tune", "evaluate")
                           for flag in ("--data", "--out"))],
    ids=lambda v: v.lstrip("-"),
)
def test_stage_without_data_or_out_is_a_usage_error(tmp_path, capsys, stage, missing):
    paths = {"--data": tmp_path / "d", "--out": tmp_path / "o", "--studies": tmp_path / "s"}
    given = {"synth": ["--out"], "evaluate": ["--data", "--out", "--studies"]}
    argv = [stage]
    for flag in given.get(stage, ["--data", "--out"]):
        if flag != missing:
            argv += [flag, str(paths[flag])]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_tune_with_no_trials_is_refused_and_writes_nothing(pipeline, tmp_path, capsys):
    out = tmp_path / "studies"
    code = run(["tune", "--data", str(pipeline["feats"]), "--out", str(out), "--trials", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: tune: budget must be >= 1, got 0")
    assert "\n" not in err.strip()
    assert not out.exists()


# Synth, preprocess and features in one child process; prints whether numpy
# dispatches to X86_V4 (AVX-512) kernels in that process.
_CHILD_PIPELINE = """
import sys
from numpy._core._multiarray_umath import __cpu_features__
from attndecode.cli import main
root = sys.argv[1]
for argv in (
    ["synth", "--out", root + "/ds", "--seed", "5", "--blocks", "2", "--trials-per-block", "8"],
    ["preprocess", "--data", root + "/ds", "--out", root + "/pre"],
    ["features", "--data", root + "/pre", "--out", root + "/f"],
):
    assert main(argv) == 0, argv
print(__cpu_features__["X86_V4"])
"""
_NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def test_signal_artifacts_do_not_depend_on_avx512(tmp_path):
    from numpy._core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get("X86_V4"):
        pytest.skip("this CPU has no X86_V4 (AVX-512) paths to mask: both runs would "
                    "take the same numpy kernels")
    src = str(Path(attndecode.__file__).resolve().parents[1])
    children = {}
    for name, mask in (("native", None), ("masked", _NO_AVX512)):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if mask:
            env["NPY_DISABLE_CPU_FEATURES"] = mask
        children[name] = subprocess.Popen(
            [sys.executable, "-c", _CHILD_PIPELINE, str(tmp_path / name)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    x86_v4 = {}
    try:
        for name, child in children.items():
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            x86_v4[name] = out.split()[-1]
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    assert x86_v4 == {"native": "True", "masked": "False"}

    native, masked = tmp_path / "native", tmp_path / "masked"
    for rel in ("ds/recording.csv", "pre/recording.csv", "f/erp_epochs.csv"):
        assert (native / rel).read_bytes() == (masked / rel).read_bytes(), rel
    # the TF columns still follow numpy's SIMD log10 in db_normalize
    rows = [(root / "f/features.csv").read_text().split("\n") for root in (native, masked)]
    assert len(rows[0]) == len(rows[1])
    header = rows[0][0].split(",")
    moved = {
        header[j]
        for a, b in zip(*rows)
        for j, (x, y) in enumerate(zip(a.split(","), b.split(",")))
        if x != y
    }
    assert sorted(c for c in moved if not c.startswith("tf:")) == []
