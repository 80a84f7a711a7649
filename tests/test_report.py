import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from attndecode.evaluate import EvalReport
from attndecode.plots import (
    SvgCanvas,
    render_erp_svg,
    render_roc_svg,
    render_tf_maps_svg,
    roc_to_canvas,
)
from attndecode.report import (
    ReportError,
    erp_class_means,
    render_report,
    render_table,
    results_document,
    validate_results,
)
from attndecode.tune import Study, Trial, svm_space, rf_space


def eval_report(kind, params, acc, auc, roc=None):
    points = np.array([[0.0, 0.0], [0.1, 0.7], [0.5, 0.9], [1.0, 1.0]]) if roc is None else roc
    return EvalReport(
        model_kind=kind,
        params=params,
        fold_accuracies=(acc,) * 5,
        mean_accuracy=acc,
        roc_points=points,
        auc=auc,
        confusion={"tp": 10, "fp": 2, "tn": 9, "fn": 3},
        seed=1,
    )


def study_for(kind, params, value):
    space = svm_space() if kind == "svm" else rf_space()
    st = Study(space=space, seed=1, model_kind=kind)
    st.trials.append(Trial(index=0, params=params, value=value, status="ok"))
    return st


def test_table_renders_tuned_svm_row():
    rep = eval_report("svm", {"C": 894.0, "gamma": 1.1e-3}, 0.85, 0.90)
    table = render_table({"svm": rep})
    row = table.splitlines()[2]
    assert "SVM" in row
    assert "C=894" in row
    assert "gamma=0.0011" in row
    assert "85%" in row
    assert "0.90" in row


def test_table_renders_tuned_rf_row():
    params = {
        "n_estimators": 8,
        "max_depth": 10,
        "min_samples_split": 7,
        "min_samples_leaf": 2,
        "max_features": "auto",
        "criterion": "gini",
    }
    rep = eval_report("rf", params, 0.80, 0.87)
    table = render_table({"rf": rep})
    row = table.splitlines()[2]
    assert "RF" in row
    assert "n_estimators=8" in row
    assert "max_depth=10" in row
    assert "80%" in row and "0.87" in row


def test_perfect_roc_polyline_passes_through_top_left():
    perfect = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rep = eval_report("svm", {"C": 1.0, "gamma": 0.1}, 1.0, 1.0, roc=perfect)
    svg = render_roc_svg({"SVM": (rep.roc_points, rep.auc)})
    root = ET.fromstring(svg)
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert polylines
    x, y = roc_to_canvas(0.0, 1.0)
    target = f"{x:.2f},{y:.2f}"
    assert any(target in p.get("points") for p in polylines)


def test_svg_text_escapes_markup_but_not_quotes():
    canvas = SvgCanvas(10, 10)
    canvas.text(1, 2, 'a<b&c>"')
    assert canvas.parts == [
        '<text x="1.00" y="2.00" font-size="12" font-family="sans-serif"'
        ' text-anchor="start" fill="#222222">a&lt;b&amp;c&gt;"</text>'
    ]


def test_svgs_wellformed():
    rng = np.random.default_rng(0)
    means = {ch: {"face": rng.standard_normal(50), "scene": rng.standard_normal(50)}
             for ch in ("Fz", "C3", "Cz", "C4", "Pz", "PO7", "Oz", "PO8")}
    ET.fromstring(render_erp_svg(means))
    maps = {ch: {"face": rng.standard_normal((40, 250)), "scene": rng.standard_normal((40, 250))}
            for ch in means}
    ET.fromstring(render_tf_maps_svg(maps, np.arange(1.0, 41.0)))
    curves = {"SVM": (np.array([[0.0, 0.0], [0.4, 0.8], [1.0, 1.0]]), 0.7),
              "RF": (np.array([[0.0, 0.0], [0.5, 0.6], [1.0, 1.0]]), 0.55)}
    ET.fromstring(render_roc_svg(curves))


def test_results_document_validates():
    rep = eval_report("svm", {"C": 894.0, "gamma": 1.1e-3}, 0.85, 0.90)
    studies = {"svm": study_for("svm", rep.params, 0.85)}
    doc = results_document("subject5", 1, {"svm": rep}, studies)
    validate_results(doc)
    assert doc["models"]["svm"]["tuning"]["best_value"] == 0.85


def test_validate_results_rejects_bad_documents():
    rep = eval_report("svm", {"C": 1.0, "gamma": 0.1}, 0.8, 0.8)
    studies = {"svm": study_for("svm", rep.params, 0.8)}
    doc = results_document("s", 1, {"svm": rep}, studies)
    for mutate in (
        lambda d: d.update(schema_version=2),
        lambda d: d.update(seed="one"),
        lambda d: d["models"]["svm"].update(auc=1.5),
        lambda d: d["models"]["svm"].update(confusion={"tp": 1}),
        lambda d: d.update(models={}),
    ):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        with pytest.raises(ReportError):
            validate_results(bad)


def test_render_report_requires_completed_study(tmp_path):
    rep = eval_report("svm", {"C": 1.0, "gamma": 0.1}, 0.8, 0.8)
    empty = Study(space=svm_space(), seed=1, model_kind="svm")
    with pytest.raises(ReportError, match="no completed study"):
        render_report(
            tmp_path, "s", 1, {"svm": rep}, {"svm": empty},
            erp_means={}, tf_maps={}, tf_freqs=np.arange(1.0, 41.0),
        )


def test_erp_class_means_shapes():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((20, 8, 50))
    labels = np.array(["face", "scene"] * 10)
    means = erp_class_means(data, labels, ("Fz", "C3", "Cz", "C4", "Pz", "PO7", "Oz", "PO8"))
    assert set(means) == {"Fz", "C3", "Cz", "C4", "Pz", "PO7", "Oz", "PO8"}
    np.testing.assert_allclose(means["Fz"]["face"], data[::2, 0].mean(axis=0))
