"""Result reporting: per-subject summary table, results.json, and SVG plots."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .evaluate import MODEL_KINDS, EvalReport
from .plots import render_erp_svg, render_roc_svg, render_tf_maps_svg
from .tune import Study

RESULTS_SCHEMA_VERSION = 1

RESULTS_JSON = "results.json"
TABLE_MD = "table.md"
ROC_SVG = "roc.svg"
ERP_SVG = "erp.svg"
TF_SVG = "tf_heatmap.svg"


class ReportError(ValueError):
    """Report inputs missing or results document malformed."""


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def format_params(params: dict) -> str:
    return ", ".join(f"{k}={_fmt_value(v)}" for k, v in params.items())


def render_table(evals: dict[str, EvalReport]) -> str:
    lines = [
        "| Model | Tuned hyperparameters | ACC | AUC |",
        "| --- | --- | --- | --- |",
    ]
    for kind in sorted(evals):
        rep = evals[kind]
        lines.append(
            f"| {kind.upper()} | {format_params(rep.params)} "
            f"| {100.0 * rep.mean_accuracy:.0f}% | {rep.auc:.2f} |"
        )
    return "\n".join(lines) + "\n"


def results_document(
    subject_id: str, seed: int, evals: dict[str, EvalReport], studies: dict[str, Study]
) -> dict:
    models = {}
    for kind, rep in evals.items():
        entry = rep.to_dict()
        if kind in studies:
            study = studies[kind]
            entry["tuning"] = {
                "n_trials": len(study.trials),
                "n_completed": len(study.completed()),
                "best_value": float(study.best_trial.value),
            }
        models[kind] = entry
    return {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "subject_id": subject_id,
        "seed": int(seed),
        "models": models,
    }


def validate_results(doc: dict) -> None:
    """Check a results document against the shipped schema; raise on failure."""

    def need(cond, msg):
        if not cond:
            raise ReportError(f"results.json schema: {msg}")

    need(isinstance(doc, dict), "top level must be an object")
    need(doc.get("schema_version") == RESULTS_SCHEMA_VERSION, "bad schema_version")
    need(isinstance(doc.get("subject_id"), str), "subject_id must be a string")
    need(isinstance(doc.get("seed"), int), "seed must be an integer")
    models = doc.get("models")
    need(isinstance(models, dict) and models, "models must be a non-empty object")
    for kind, entry in models.items():
        need(kind in MODEL_KINDS, f"unknown model kind {kind!r}")
        need(isinstance(entry.get("params"), dict), f"{kind}: params must be an object")
        accs = entry.get("fold_accuracies")
        need(
            isinstance(accs, list) and all(0.0 <= a <= 1.0 for a in accs),
            f"{kind}: fold_accuracies must be fractions",
        )
        need(0.0 <= entry.get("mean_accuracy", -1) <= 1.0, f"{kind}: bad mean_accuracy")
        need(0.0 <= entry.get("auc", -1) <= 1.0, f"{kind}: bad auc")
        conf = entry.get("confusion")
        need(
            isinstance(conf, dict) and set(conf) == {"tp", "fp", "tn", "fn"},
            f"{kind}: confusion must have tp/fp/tn/fn",
        )
        pts = entry.get("roc_points")
        need(isinstance(pts, list) and pts[0] == [0.0, 0.0] and pts[-1] == [1.0, 1.0],
             f"{kind}: roc_points must run from (0,0) to (1,1)")
        if "tuning" in entry:
            tun = entry["tuning"]
            need(
                isinstance(tun.get("n_trials"), int)
                and isinstance(tun.get("best_value"), float),
                f"{kind}: bad tuning block",
            )


def render_report(
    out_dir,
    subject_id: str,
    seed: int,
    evals: dict[str, EvalReport],
    studies: dict[str, Study],
    erp_means: dict[str, dict[str, np.ndarray]],
    tf_maps: dict[str, dict[str, np.ndarray]],
    tf_freqs: np.ndarray,
) -> dict[str, Path]:
    """Write results.json, table.md, and the three SVG figures."""
    if not any(s.completed() for s in studies.values()):
        raise ReportError("no completed study to report")
    if not evals:
        raise ReportError("no evaluation reports to render")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    doc = results_document(subject_id, seed, evals, studies)
    validate_results(doc)
    paths = {
        "results": out / RESULTS_JSON,
        "table": out / TABLE_MD,
        "roc": out / ROC_SVG,
        "erp": out / ERP_SVG,
        "tf": out / TF_SVG,
    }
    paths["results"].write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    paths["table"].write_text(render_table(evals), encoding="utf-8")

    curves = {k.upper(): (rep.roc_points, rep.auc) for k, rep in evals.items()}
    paths["roc"].write_text(render_roc_svg(curves), encoding="utf-8")
    paths["erp"].write_text(render_erp_svg(erp_means), encoding="utf-8")
    paths["tf"].write_text(render_tf_maps_svg(tf_maps, tf_freqs), encoding="utf-8")
    return paths


def erp_class_means(erp_data: np.ndarray, labels: np.ndarray, channels) -> dict:
    """Average the 1-4 Hz epochs per class per channel for plotting."""
    out: dict[str, dict[str, np.ndarray]] = {}
    labels = np.asarray(labels)
    for c, ch in enumerate(channels):
        out[ch] = {
            lab: erp_data[labels == lab, c, :].mean(axis=0)
            for lab in sorted(set(labels.tolist()))
        }
    return out
