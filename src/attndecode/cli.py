"""Command-line pipeline: synth -> preprocess -> features -> tune -> evaluate.

Each stage reads the previous stage's artifact and writes its own:
dataset dir -> preprocessed dataset dir -> features dir (features.csv,
erp_epochs.csv, tf_class_means.csv, features_meta.json) -> study JSONL ->
report dir. synth, tune and evaluate take --seed, tune and evaluate take
--model, and tune takes --trials; identical seeds give byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import dataset, dsp, evaluate, features, report, synth, tune, wavelets
from .recording import RecordingError


class CliError(ValueError):
    pass


MODEL_CHOICES = (*evaluate.MODEL_KINDS, "both")


def _model_kinds(model: str) -> list[str]:
    return list(evaluate.MODEL_KINDS) if model == "both" else [model]


FEATURES_META = "features_meta.json"


@dataclass(frozen=True)
class FeaturesMeta:
    """features_meta.json: whose features a directory holds, and how many trials."""

    subject_id: str
    fs: float
    n_trials: int


def cmd_synth(args) -> int:
    rec = synth.synthesize(
        synth.SynthConfig(
            n_blocks=args.blocks,
            trials_per_block=args.trials_per_block,
            snr_preset=args.snr,
            seed=args.seed,
            subject_id=args.subject,
        )
    )
    dataset.write_recording(rec, args.out)
    print(f"wrote dataset: {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    rec = dataset.load_recording(args.data)
    dataset.write_recording(dsp.preprocess(rec), args.out)
    print(f"wrote preprocessed dataset: {args.out}")
    return 0


def cmd_features(args) -> int:
    rec = dataset.load_recording(args.data)
    if not rec.extra.get("preprocessed"):
        print(
            "warning: input does not look preprocessed (no 'preprocessed' flag)",
            file=sys.stderr,
        )
    fm, maps = features.extract_features(rec)
    features.write_feature_matrix(fm, args.out)
    features.write_tf_class_maps(maps, wavelets.DEFAULT_FREQS_HZ, args.out)
    meta = FeaturesMeta(rec.subject_id, rec.fs, fm.n_trials)
    (Path(args.out) / FEATURES_META).write_text(
        json.dumps(asdict(meta), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote features: {args.out} ({fm.n_trials} x {fm.values.shape[1]})")
    return 0


def _subject_id(data_dir, fm) -> str:
    """The subject in data_dir's features_meta.json, checked against fm, or "unknown"."""
    p = Path(data_dir) / FEATURES_META
    if not p.is_file():
        return "unknown"
    doc = dataset.parse_json(p.read_text(encoding="utf-8"), str(p), CliError)
    meta = dataset.read_json(FeaturesMeta, doc, str(p), CliError)
    if meta.n_trials != fm.n_trials:
        raise CliError(f"{p}: n_trials is {meta.n_trials}, but {features.FEATURES_CSV} has "
                       f"{fm.n_trials} trials")
    return meta.subject_id


def cmd_tune(args) -> int:
    fm = features.load_feature_matrix(args.data)
    subject_id = _subject_id(args.data, fm)
    for kind in _model_kinds(args.model):
        journal = Path(args.out) / f"study_{kind}.jsonl"  # optimize creates the directory
        study = tune.run_study(
            fm,
            kind,
            n_trials=args.trials,
            seed=args.seed,
            subject_id=subject_id,
            journal=journal,
        )
        best = study.best_trial
        print(f"{kind}: best CV accuracy {best.value:.3f} with "
              f"{report.format_params(best.params)} ({journal})")
    return 0


def cmd_evaluate(args) -> int:
    fm = features.load_feature_matrix(args.data)
    subject_id = _subject_id(args.data, fm)
    tf_maps, tf_freqs = features.load_tf_class_maps(args.data)
    studies_dir = Path(args.studies)
    out = Path(args.out)

    studies: dict[str, tune.Study] = {}
    evals: dict[str, evaluate.EvalReport] = {}
    out.mkdir(parents=True, exist_ok=True)
    plan = evaluate.build_cv_plan(fm, args.seed)
    for kind in _model_kinds(args.model):
        journal = studies_dir / f"study_{kind}.jsonl"
        if not journal.is_file():
            raise CliError(f"missing artifact: {journal}")
        study = tune.load_study(journal, tune.space_for(kind))
        if study.best_trial is None:
            raise CliError(f"{journal}: study has no completed trials")
        studies[kind] = study
        spec = evaluate.ModelSpec(kind, study.best_trial.params)
        evals[kind] = evaluate.evaluate_on_plan(plan, spec, args.seed)
        model = evaluate.train_full_model(fm, spec, seed=args.seed)
        evaluate.save_model(model, out / f"model_{kind}.json")

    erp_means = report.erp_class_means(fm.erp.data, fm.labels, features.CHANNELS)
    paths = report.render_report(
        out,
        subject_id=subject_id,
        seed=args.seed,
        evals=evals,
        studies=studies,
        erp_means=erp_means,
        tf_maps=tf_maps,
        tf_freqs=tf_freqs,
    )
    for kind, rep in sorted(evals.items()):
        print(f"{kind}: mean accuracy {rep.mean_accuracy:.3f}, AUC {rep.auc:.3f}")
    print(f"wrote report: {paths['results']}")
    return 0


# Every flag any stage takes; argparse alone declares, defaults and checks them.
FLAGS = {
    "--data": dict(required=True, help="input artifact path"),
    "--out": dict(required=True, help="output artifact path"),
    "--seed": dict(type=int, default=0),
    "--snr": dict(choices=synth.SNR_PRESETS, default="easy"),
    "--blocks": dict(type=int, default=8),
    "--trials-per-block": dict(type=int, default=40),
    "--subject": dict(default="synth"),
    "--model": dict(choices=MODEL_CHOICES, default="both"),
    "--trials": dict(type=int, default=50, help="tuning budget"),
    "--studies": dict(required=True, help="directory with study journals"),
}

# name, function, help, and exactly the flags the stage reads
STAGES = (
    ("synth", cmd_synth, "generate a synthetic dataset",
     "--out --seed --snr --blocks --trials-per-block --subject"),
    ("preprocess", cmd_preprocess, "run the preprocessing chain", "--data --out"),
    ("features", cmd_features, "extract the 640-column feature matrix", "--data --out"),
    ("tune", cmd_tune, "TPE hyperparameter search", "--data --out --seed --model --trials"),
    ("evaluate", cmd_evaluate, "cross-validate best params and report",
     "--data --out --seed --model --studies"),
)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: with prefix matching a flag one stage
    # lacks could resolve to a longer one (synth --trials to --trials-per-block)
    parser = argparse.ArgumentParser(
        prog="attndecode",
        description="Offline EEG sustained-attention decoding pipeline",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help, flags in STAGES:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # single-line, machine-parsable stage errors
        if isinstance(e, (RecordingError, ValueError, OSError, RuntimeError)):
            msg = str(e).replace("\n", " ")
            print(f"error: {args.command}: {msg}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
