"""Command-line pipeline: synth -> preprocess -> features -> tune -> evaluate.

Each stage reads the previous stage's artifact and writes its own:
dataset dir -> preprocessed dataset dir -> features dir (features.csv,
erp_epochs.csv, tf_class_means.csv, features_meta.json) -> study JSONL ->
report dir. --seed threads through every stage; identical seeds give
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import dataset, dsp, evaluate, features, report, synth, tune, wavelets
from .recording import RecordingError


class CliError(ValueError):
    pass


MODEL_CHOICES = (*evaluate.MODEL_KINDS, "both")


@dataclass
class RunConfig:
    """Per-run values; JSON round-trips losslessly via to/from_json. The
    preprocessing chain and the band set are constants of dsp and recording."""

    data: str | None = None
    out: str | None = None
    model: str = "both"
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_CHOICES:
            raise CliError(f"model must be one of {MODEL_CHOICES}, got {self.model!r}")
        if self.trials < 1:
            raise CliError(f"trials must be >= 1, got {self.trials}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        doc = dataset.read_json(dict, json.loads(text), "config", CliError)
        unknown = sorted(set(doc) - set(asdict(cls())))
        if unknown:
            raise CliError(f"unknown config keys {unknown}")
        return dataset.read_json(cls, {**asdict(cls()), **doc}, "config", CliError)


def _load_config(args) -> RunConfig:
    """Defaults, then the --config file, then the flags given."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise CliError(f"missing config file: {path}")
        try:
            cfg = RunConfig.from_json(path.read_text(encoding="utf-8"))
        except ValueError as e:
            raise CliError(f"{path}: {e}") from e
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _require(cfg: RunConfig, field_name: str) -> str:
    v = getattr(cfg, field_name)
    if not v:
        raise CliError(f"missing --{field_name} (flag or config file)")
    return v


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
    cfg = _load_config(args)
    rec = synth.synthesize(
        synth.SynthConfig(
            n_blocks=args.blocks,
            trials_per_block=args.trials_per_block,
            snr_preset=args.snr,
            seed=cfg.seed,
            subject_id=args.subject,
        )
    )
    out = _require(cfg, "out")
    dataset.write_recording(rec, out)
    print(f"wrote dataset: {out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _load_config(args)
    rec = dataset.load_recording(_require(cfg, "data"))
    out = dsp.preprocess(rec)
    out_dir = _require(cfg, "out")
    dataset.write_recording(out, out_dir)
    print(f"wrote preprocessed dataset: {out_dir}")
    return 0


def cmd_features(args) -> int:
    cfg = _load_config(args)
    rec = dataset.load_recording(_require(cfg, "data"))
    if not rec.extra.get("preprocessed"):
        print(
            "warning: input does not look preprocessed (no 'preprocessed' flag)",
            file=sys.stderr,
        )
    out = _require(cfg, "out")
    fm, maps = features.extract_features(rec)
    features.write_feature_matrix(fm, out)
    features.write_tf_class_maps(maps, wavelets.DEFAULT_FREQS_HZ, out)
    meta = FeaturesMeta(rec.subject_id, rec.fs, fm.n_trials)
    (Path(out) / FEATURES_META).write_text(
        json.dumps(asdict(meta), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote features: {out} ({fm.n_trials} x {fm.values.shape[1]})")
    return 0


def _subject_id(data_dir, fm) -> str:
    """The subject in data_dir's features_meta.json, checked against fm, or "unknown"."""
    p = Path(data_dir) / FEATURES_META
    if not p.is_file():
        return "unknown"
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CliError(f"{p}: {e}") from e
    meta = dataset.read_json(FeaturesMeta, doc, str(p), CliError)
    if meta.n_trials != fm.n_trials:
        raise CliError(f"{p}: n_trials is {meta.n_trials}, but {features.FEATURES_CSV} has "
                       f"{fm.n_trials} trials")
    return meta.subject_id


def cmd_tune(args) -> int:
    cfg = _load_config(args)
    data = _require(cfg, "data")
    fm = features.load_feature_matrix(data)
    subject_id = _subject_id(data, fm)
    out = Path(_require(cfg, "out"))
    out.mkdir(parents=True, exist_ok=True)
    for kind in _model_kinds(cfg.model):
        journal = out / f"study_{kind}.jsonl"
        study = tune.run_study(
            fm,
            kind,
            n_trials=cfg.trials,
            seed=cfg.seed,
            subject_id=subject_id,
            journal=journal,
        )
        best = study.best_trial
        print(
            f"{kind}: best CV accuracy {best.value:.3f} with "
            f"{report.format_params(best.params)} ({journal})"
        )
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    data = _require(cfg, "data")
    fm = features.load_feature_matrix(data)
    subject_id = _subject_id(data, fm)
    tf_maps, tf_freqs = features.load_tf_class_maps(data)
    studies_dir = Path(args.studies)
    out = Path(_require(cfg, "out"))

    studies: dict[str, tune.Study] = {}
    evals: dict[str, evaluate.EvalReport] = {}
    out.mkdir(parents=True, exist_ok=True)
    plan = evaluate.build_cv_plan(fm, cfg.seed)
    for kind in _model_kinds(cfg.model):
        journal = studies_dir / f"study_{kind}.jsonl"
        if not journal.is_file():
            raise CliError(f"missing artifact: {journal}")
        study = tune.load_study(journal, tune.space_for(kind))
        if study.best_trial is None:
            raise CliError(f"{journal}: study has no completed trials")
        studies[kind] = study
        spec = evaluate.ModelSpec(kind, study.best_trial.params)
        evals[kind] = evaluate.evaluate_on_plan(plan, spec, cfg.seed)
        model = evaluate.train_full_model(fm, spec, seed=cfg.seed)
        evaluate.save_model(model, out / f"model_{kind}.json")

    erp_means = report.erp_class_means(fm.erp.data, fm.labels, features.CHANNELS)
    paths = report.render_report(
        out,
        subject_id=subject_id,
        seed=cfg.seed,
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


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: with prefix matching a flag one stage
    # lacks could resolve to a longer one (synth --trials to --trials-per-block)
    parser = argparse.ArgumentParser(
        prog="attndecode",
        description="Offline EEG sustained-attention decoding pipeline",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, help, func, data=True, decode=False):
        """A subcommand with the flags it reads: only tune and evaluate take
        --model and --trials."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if data:
            p.add_argument("--data", default=None, help="input artifact path")
        p.add_argument("--out", default=None, help="output artifact path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="RunConfig JSON file")
        if decode:
            p.add_argument("--model", choices=MODEL_CHOICES, default=None)
            p.add_argument("--trials", type=int, default=None, help="tuning budget")
        p.set_defaults(func=func)
        return p

    p = stage("synth", "generate a synthetic dataset", cmd_synth, data=False)
    p.add_argument("--snr", choices=synth.SNR_PRESETS, default="easy")
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--trials-per-block", type=int, default=40)
    p.add_argument("--subject", default="synth")
    stage("preprocess", "run the preprocessing chain", cmd_preprocess)
    stage("features", "extract the 640-column feature matrix", cmd_features)
    stage("tune", "TPE hyperparameter search", cmd_tune, decode=True)
    p = stage("evaluate", "cross-validate best params and report", cmd_evaluate, decode=True)
    p.add_argument("--studies", required=True, help="directory with study journals")
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
