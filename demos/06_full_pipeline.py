"""End-to-end run through the library API: dataset -> report directory.

Equivalent to the CLI sequence
    attndecode synth / preprocess / features / tune / evaluate
at a small scale; the report directory gets results.json, table.md, and the
three SVG figures.
"""

from pathlib import Path

from attndecode import (
    ModelSpec,
    SynthConfig,
    cross_validate,
    extract_features,
    preprocess,
    run_study,
    save_model,
    synthesize,
    train_full_model,
)
from attndecode.report import erp_class_means, render_report
from attndecode.wavelets import DEFAULT_FREQS_HZ

SEED = 4
out = Path("out/demo_report")

rec = synthesize(SynthConfig(n_blocks=2, trials_per_block=20, seed=SEED))
pre = preprocess(rec)
fm, tf_maps = extract_features(pre)
print(f"features ready: {fm.values.shape}")

studies, evals = {}, {}
out.mkdir(parents=True, exist_ok=True)
for kind in ("svm", "rf"):
    studies[kind] = run_study(fm, kind, n_trials=8, seed=SEED, subject_id=rec.subject_id)
    spec = ModelSpec(kind, studies[kind].best_trial.params)
    evals[kind] = cross_validate(fm, spec, seed=SEED)
    save_model(train_full_model(fm, spec, seed=SEED), out / f"model_{kind}.json")
    print(f"{kind}: tuned best {studies[kind].best_trial.value:.3f}, "
          f"CV accuracy {evals[kind].mean_accuracy:.3f}, AUC {evals[kind].auc:.3f}")

paths = render_report(
    out,
    subject_id=rec.subject_id,
    seed=SEED,
    evals=evals,
    studies=studies,
    erp_means=erp_class_means(fm.erp.data, fm.labels, rec.channels),
    tf_maps=tf_maps,
    tf_freqs=DEFAULT_FREQS_HZ,
)
print("\nreport artifacts:")
for name, p in paths.items():
    print(f"  {name:8s} {p}")
print("\n" + (out / "table.md").read_text())
