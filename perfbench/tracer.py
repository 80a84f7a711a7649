"""Run one attndecode CLI stage with a span around every call into its layers.

    python3 perfbench/tracer.py SPANS_JSON -- <attndecode stage arguments>

The package is not modified. After importing attndecode.cli this script
replaces every module-level binding of each listed function object inside
attndecode.* with a timing wrapper, so calls through names imported
elsewhere (features.cwt_power, evaluate.svm_train, ...) land in the same
span. Spans stay in memory as (name, start, end, parent) and are written
to SPANS_JSON when the stage ends, together with counts derived from the
arguments and return values after each span has closed. A listed function
that no longer exists is reported as absent instead of failing the stage.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
from pathlib import Path


# -- counts: derived outside the timed span, from arguments and results -------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dir_state(path) -> dict:
    p = Path(path)
    if not p.is_dir():
        return {}
    return {f.name: (f.stat().st_size, f.stat().st_mtime_ns) for f in p.iterdir() if f.is_file()}


def _written_bytes(pos, name):
    """Bytes of files the call created or changed in its output directory."""

    def before(args, kwargs):
        return _dir_state(_arg(args, kwargs, pos, name))

    def after(counts, key, args, kwargs, result, state):
        now = _dir_state(_arg(args, kwargs, pos, name))
        counts[key + "_bytes"] += sum(v[0] for f, v in now.items() if state.get(f) != v)

    return before, after


def _read_bytes(pos, name, files=None):
    """Bytes on disk of the artifact files the call reads."""

    def after(counts, key, args, kwargs, result, state):
        root = Path(_arg(args, kwargs, pos, name))
        for f, (size, _) in _dir_state(root).items():
            if files is None or f in files():
                counts[key + "_bytes"] += size

    return None, after


def _features_files(*consts):
    def names():
        from attndecode import features

        return {getattr(features, c) for c in consts}

    return names


def _file_bytes(counts, key, args, kwargs, result, state):
    counts[key + "_bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _despiked(counts, key, args, kwargs, result, state):
    counts["dsp.despiked_samples"] += len(result[1])  # the flagged indices


def _cwt_samples(counts, key, args, kwargs, result, state):
    counts["wavelets.cwt_power_samples"] += len(_arg(args, kwargs, 0, "x"))


def _svm_model(counts, key, args, kwargs, result, state):
    counts["svm.smo_passes"] += int(result.n_passes)
    counts["svm.support_vectors"] += len(result.sv_index)
    counts["svm.train_rows"] += len(_arg(args, kwargs, 1, "y"))


def _svm_failed(counts, key, exc):
    if type(exc).__name__ == "SvmConvergenceError":
        counts["svm.convergence_failures"] += 1


def _rf_model(counts, key, args, kwargs, result, state):
    for tree in result.trees:
        counts["forest.nodes"] += int(tree.n_nodes)
        counts["forest.max_depth"] = max(counts["forest.max_depth"], int(tree.depth()))


def _split(counts, key, args, kwargs, result, state):
    n_rows = len(_arg(args, kwargs, 1, "y01"))
    counts["forest.split_cells"] += n_rows * len(_arg(args, kwargs, 2, "feature_subset"))
    counts["forest.best_split_none"] += result is None


def _failed_trials(counts, key, args, kwargs, result, state):
    counts["tune.trials"] += len(result.trials)
    counts["tune.failed_trials"] += sum(t.status != "ok" for t in result.trials)


# (span name, module, function, count hook before the span, after it, on error)
NO_HOOK = (None, None)
LAYERS = (
    ("synth.synthesize", "synth", "synthesize", NO_HOOK),
    ("dataset.write_recording", "dataset", "write_recording", _written_bytes(1, "path")),
    ("dataset.load_recording", "dataset", "load_recording", _read_bytes(0, "path")),
    ("dsp.preprocess", "dsp", "preprocess", NO_HOOK),
    ("dsp.filtfilt", "dsp", "filtfilt", NO_HOOK),
    ("dsp.despike_mad", "dsp", "despike_mad", (None, _despiked)),
    ("dsp.knn_smooth", "dsp", "knn_smooth", NO_HOOK),
    ("dsp.analytic_envelope", "dsp", "analytic_envelope", NO_HOOK),
    ("wavelets.build_wavelet_bank", "wavelets", "build_wavelet_bank", NO_HOOK),
    ("wavelets.cwt_power", "wavelets", "cwt_power", (None, _cwt_samples)),
    ("features.extract", "features", "extract_features", NO_HOOK),
    ("features.erp_epochs", "features", "erp_epochs", NO_HOOK),
    ("features.window_stats", "features", "window_stats", NO_HOOK),
    ("features.tf", "features", "_tf_extract", NO_HOOK),
    ("features.db_normalize", "features", "db_normalize", NO_HOOK),
    ("features.hilbert", "features", "hilbert_features", NO_HOOK),
    ("features.envelope_statistics", "features", "envelope_statistics", NO_HOOK),
    ("features.write", "features", "write_feature_matrix", _written_bytes(1, "path")),
    ("features.write", "features", "write_tf_class_maps", _written_bytes(2, "path")),
    ("features.load", "features", "load_feature_matrix",
     _read_bytes(0, "path", _features_files("FEATURES_CSV", "EPOCHS_CSV"))),
    ("features.load", "features", "load_tf_class_maps",
     _read_bytes(0, "path", _features_files("TF_MAPS_CSV"))),
    ("evaluate.build_cv_plan", "evaluate", "build_cv_plan", NO_HOOK),
    ("evaluate.lda_fit", "features", "lda_fit", NO_HOOK),
    ("evaluate.evaluate_on_plan", "evaluate", "evaluate_on_plan", NO_HOOK),
    ("evaluate.roc_auc", "evaluate", "roc_auc", NO_HOOK),
    ("evaluate.cross_validate", "evaluate", "cross_validate", NO_HOOK),
    ("evaluate.train_full_model", "evaluate", "train_full_model", NO_HOOK),
    ("evaluate.save_model", "evaluate", "save_model", (None, _file_bytes)),
    ("report.render_report", "report", "render_report", NO_HOOK),
    ("svm.svm_train", "svm", "svm_train", (None, _svm_model)),
    ("svm.svm_decision", "svm", "svm_decision", NO_HOOK),
    ("forest.rf_train", "forest", "rf_train", (None, _rf_model)),
    ("forest.best_split", "forest", "best_split", (None, _split)),
    ("forest.rf_predict_proba", "forest", "rf_predict_proba", NO_HOOK),
    ("tune.tpe_suggest", "tune", "tpe_suggest", NO_HOOK),
    ("tune.optimize", "tune", "optimize", (None, _failed_trials)),
)
ON_ERROR = {"svm.svm_train": _svm_failed}


class Tracer:
    """In-memory spans and counts for one stage process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, start, end, parent span index]
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = collections.defaultdict(int)
        self.absent: list[str] = []

    def _hook(self, name, kind, call):
        # a hook that no longer fits the function's signature costs its
        # count, never the stage
        try:
            return call()
        except Exception as e:  # noqa: BLE001
            key = f"trace.hook_errors.{name}.{kind}"
            self.counts[key] += 1
            if self.counts[key] == 1:
                print(f"tracer: {name} {kind} hook: {e!r}", file=sys.stderr)
            return None

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, counts, perf = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                state = self._hook(name, "before", lambda: before(args, kwargs))
            span = [name_id, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[2] = perf()
                stack.pop()
                if on_error is not None:
                    self._hook(name, "error", lambda: on_error(counts, name, e))
                raise
            span[2] = perf()
            stack.pop()
            if after is not None:
                self._hook(
                    name, "after", lambda: after(counts, name, args, kwargs, result, state)
                )
            return result

        return traced

    def install(self) -> None:
        """Replace every module-level binding of each listed function."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "attndecode" or n.startswith("attndecode."))
        ]
        for name, mod_name, attr, (before, after) in LAYERS:
            mod = sys.modules.get(f"attndecode.{mod_name}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{name} ({mod_name}.{attr})")
                continue
            wrapped = self.wrap(name, fn, before, after, ON_ERROR.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    def dump(self, path, import_s: float, rc: int) -> None:
        doc = {
            "import_s": import_s,
            "rc": rc,
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <attndecode stage arguments>", file=sys.stderr)
        return 2
    out, stage_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import attndecode.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    # the stage itself is the root span
    root = tracer.wrap("cli.main", cli.main)
    rc = 1
    try:
        rc = root(stage_args)
    finally:
        tracer.dump(out, import_s, rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
