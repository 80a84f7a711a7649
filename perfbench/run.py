"""Benchmark of the attndecode pipeline: wall time of each CLI stage.

    python3 perfbench/run.py --workload signal_easy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; nothing needs installing. One client
runs the stages of a workload one after another, each as its own fresh
`python3 -m attndecode.cli` process (a closed loop with one client), and
times each stage from process spawn to process exit. Every pass gets fresh
output directories under .bench_build/perfbench/. See perfbench/NOTES.md for
the workloads, the metrics and the output checks.

With --trace 1 the run makes one untraced pass and then traced passes, in
which every stage runs under perfbench/tracer.py; it reports per-layer
times and counts and the tracing overhead instead of the end-to-end metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "attndecode"
WORK = ROOT / ".bench_build" / "perfbench"
HERE = Path(__file__).resolve().parent

N_BLOCKS = 8
# The tuning seed is the pipeline's reference seed for every workload seed,
# so a workload's trial schedule is the same prior draws on every run; the
# workload seed only makes the recording.
TUNE_SEED = 1
# evaluate scores the tuned settings on other folds than tuning used, as
# acceptance criterion 6 re-evaluates on seed 100 what it tuned on seed 0
EVAL_SEED = 101
# set-up repetitions: the signal probe is cheap, a decode build is not
SETUP_REPS = {"signal": 3, "decode": 1}
BLAS_THREADS = 1
STAGE_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no new pass starts if it would end after this


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    snr: str
    trials_per_block: int
    stages: tuple[str, ...]
    tune_trials: int = 0

    @property
    def n_trials(self) -> int:
        return N_BLOCKS * self.trials_per_block

    @property
    def decodes(self) -> bool:
        return self.tune_trials > 0


SIGNAL_STAGES = ("synth", "preprocess", "features")
DECODE_STAGES = ("tune_svm", "tune_rf", "evaluate")
STAGES = SIGNAL_STAGES + DECODE_STAGES
WORKLOADS = {
    w.name: w
    for w in (
        Workload("signal_easy", "easy", 40, SIGNAL_STAGES),
        # 10 trials: the TPE start-up phase, so the same 10 prior draws each
        # run; on easy data the same SVM and RF settings win on every seed
        Workload("decode_easy", "easy", 20, DECODE_STAGES, tune_trials=10),
        # on null data any setting wins at random and settings differ 20-fold
        # in cost, so the schedule is its first draw: a 6-tree forest of
        # depth-19 trees searching all 640 features at every node
        Workload("decode_null", "null", 40, DECODE_STAGES, tune_trials=1),
    )
}

# criterion 6: easy data must decode, null data must stay at chance
EASY_MIN = {"svm": {"mean_accuracy": 0.75, "auc": 0.85}, "rf": {"mean_accuracy": 0.70}}
CHANCE_BAND = 0.08  # |accuracy - 0.5| on 320 null trials


def stage_argv(stage: str, wl: Workload, seed: int, d: Path, feats: Path) -> list[str]:
    tune = ["--data", str(feats), "--out", str(d / "studies"), "--trials", str(wl.tune_trials),
            "--seed", str(TUNE_SEED)]
    return {
        "synth": ["synth", "--out", str(d / "ds"), *synth_args(wl, seed)],
        "preprocess": ["preprocess", "--data", str(d / "ds"), "--out", str(d / "pre")],
        "features": ["features", "--data", str(d / "pre"), "--out", str(d / "f")],
        "tune_svm": ["tune", *tune, "--model", "svm"],
        "tune_rf": ["tune", *tune, "--model", "rf"],
        "evaluate": ["evaluate", "--data", str(feats), "--studies", str(d / "studies"),
                     "--out", str(d / "report"), "--model", "both", "--seed", str(EVAL_SEED)],
    }[stage]


def synth_args(wl: Workload, seed: int) -> list[str]:
    return ["--seed", str(seed), "--snr", wl.snr, "--blocks", str(N_BLOCKS),
            "--trials-per-block", str(wl.trials_per_block)]


# -- processes -------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # stages reuse compiled bytecode as an installed package would, whatever
    # the calling shell says; only the first run in a checkout compiles it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclasses.dataclass
class Proc:
    seconds: float
    rc: int
    max_rss_kib: int
    output: str


def spawn(cmd: list[str], log: Path) -> Proc:
    """Run cmd to completion; wall time from spawn to exit, and its max RSS."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(seconds, proc.returncode, usage.ru_maxrss, log.read_text(errors="replace"))


def cli_cmd(argv: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "attndecode.cli", *argv]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *argv]


# -- artifacts -------------------------------------------------------------------


def digests(root: Path, skip=(".log", ".spans.json")) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.endswith(skip)
    }


def code_digest() -> str:
    """Identity of the code under test and of this benchmark."""
    h = hashlib.sha256()
    for base in (PACKAGE, HERE):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def feature_shape(feats: Path) -> tuple[int, int]:
    lines = (feats / "features.csv").read_text(encoding="utf-8").splitlines()
    widths = {len(line.split(",")) for line in lines}
    return len(lines) - 1, (widths.pop() if len(widths) == 1 else -1)


def trial_statuses(studies: Path) -> list[str]:
    out = []
    for journal in sorted(studies.glob("study_*.jsonl")):
        for line in journal.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec.get("kind") == "trial":
                out.append(rec["status"])
    return out


# -- a run -----------------------------------------------------------------------


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.dir = WORK / f"{wl.name}-seed{seed}-pid{os.getpid()}"
        self.notes: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.env_info: dict = {}
        self.first_digests: dict[str, str] | None = None
        self.max_rss_kib = 0
        self.n_passes = 0

    def check(self, ok: bool, what: str) -> bool:
        (self.notes if ok else self.failures).append(f"check {'ok' if ok else 'FAILED'}: {what}")
        return ok

    # set-up: the probe (signal) or the features directory (decode), SETUP_REPS times
    def setup(self) -> Path | None:
        warm_marker = WORK / "warm"
        cold = not warm_marker.is_file()
        build = synth_args(self.wl, self.seed) if self.wl.decodes else []
        reps = SETUP_REPS["decode" if build else "signal"]
        built = []
        for rep in range(-cold, reps):
            out = self.dir / f"setup{rep}"
            out.mkdir(parents=True)
            # the cold start only imports: it is what a first use pays once
            p = spawn([sys.executable, str(HERE / "prepare.py"), str(out),
                       *(build if rep >= 0 else [])], out / "setup.log")
            if not self.check(p.rc == 0, f"set-up process {rep} exited {p.rc}"):
                self.notes.append(p.output[-2000:])
                return None
            self.env_info = json.loads(next(ln for ln in p.output.splitlines() if ln[:1] == "{"))
            if rep < 0:
                warm_marker.write_text("")
                self.notes.append(f"cold first start in this checkout: {p.seconds:.3f} s "
                                  "(compiles bytecode; not in setup_s)")
                continue
            self.setup_times.append(p.seconds)
            if build:
                built.append(out)
        if not build:
            return None
        feats = built[0] / "f"
        first = digests(built[0])
        if len(built) > 1:
            self.check(all(digests(b) == first for b in built[1:]),
                       f"{len(built)} set-up builds are byte-identical")
        rows, cols = feature_shape(feats)
        self.check((rows, cols) == (self.wl.n_trials, 642),
                   f"set-up features.csv is {rows} x {cols}, want {self.wl.n_trials} x 642")
        self.compare_with_earlier_runs("setup", first)
        return feats

    def compare_with_earlier_runs(self, part: str, got: dict[str, str]) -> None:
        """Every run of the same code with the same seed writes the same bytes."""
        path = WORK / "digests" / code_digest() / f"{self.wl.name}-seed{self.seed}-{part}.json"
        if path.is_file():
            want = json.loads(path.read_text())
            same = want == got
            self.check(same, f"{part} artifacts byte-identical to an earlier run of seed {self.seed}")
            if not same:
                diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
                self.notes.append(f"differing {part} artifacts: {diff}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(got, sort_keys=True))

    def one_pass(self, k: int, feats: Path | None, traced: bool) -> dict | None:
        d = self.dir / f"pass{k}"
        d.mkdir(parents=True)
        feats = feats if feats is not None else d / "f"
        times, docs, outputs = {}, [], {}
        for stage in self.wl.stages:
            spans = d / f"{stage}.spans.json" if traced else None
            p = spawn(cli_cmd(stage_argv(stage, self.wl, self.seed, d, feats), spans),
                      d / f"{stage}.log")
            self.attempted += 1
            self.max_rss_kib = max(self.max_rss_kib, p.max_rss_kib)
            if not self.check(p.rc == 0, f"pass {k}: stage {stage} exited {p.rc}"):
                self.failed += 1
                self.notes.append(p.output[-2000:])
                return None
            times[stage] = p.seconds
            outputs[stage] = p.output
            if traced:
                docs.append((stage, json.loads(spans.read_text())))
        statuses = trial_statuses(d / "studies") if self.wl.decodes else []
        self.attempted += len(statuses)
        self.failed += sum(s != "ok" for s in statuses)
        try:
            self.check_pass(k, d, feats, statuses)
        except (OSError, KeyError, ValueError) as e:
            self.check(False, f"pass {k}: unreadable output: {e!r}")
        got = digests(d)
        if self.first_digests is None:
            self.first_digests = got
            self.compare_with_earlier_runs("stages", got)
        else:
            self.check(got == self.first_digests, f"pass {k} artifacts byte-identical to pass 0")
        return {"times": times, "docs": docs, "outputs": outputs, "dir": d}

    def check_pass(self, k: int, d: Path, feats: Path, statuses: list[str]) -> None:
        if not self.wl.decodes:
            rows, cols = feature_shape(feats)
            self.check((rows, cols) == (self.wl.n_trials, 642),
                       f"pass {k}: features.csv is {rows} x {cols}, want {self.wl.n_trials} x 642")
            return
        want = 2 * self.wl.tune_trials
        self.check(len(statuses) == want and all(s == "ok" for s in statuses),
                   f"pass {k}: {statuses.count('ok')} of {want} trials ok in fresh study journals")
        models = json.loads((d / "report" / "results.json").read_text())["models"]
        folds = f"on fold seed {EVAL_SEED}"
        if self.wl.snr == "easy":
            for kind, mins in EASY_MIN.items():
                for key, lo in mins.items():
                    v = models[kind][key]
                    self.check(v >= lo, f"pass {k}: {kind} {key} {v:.3f} >= {lo} {folds}")
        else:
            for kind, m in sorted(models.items()):
                acc = m["mean_accuracy"]
                self.check(abs(acc - 0.5) <= CHANCE_BAND,
                           f"pass {k}: {kind} accuracy {acc:.3f} (AUC {m['auc']:.3f}) "
                           f"within 0.5 +- {CHANCE_BAND} {folds}")

    def passes(self, feats: Path | None, traced: bool, t_start: float, most: float) -> list[dict]:
        """Passes for --seconds (at least one, at most `most`) within the run budget."""
        out = []
        t0 = time.perf_counter()
        while not self.failures and len(out) < most:
            if out:
                elapsed = time.perf_counter() - t0
                last_s = sum(out[-1]["times"].values())
                over = time.perf_counter() - t_start + 1.5 * last_s > RUN_BUDGET_S
                if elapsed >= self.seconds or over:
                    break
            res = self.one_pass(self.n_passes, feats, traced)
            if res is None:
                break
            self.n_passes += 1
            out.append(res)
            if self.n_passes > 1:
                shutil.rmtree(res["dir"])
        return out

    def execute(self) -> tuple[dict, dict]:
        shutil.rmtree(self.dir, ignore_errors=True)
        t_start = time.perf_counter()
        feats = self.setup()
        # with --trace 1: one untraced pass as the reference, then traced ones
        plain = self.passes(feats, False, t_start, 1 if self.trace else math.inf)
        traced = self.passes(feats, True, t_start, math.inf) if self.trace else []
        if plain and self.wl.decodes:
            self.notes.append("evaluate output: "
                              + " | ".join(plain[0]["outputs"]["evaluate"].strip().splitlines()))
        shutil.rmtree(self.dir, ignore_errors=True)
        return self.end_to_end(plain), self.per_layer(plain, traced)

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, passes: list[dict]) -> dict:
        if not passes:
            return {}
        med = statistics.median
        out = {f"{stage}_s": med([p["times"][stage] for p in passes]) for stage in self.wl.stages}
        out["wall_s"] = med([sum(p["times"].values()) for p in passes])
        out["setup_s"] = med(self.setup_times)
        out["peak_rss_mb"] = self.max_rss_kib * 1024 / 1e6
        return out

    def per_layer(self, passes: list[dict], traced: list[dict]) -> dict:
        if not self.trace or not traced:
            return {}
        aggs = [aggregate(p["docs"]) for p in traced]
        out = {name: statistics.median(a.get(name, 0.0) for a in aggs) for name, _, _ in PER_LAYER}
        for stage in STAGES:
            out[f"stage.{stage}_s"] = passes[0]["times"].get(stage, 0.0)
        plain = sum(passes[0]["times"].values())
        out["trace.overhead_s"] = statistics.median(sum(p["times"].values()) for p in traced) - plain
        self.breakdown = breakdown(traced[0]["docs"], traced[0]["times"])
        self.absent = aggs[0]["absent"]
        return out


# -- per-layer aggregation -------------------------------------------------------

# layers whose spans contain other wrapped calls; their self time is reported too
SELF_LAYERS = (
    "cli.main", "dsp.preprocess", "features.extract", "features.erp_epochs", "features.tf",
    "features.hilbert", "evaluate.build_cv_plan", "evaluate.evaluate_on_plan",
    "evaluate.cross_validate", "evaluate.train_full_model", "forest.rf_train", "tune.optimize",
)
COUNTS = (
    ("dataset.write_recording_bytes", "bytes"), ("dataset.load_recording_bytes", "bytes"),
    ("features.write_bytes", "bytes"), ("features.load_bytes", "bytes"),
    ("evaluate.save_model_bytes", "bytes"),
    ("dsp.despiked_samples", "count"), ("wavelets.cwt_power_samples", "count"),
    ("svm.smo_passes", "count"), ("svm.convergence_failures", "count"),
    ("forest.nodes", "count"), ("forest.max_depth", "count"), ("forest.split_cells", "count"),
    ("tune.failed_trials", "count"),
)


def _per_layer_metrics() -> list[tuple[str, str, str]]:
    names = ["cli.main"] + list(dict.fromkeys(name for name, *_ in LAYERS))
    out = [(f"stage.{stage}_s", "s", "lower") for stage in STAGES]
    out.append(("cli.import_s", "s", "lower"))
    for name in names:
        out.append((f"{name}_s", "s", "lower"))
        if name in SELF_LAYERS:
            out.append((f"{name}_self_s", "s", "lower"))
        out.append((f"{name}_calls", "count", "lower"))
    out += [(name, unit, "lower") for name, unit in COUNTS]
    out += [
        ("svm.sv_share", "ratio", "lower"),
        ("forest.best_split_none_share", "ratio", "lower"),
        ("trace.absent_layers", "count", "lower"),
        ("trace.hook_errors", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


PER_LAYER = _per_layer_metrics()


def _span_tables(doc: dict):
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name_id, start, end, _) in enumerate(spans):
        yield doc["names"][name_id], end - start, end - start - child[i]


def aggregate(docs: list[tuple[str, dict]]) -> dict:
    """Per-layer totals over the stage processes of one traced pass."""
    out = collections.defaultdict(float)
    absent = set()
    for _, doc in docs:
        out["cli.import_s"] += doc["import_s"]
        for name, total, self_s in _span_tables(doc):
            out[f"{name}_s"] += total
            out[f"{name}_self_s"] += self_s
            out[f"{name}_calls"] += 1
        for key, value in doc["counts"].items():
            if key == "forest.max_depth":
                out[key] = max(out[key], value)
            elif key.startswith("trace.hook_errors"):
                out["trace.hook_errors"] += value
            else:
                out[key] += value
        absent.update(doc["absent"])
    out["svm.sv_share"] = out["svm.support_vectors"] / max(out["svm.train_rows"], 1)
    out["forest.best_split_none_share"] = (
        out["forest.best_split_none"] / max(out["forest.best_split_calls"], 1))
    out["trace.absent_layers"] = len(absent)
    out = dict(out)
    out["absent"] = sorted(absent)
    return out


def breakdown(docs: list[tuple[str, dict]], times: dict) -> list[str]:
    """Per stage: its wall time and the layers with the most self time."""
    lines = []
    for stage, doc in docs:
        self_by = collections.defaultdict(float)
        total_by = collections.defaultdict(float)
        for name, total, self_s in _span_tables(doc):
            self_by[name] += self_s
            total_by[name] += total
        top = sorted(self_by.items(), key=lambda kv: -kv[1])[:6]
        lines.append(
            f"traced {stage}: {times[stage]:.3f} s wall, import {doc['import_s']:.3f} s; self time: "
            + ", ".join(f"{n} {s:.3f}" for n, s in top)
        )
        for name in ("forest.best_split", "features.extract", "dsp.preprocess"):
            if total_by.get(name):
                lines.append(f"  {name} total {total_by[name]:.3f} s "
                             f"= {total_by[name] / times[stage]:.0%} of the stage")
    return lines


# -- entry point -----------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    run = Run(wl, seed, seconds, trace)
    e2e, layers = run.execute()
    print(f"== workload {name}, seed {seed}, {'traced' if trace else 'untraced'}; "
          f"{wl.n_trials} trials x 640 features; stages {', '.join(wl.stages)}")
    info = run.env_info
    print(f"environment: python {info.get('python', platform.python_version())}, "
          f"numpy {info.get('numpy', '?')}, scipy {info.get('scipy', '?')}, nproc {nproc()}, "
          f"BLAS threads {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS)")
    for line in run.notes + run.failures:
        print(line)
    metrics = {}
    if trace and layers:
        for line in run.breakdown:
            print(line)
        if run.absent:
            print("absent layers: " + ", ".join(run.absent))
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in PER_LAYER}
    elif not trace and e2e:
        for name, value in e2e.items():
            print(f"{name} = {value:.4f} {END_TO_END_UNITS.get(name, 's')}")
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    correct = not run.failures and bool(metrics)
    return {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no attndecode package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
