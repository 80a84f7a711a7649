"""Tree-structured Parzen Estimator search over hyperparameter spaces.

Until N_STARTUP trials have completed, each dimension is sampled from its
prior (uniform in the transformed space: log10 for log-uniform dimensions).
Afterwards the completed trials are split at the GAMMA_QUANTILE of the
objective (maximization, so the top fraction is "good"); each dimension gets
a density l from the good observations and g from the bad ones - truncated
Gaussian kernels with adaptive bandwidths for numeric dimensions, add-one
smoothed counts for categoricals - and the suggestion is the best of
N_CANDIDATES draws from l ranked by l(x)/g(x). These are the algorithm's
fixed settings (Bergstra et al., NeurIPS 2011), not options.

The SVM and forest spaces are built from the ranges and choices that
svm.SvmHyperParams and forest.RfHyperParams validate against.

Studies persist as an append-only JSON-lines journal (header line plus one
line per trial) so an interrupted run can resume.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import parse_json, read_json
from .forest import CRITERION_CHOICES, INT_RANGES, MAX_FEATURES_CHOICES, seed_key
from .svm import HP_RANGE, SvmHyperParams

log = logging.getLogger(__name__)

N_STARTUP = 10
GAMMA_QUANTILE = 0.25
N_CANDIDATES = 24
DENSITY_FLOOR = 1e-12
BANDWIDTH_FLOOR_FRACTION = 0.01

JOURNAL_VERSION = 1


class TuneError(ValueError):
    """Invalid search space, study, or budget."""


# -- search-space dimensions ----------------------------------------------------


@dataclass(frozen=True)
class UniformDim:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise TuneError(f"{self.name}: lo must be < hi")

    def bounds_t(self):
        return float(self.lo), float(self.hi)

    def to_t(self, v):
        return float(v)

    def from_t(self, t):
        return float(min(max(t, self.lo), self.hi))

    def prior(self, rng):
        return self.from_t(rng.uniform(*self.bounds_t()))


@dataclass(frozen=True)
class LogUniformDim(UniformDim):
    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise TuneError(f"{self.name}: need 0 < lo < hi for a log scale")

    def bounds_t(self):
        return math.log10(self.lo), math.log10(self.hi)

    def to_t(self, v):
        return math.log10(float(v))

    def from_t(self, t):
        return float(min(max(10.0**t, self.lo), self.hi))


@dataclass(frozen=True)
class IntDim(UniformDim):
    """Integer range; treated as continuous for density fitting and rounded
    to the nearest in-bounds integer at suggestion time."""

    lo: int
    hi: int

    def from_t(self, t):
        return int(min(max(round(t), self.lo), self.hi))


@dataclass(frozen=True)
class CategoricalDim:
    name: str
    choices: tuple

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        if not self.choices:
            raise TuneError(f"{self.name}: empty choices")

    def prior(self, rng):
        return self.choices[rng.integers(len(self.choices))]


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise TuneError("empty search space")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise TuneError(f"duplicate dimension names in {names}")

    def prior_sample(self, rng) -> dict:
        return {d.name: d.prior(rng) for d in self.dims}

    def check(self, params: dict) -> None:
        """Raise ValueError unless params gives every dimension, and only
        those, a value inside it."""
        names = {d.name for d in self.dims}
        if set(params) != names:
            raise ValueError(f"params {sorted(params)} differ from the space's {sorted(names)}")
        for d in self.dims:
            v = params[d.name]
            if isinstance(d, CategoricalDim):
                ok = v in d.choices
            else:
                kind = numbers.Integral if isinstance(d, IntDim) else numbers.Real
                ok = isinstance(v, kind) and not isinstance(v, bool) and d.lo <= v <= d.hi
            if not ok:
                raise ValueError(f"{d.name}={v!r} is outside {d}")

    def contains(self, params: dict) -> bool:
        try:
            self.check(params)
        except ValueError:
            return False
        return True


def svm_space() -> SearchSpace:
    return SearchSpace(tuple(LogUniformDim(f.name, *HP_RANGE) for f in fields(SvmHyperParams)))


def rf_space() -> SearchSpace:
    # prior_sample and tpe_suggest draw one dimension at a time in this order
    return SearchSpace(
        tuple(IntDim(name, lo, hi) for name, (lo, hi) in INT_RANGES.items())
        + (
            CategoricalDim("max_features", MAX_FEATURES_CHOICES),
            CategoricalDim("criterion", CRITERION_CHOICES),
        )
    )


def space_for(model_kind: str) -> SearchSpace:
    if model_kind == "svm":
        return svm_space()
    if model_kind == "rf":
        return rf_space()
    raise TuneError(f"unknown model kind {model_kind!r}")


# -- study ------------------------------------------------------------------------


@dataclass
class Trial:
    index: int
    params: dict
    value: float | None
    status: str  # "ok" | "failed"


@dataclass(frozen=True)
class _Header:
    """A journal's first line; seed is compared by value, as written."""

    schema_version: int
    seed: object
    model: str | None
    subject_id: str | None


@dataclass
class Study:
    space: SearchSpace
    seed: object
    subject_id: str | None = None
    model_kind: str | None = None
    trials: list[Trial] = field(default_factory=list)

    def completed(self) -> list[Trial]:
        return [t for t in self.trials if t.status == "ok"]

    @property
    def best_trial(self) -> Trial | None:
        done = self.completed()
        if not done:
            return None
        return max(done, key=lambda t: t.value)


# -- kernel-density machinery -------------------------------------------------


class _NumericDensity:
    """Parzen estimator: the uniform prior plus one truncated-Gaussian kernel
    per observation.

    Kernel bandwidths follow the classic adaptive rule (distance to the
    neighbouring observations, bounds included), floored at 1% of the range.
    A single bandwidth shared across a set washes out dense clusters, which
    lets the sampler spam one spot forever; per-observation widths make the
    "bad" density grow wherever sampling concentrates. The prior component
    keeps exploration alive when all observations cluster.
    """

    def __init__(self, obs_t: np.ndarray, lo_t: float, hi_t: float):
        from scipy.special import ndtr

        self.obs = np.asarray(obs_t, float)
        self.lo = lo_t
        self.hi = hi_t
        span = hi_t - lo_t
        # Count-dependent minimum width: broad while evidence is thin,
        # shrinking toward the hard 1%-of-range floor as points accumulate.
        floor = max(
            BANDWIDTH_FLOOR_FRACTION * span, span / min(100, len(self.obs) + 1)
        )
        order = np.argsort(self.obs)
        ext = np.concatenate(([lo_t], self.obs[order], [hi_t]))
        widths = np.maximum(ext[1:-1] - ext[:-2], ext[2:] - ext[1:-1])
        bw = np.empty_like(self.obs)
        bw[order] = widths
        self.bw = np.clip(bw, floor, span)
        self.mass = np.maximum(
            ndtr((hi_t - self.obs) / self.bw) - ndtr((lo_t - self.obs) / self.bw),
            DENSITY_FLOOR,
        )

    def sample_many(self, rng, m: int) -> np.ndarray:
        from scipy.special import ndtr, ndtri

        n = len(self.obs)
        comp = rng.integers(0, n + 1, size=m)  # component 0 is the prior
        out = rng.uniform(self.lo, self.hi, size=m)
        kernel = comp > 0
        if kernel.any():
            mu = self.obs[comp[kernel] - 1]
            bw = self.bw[comp[kernel] - 1]
            a = ndtr((self.lo - mu) / bw)
            b = ndtr((self.hi - mu) / bw)
            u = rng.uniform(a, b)
            out[kernel] = np.clip(mu + bw * ndtri(u), self.lo, self.hi)
        return out

    def log_pdf_many(self, x: np.ndarray) -> np.ndarray:
        z = (x[:, None] - self.obs[None, :]) / self.bw[None, :]
        phi = np.exp(-0.5 * z * z) / (self.bw[None, :] * math.sqrt(2.0 * math.pi))
        dens = (1.0 / (self.hi - self.lo) + (phi / self.mass).sum(axis=1)) / (
            len(self.obs) + 1
        )
        return np.log(np.maximum(dens, DENSITY_FLOOR))


class _CategoricalDensity:
    """Observation counts with add-one smoothing."""

    def __init__(self, choices: tuple, observed: list):
        counts = np.array([1.0 + sum(1 for o in observed if o == c) for c in choices])
        self.choices = choices
        self.probs = counts / counts.sum()

    def sample_many(self, rng, m: int) -> np.ndarray:
        return rng.choice(len(self.choices), p=self.probs, size=m)

    def log_pdf_many(self, idx: np.ndarray) -> np.ndarray:
        return np.log(np.maximum(self.probs[idx], DENSITY_FLOOR))


def _density(dim, observed: list):
    if isinstance(dim, CategoricalDim):
        return _CategoricalDensity(dim.choices, observed)
    return _NumericDensity(np.array([dim.to_t(v) for v in observed]), *dim.bounds_t())


def tpe_suggest(study: Study, *, rng: np.random.Generator) -> dict:
    """Next parameter vector for the study; always inside the space bounds."""
    space = study.space
    done = study.completed()
    if len(done) < N_STARTUP:
        return space.prior_sample(rng)

    # with N_STARTUP >= 2 completed trials, both sets are non-empty
    ranked = sorted(done, key=lambda t: -t.value)
    n_good = math.ceil(GAMMA_QUANTILE * len(ranked))
    good, bad = ranked[:n_good], ranked[n_good:]

    scores = np.zeros(N_CANDIDATES)
    drawn = {}
    for d in space.dims:
        l, g = (_density(d, [t.params[d.name] for t in part]) for part in (good, bad))
        xs = l.sample_many(rng, N_CANDIDATES)
        scores += l.log_pdf_many(xs) - g.log_pdf_many(xs)
        drawn[d.name] = xs

    best = int(np.argmax(scores))
    out = {}
    for d in space.dims:
        v = drawn[d.name][best]
        out[d.name] = d.choices[int(v)] if isinstance(d, CategoricalDim) else d.from_t(v)
    return out


# -- optimization loops -----------------------------------------------------------


def optimize(
    space: SearchSpace,
    objective,
    n_trials: int,
    seed=0,
    sampler: str = "tpe",
    subject_id: str | None = None,
    model_kind: str | None = None,
    journal=None,
) -> Study:
    """Maximize objective(params) over the space for a fixed trial budget.

    A failed objective marks its trial failed and the loop continues; the
    study fails only if every trial failed. With a journal path, existing
    trials are loaded first and new ones appended, one JSON line each.
    """
    if n_trials < 1:
        raise TuneError(f"budget must be >= 1, got {n_trials}")
    study = Study(space=space, seed=seed, subject_id=subject_id, model_kind=model_kind)
    json_seed = int(seed) if isinstance(seed, numbers.Integral) else list(seed_key(seed))
    journal_path = Path(journal) if journal is not None else None
    if journal_path is not None and journal_path.exists():
        study = load_study(journal_path, space)
        if study.seed != json_seed or study.model_kind != model_kind:
            raise TuneError(
                f"{journal_path}: journal was created with seed={study.seed}, "
                f"model={study.model_kind}; refusing to resume with different settings"
            )
        with journal_path.open("r+b") as fh:  # cut off an interrupted append
            fh.truncate(fh.read().rfind(b"\n") + 1)
    elif journal_path is not None:
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": "study", **asdict(_Header(JOURNAL_VERSION, json_seed, model_kind,
                                                    subject_id))}
        journal_path.write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")

    for i in range(len(study.trials), n_trials):
        rng = np.random.default_rng(seed_key(seed, i))
        if sampler == "tpe":
            params = tpe_suggest(study, rng=rng)
        elif sampler == "random":
            params = space.prior_sample(rng)
        else:
            raise TuneError(f"unknown sampler {sampler!r}")
        try:
            value = float(objective(params))
            trial = Trial(index=i, params=params, value=value, status="ok")
        except Exception as e:  # noqa: BLE001 - trial failure must not kill the study
            log.warning("trial %d failed: %s", i, e)
            trial = Trial(index=i, params=params, value=None, status="failed")
        study.trials.append(trial)
        if journal_path is not None:
            with journal_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"kind": "trial", **asdict(trial)}, sort_keys=True) + "\n")

    if not study.completed():
        raise TuneError("all trials failed")
    return study


def load_study(path, space: SearchSpace) -> Study:
    """Read a study journal. Text after the last newline is an interrupted
    append: it is dropped with a warning, and a resumed run re-runs that trial
    (trials are seeded by index). Any other bad line fails naming path:line:
    a field of the wrong JSON type, trial params outside the space, an index
    other than the trial's position, or a status and value other than "ok"
    with a finite number or "failed" with null."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines.pop():  # "" unless the last append was cut short
        log.warning("%s:%d: dropping an interrupted final line", path, len(lines) + 1)
    if not lines:
        raise TuneError(f"{path}: empty journal")
    records = []
    for line_no, line in enumerate(lines, start=1):
        kind = "study" if line_no == 1 else "trial"
        doc = parse_json(line, f"{path}:{line_no}: bad journal line", TuneError)
        try:
            if not isinstance(doc, dict) or doc.get("kind") != kind:
                raise ValueError(f"expected a {kind!r} record")
            if kind == "study":
                rec = read_json(_Header, doc, "header", ValueError, seed=doc.get("seed"))
            else:
                rec = read_json(Trial, doc, "trial", ValueError)
                if rec.index != line_no - 2:
                    raise ValueError(f"index {rec.index} is not the trial's position {line_no - 2}")
                ok = rec.status == "ok" and rec.value is not None and math.isfinite(rec.value)
                if not (ok or rec.status == "failed" and rec.value is None):
                    raise ValueError(f"status {rec.status!r} with value {rec.value!r}: need 'ok' "
                                     "with a finite value or 'failed' with null")
                space.check(rec.params)
        except (TypeError, ValueError) as e:
            raise TuneError(f"{path}:{line_no}: bad journal line: {e!r}") from e
        records.append(rec)
    header, *trials = records
    if header.schema_version != JOURNAL_VERSION:
        raise TuneError(f"{path}: not a version-{JOURNAL_VERSION} study journal")
    return Study(space=space, seed=header.seed, subject_id=header.subject_id,
                 model_kind=header.model, trials=trials)


def run_study(
    fm,
    model_kind: str,
    n_trials: int,
    seed=0,
    subject_id: str | None = None,
    journal=None,
) -> Study:
    """Tune one model's hyperparameters to maximize mean 5-fold CV accuracy.

    The CV folds (and fold-time LDA/standardization) are fixed per study so
    every trial sees the same objective landscape.
    """
    from .evaluate import ModelSpec, build_cv_plan, evaluate_on_plan

    space = space_for(model_kind)
    plan = build_cv_plan(fm, seed)

    def objective(params: dict) -> float:
        return evaluate_on_plan(plan, ModelSpec(model_kind, params), seed).mean_accuracy

    return optimize(
        space,
        objective,
        n_trials,
        seed=seed,
        sampler="tpe",
        subject_id=subject_id,
        model_kind=model_kind,
        journal=journal,
    )


def compare_random(
    space: SearchSpace, objective, budget: int, n_seeds: int, seed=0
) -> float:
    """Fraction of paired seeded runs where TPE's best >= random search's best."""
    if budget < 20:
        raise TuneError(f"budget must be >= 20, got {budget}")
    wins = 0
    for s in range(n_seeds):
        tpe_best = optimize(
            space, objective, budget, seed=seed_key(seed, s, 0), sampler="tpe"
        ).best_trial.value
        rnd_best = optimize(
            space, objective, budget, seed=seed_key(seed, s, 1), sampler="random"
        ).best_trial.value
        if tpe_best >= rnd_best:
            wins += 1
    return wins / n_seeds
