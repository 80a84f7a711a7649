import json

import numpy as np
import pytest
from scipy import stats

from attndecode import TuneError, compare_random, load_study, optimize, tpe_suggest
from attndecode.tune import (
    CategoricalDim,
    IntDim,
    LogUniformDim,
    SearchSpace,
    Study,
    Trial,
    UniformDim,
    rf_space,
    svm_space,
)


def filled_study(space, params_values, seed=0):
    study = Study(space=space, seed=seed)
    for i, (params, value) in enumerate(params_values):
        study.trials.append(Trial(index=i, params=params, value=value, status="ok"))
    return study


# -- priors and bounds ------------------------------------------------------------


def test_startup_prior_uniform_in_log_space():
    space = svm_space()
    study = Study(space=space, seed=0)
    rng = np.random.default_rng(0)
    draws = np.array([tpe_suggest(study, rng=rng)["C"] for _ in range(10_000)])
    assert draws.min() >= 1e-3 and draws.max() <= 1e3
    u = (np.log10(draws) + 3.0) / 6.0
    _, p = stats.kstest(u, "uniform")
    assert p > 0.01


def test_single_choice_categorical_always_returned():
    space = SearchSpace((UniformDim("x", 0.0, 1.0), CategoricalDim("solver", ("only",))))
    rng = np.random.default_rng(1)
    study = filled_study(
        space, [({"x": 0.1 * i, "solver": "only"}, float(i)) for i in range(15)]
    )
    for _ in range(50):
        assert tpe_suggest(study, rng=rng)["solver"] == "only"


def test_suggestions_respect_bounds_fuzzed():
    # spec invariant: bounds hold over 1e5 fuzzed suggestions
    space = SearchSpace(
        (
            UniformDim("u", -2.0, 3.0),
            LogUniformDim("l", 1e-3, 1e3),
            IntDim("i", 2, 20),
            CategoricalDim("c", ("a", "b", "z")),
        )
    )
    total = 0
    master = np.random.default_rng(42)
    for h in range(50):
        n_hist = int(master.integers(0, 30))
        hist = []
        for j in range(n_hist):
            params = space.prior_sample(master)
            hist.append((params, float(master.standard_normal())))
        study = filled_study(space, hist)
        rng = np.random.default_rng(master.integers(2**32))
        for _ in range(2000):
            params = tpe_suggest(study, rng=rng)
            assert space.contains(params), params
            assert isinstance(params["i"], int)
            total += 1
    assert total == 100_000


def test_identical_observations_no_blowup():
    space = SearchSpace((UniformDim("x", 0.0, 10.0), IntDim("k", 2, 8)))
    hist = [({"x": 5.0, "k": 4}, 0.7)] * 30
    study = filled_study(space, hist)
    rng = np.random.default_rng(3)
    for _ in range(100):
        params = tpe_suggest(study, rng=rng)
        assert 0.0 <= params["x"] <= 10.0
        assert 2 <= params["k"] <= 8


def test_tpe_concentrates_near_good_region():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    hist = [({"x": float(x)}, -((x - 2.0) ** 2)) for x in np.linspace(0.2, 9.8, 30)]
    study = filled_study(space, hist)
    rng = np.random.default_rng(4)
    draws = np.array([tpe_suggest(study, rng=rng)["x"] for _ in range(200)])
    assert np.mean(np.abs(draws - 2.0) < 2.0) > 0.8


# -- optimize loop -------------------------------------------------------------------


def quadratic(params):
    return -((params["x"] - 2.0) ** 2)


def test_budget_one_study():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    study = optimize(space, quadratic, n_trials=1, seed=0)
    assert len(study.trials) == 1
    assert study.trials[0].status == "ok"
    assert study.best_trial is study.trials[0]


def test_quadratic_benchmark_18_of_20_seeds():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    hits = 0
    for seed in range(20):
        study = optimize(space, quadratic, n_trials=50, seed=seed)
        if abs(study.best_trial.params["x"] - 2.0) < 0.5:
            hits += 1
    assert hits >= 18


def test_optimize_deterministic():
    space = svm_space()

    def obj(params):
        return -abs(np.log10(params["C"]) - 1.0) - abs(np.log10(params["gamma"]) + 2.0)

    a = optimize(space, obj, n_trials=20, seed=5)
    b = optimize(space, obj, n_trials=20, seed=5)
    assert [t.params for t in a.trials] == [t.params for t in b.trials]
    assert [t.value for t in a.trials] == [t.value for t in b.trials]
    assert a.best_trial.params == b.best_trial.params


def test_best_trial_invariant_after_every_append():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    study = Study(space=space, seed=0)
    rng = np.random.default_rng(6)
    best = -np.inf
    for i in range(40):
        params = tpe_suggest(study, rng=rng)
        value = quadratic(params)
        study.trials.append(Trial(i, params, value, "ok"))
        best = max(best, value)
        assert study.best_trial.value == best
        assert len(study.trials) == i + 1


def test_failed_trials_skipped_not_fatal():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))

    def flaky(params):
        if params["x"] > 5.0:
            raise RuntimeError("boom")
        return params["x"]

    study = optimize(space, flaky, n_trials=30, seed=1)
    statuses = {t.status for t in study.trials}
    assert "failed" in statuses and "ok" in statuses
    assert study.best_trial.value <= 5.0


def test_all_trials_failed_is_error():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))

    def broken(params):
        raise RuntimeError("always")

    with pytest.raises(TuneError, match="all trials failed"):
        optimize(space, broken, n_trials=3, seed=0)


# -- journaling / resume ----------------------------------------------------------------


def test_journal_resume_appends_without_recompute(tmp_path):
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    journal = tmp_path / "study.jsonl"
    calls = []

    def obj(params):
        calls.append(params["x"])
        return quadratic(params)

    a = optimize(space, obj, n_trials=10, seed=3, journal=journal)
    assert len(calls) == 10
    b = optimize(space, obj, n_trials=10, seed=3, journal=journal)
    assert len(calls) == 10  # nothing recomputed
    assert [t.params for t in b.trials] == [t.params for t in a.trials]

    c = optimize(space, obj, n_trials=15, seed=3, journal=journal)
    assert len(calls) == 15
    assert [t.params for t in c.trials[:10]] == [t.params for t in a.trials]

    # resumed history equals an unjournaled straight run
    d = optimize(space, quadratic, n_trials=15, seed=3)
    assert [t.params for t in d.trials] == [t.params for t in c.trials]

    lines = journal.read_text().splitlines()
    assert len(lines) == 16  # header + one line per trial
    loaded = load_study(journal, space)
    assert len(loaded.trials) == 15


def test_torn_final_line_is_dropped_and_resume_matches_straight_run(tmp_path, caplog):
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    straight = tmp_path / "straight.jsonl"
    optimize(space, quadratic, n_trials=6, seed=3, journal=straight)
    journal = tmp_path / "torn.jsonl"
    optimize(space, quadratic, n_trials=6, seed=3, journal=journal)
    journal.write_bytes(journal.read_bytes()[:-20])  # interrupted final append

    with caplog.at_level("WARNING", logger="attndecode.tune"):
        loaded = load_study(journal, space)
    assert len(loaded.trials) == 5
    assert "torn.jsonl:7: dropping an interrupted final line" in caplog.text

    resumed = optimize(space, quadratic, n_trials=6, seed=3, journal=journal)
    assert len(resumed.trials) == 6
    # the torn bytes were cut before the re-run trial was appended
    assert journal.read_bytes() == straight.read_bytes()


@pytest.mark.parametrize(
    "line_no, bad, message",
    [
        (3, '{"kind": "trial", "index": 1', r"study\.jsonl:3: bad journal line: Expecting"),
        (4, '{"kind": "note"}',
         r"study\.jsonl:4: bad journal line: ValueError.*expected a 'trial' record"),
        (2, '{"kind": "trial", "index": 0}',
         r"study\.jsonl:2: bad journal line: ValueError.*trial has no field 'params'"),
        (1, "not json", r"study\.jsonl:1: bad journal line: Expecting value"),
        (3, '{"kind": "trial", "index": 1, "params": {"x": 1.0}, "status": "ok", "value": null}',
         r"study\.jsonl:3: bad journal line: ValueError.*status 'ok' with value None"),
        (3, '{"kind": "trial", "index": 1, "params": {"x": 1.0}, "status": "ok", "value": NaN}',
         r"study\.jsonl:3: bad journal line: number NaN is not a finite float"),
        (3, '{"kind": "trial", "index": 1, "params": {"x": 1.0}, "status": "failed", "value": 0.5}',
         r"study\.jsonl:3: bad journal line: ValueError.*status 'failed' with value 0\.5"),
        (3, '{"kind": "trial", "index": 1, "params": {"x": 1.0}, "status": "done", "value": 0.5}',
         r"study\.jsonl:3: bad journal line: ValueError.*status 'done' with value 0\.5"),
        (3, '{"kind": "trial", "index": 7, "params": {"x": 1.0}, "status": "ok", "value": 0.5}',
         r"study\.jsonl:3: bad journal line: ValueError.*index 7 is not the trial's position 1"),
        (3, '{"kind": "trial", "index": 1, "params": {"x": 1.0}, "status": "ok", "value": true}',
         r"study\.jsonl:3: bad journal line: ValueError.*trial field 'value' must be a number "
         "or null, got bool"),
        (3, '{"kind": "trial", "index": true, "params": {"x": 1.0}, "status": "ok", "value": 0.5}',
         r"study\.jsonl:3: bad journal line: ValueError.*trial field 'index' must be an integer, "
         "got bool"),
        (3, '{"kind": "trial", "index": 1.0, "params": {"x": 1.0}, "status": "ok", "value": 0.5}',
         r"study\.jsonl:3: bad journal line: ValueError.*trial field 'index' must be an integer, "
         "got float"),
        (1, '{"kind": "study", "model": null, "schema_version": true, "seed": 3, '
            '"subject_id": null}',
         r"study\.jsonl:1: bad journal line: ValueError.*header field 'schema_version' must be "
         "an integer, got bool"),
    ],
    ids=["unparsable_middle", "wrong_kind", "missing_keys", "bad_header", "ok_null_value",
         "ok_nan_value", "failed_with_value", "unknown_status", "index_not_position",
         "ok_bool_value", "index_bool", "index_float", "header_version_bool"],
)
def test_bad_journal_line_names_path_and_line(tmp_path, line_no, bad, message):
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    journal = tmp_path / "study.jsonl"
    optimize(space, quadratic, n_trials=4, seed=3, journal=journal)
    lines = journal.read_text().split("\n")
    lines[line_no - 1] = bad
    journal.write_text("\n".join(lines))
    with pytest.raises(TuneError, match=message):
        load_study(journal, space)
    with pytest.raises(TuneError, match=message):
        optimize(space, quadratic, n_trials=6, seed=3, journal=journal)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.pop("criterion"), r"params \[.*\] differ from the space's"),
        (lambda p: p.update(bootstrap=True), r"params \[.*'bootstrap'.*\] differ"),
        (lambda p: p.update(max_depth="deep"), r"max_depth='deep' is outside IntDim"),
        (lambda p: p.update(n_estimators=999), r"n_estimators=999 is outside IntDim"),
        (lambda p: p.update(min_samples_leaf=2.5), r"min_samples_leaf=2\.5 is outside IntDim"),
        (lambda p: p.update(max_features="all"), r"max_features='all' is outside Categ"),
    ],
    ids=["missing_param", "extra_param", "non_numeric", "out_of_range", "non_integer",
         "unknown_choice"],
)
def test_journal_params_outside_space_name_path_and_line(tmp_path, edit, message):
    space = rf_space()
    journal = tmp_path / "study.jsonl"
    optimize(space, lambda params: 0.5, n_trials=3, seed=3, journal=journal)
    lines = journal.read_text().split("\n")
    rec = json.loads(lines[2])
    edit(rec["params"])
    lines[2] = json.dumps(rec)
    journal.write_text("\n".join(lines))
    with pytest.raises(TuneError, match=r"study\.jsonl:3: bad journal line: ValueError.*" + message):
        load_study(journal, space)


def test_journal_seed_mismatch_rejected(tmp_path):
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    journal = tmp_path / "study.jsonl"
    optimize(space, quadratic, n_trials=3, seed=3, journal=journal)
    with pytest.raises(TuneError, match="refusing to resume"):
        optimize(space, quadratic, n_trials=5, seed=4, journal=journal)


# -- shipped spaces --------------------------------------------------------------------


def test_shipped_spaces_match_hyperparameter_ranges():
    svm = svm_space()
    assert [d.name for d in svm.dims] == ["C", "gamma"]
    assert all(isinstance(d, LogUniformDim) for d in svm.dims)
    assert all((d.lo, d.hi) == (1e-3, 1e3) for d in svm.dims)

    rf = rf_space()
    by_name = {d.name: d for d in rf.dims}
    assert (by_name["n_estimators"].lo, by_name["n_estimators"].hi) == (2, 10)
    assert (by_name["max_depth"].lo, by_name["max_depth"].hi) == (5, 20)
    assert (by_name["min_samples_split"].lo, by_name["min_samples_split"].hi) == (2, 20)
    assert (by_name["min_samples_leaf"].lo, by_name["min_samples_leaf"].hi) == (2, 5)
    assert by_name["max_features"].choices == ("auto", "sqrt", "log2")
    assert by_name["criterion"].choices == ("gini", "entropy")


@pytest.mark.parametrize(
    "kind, dim",
    [("svm", d) for d in svm_space().dims]
    + [("rf", d) for d in rf_space().dims if not isinstance(d, CategoricalDim)],
    ids=lambda v: v if isinstance(v, str) else v.name,
)
def test_space_endpoints_are_the_model_ranges(kind, dim):
    from attndecode import RfHyperParams, SvmHyperParams

    hp_cls, space = (SvmHyperParams, svm_space()) if kind == "svm" else (RfHyperParams, rf_space())
    base = {d.name: d.choices[0] if isinstance(d, CategoricalDim) else d.lo for d in space.dims}
    for v in (dim.lo, dim.hi):
        assert getattr(hp_cls(**{**base, dim.name: v}), dim.name) == v
    if isinstance(dim, IntDim):
        outside = (dim.lo - 1, dim.hi + 1)
    else:
        outside = (np.nextafter(dim.lo, 0.0), np.nextafter(dim.hi, np.inf))
    for v in outside:
        with pytest.raises(ValueError, match=dim.name):
            hp_cls(**{**base, dim.name: v})


def test_rf_space_samples_build_valid_hyperparams():
    from attndecode import RfHyperParams

    rng = np.random.default_rng(8)
    for _ in range(200):
        params = rf_space().prior_sample(rng)
        RfHyperParams(**params)


def test_run_study_planted_rule_reaches_95_percent():
    from attndecode import run_study
    from test_evaluate import make_feature_matrix

    rng = np.random.default_rng(21)
    fm = make_feature_matrix(40, rng, planted_col=7, erp_gap=0.5)
    study = run_study(fm, "svm", n_trials=25, seed=3)
    assert study.best_trial.value >= 0.95
    assert len(study.trials) == 25


# -- random-search comparison ----------------------------------------------------------


def test_compare_random_constant_objective_ties_count_for_tpe():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    rate = compare_random(space, lambda p: 1.0, budget=20, n_seeds=5)
    assert rate == 1.0


def test_compare_random_budget_minimum():
    space = SearchSpace((UniformDim("x", 0.0, 10.0),))
    with pytest.raises(TuneError, match="budget"):
        compare_random(space, lambda p: 1.0, budget=19, n_seeds=3)


def test_empty_space_rejected():
    with pytest.raises(TuneError, match="empty"):
        SearchSpace(())
