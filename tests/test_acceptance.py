"""Acceptance suite: one test per release criterion, one PASS line each.

Criterion 6 tunes both models on full-size synthetic datasets and is the
long pole (a few minutes); everything else is seconds. Tuning is
deterministic per seed, so the whole suite is reproducible.
"""

import json
import time

import numpy as np
import pytest

import attndecode as ad
from attndecode.features import N_FEATURES, column_names, db_normalize, parse_column
from attndecode.svm import kkt_violations
from attndecode.tune import LogUniformDim, SearchSpace

from test_evaluate import brute_force_auc
from test_forest import brute_force_split
from test_svm import full_alpha, qp_oracle_dual_objective, separable_problem, xor_problem

TUNE_BUDGET = 25
TUNE_SEED = 0
EVAL_SEED = 100


def report(criterion: str, detail: str):
    print(f"PASS  {criterion}: {detail}")


@pytest.fixture(scope="module")
def easy_fm():
    rec = ad.synthesize(ad.SynthConfig(seed=201, snr_preset="easy"))
    fm, _ = ad.extract_features(ad.preprocess(rec))
    return fm


@pytest.fixture(scope="module")
def null_fm():
    rec = ad.synthesize(ad.SynthConfig(seed=202, snr_preset="null"))
    fm, _ = ad.extract_features(ad.preprocess(rec))
    return fm


def test_criterion_1_structural_fidelity(easy_fm):
    t0 = time.time()
    names = column_names()
    fams = [parse_column(n)[0] for n in names]
    n_erp = fams.count("erp") + fams.count("lda")
    n_tf = fams.count("tf")
    n_hilb = fams.count("hilb")
    assert (n_erp, n_tf, n_hilb) == (344, 56, 240)
    assert len(names) == N_FEATURES == 640
    assert easy_fm.values.shape == (320, 640)  # 8-block protocol
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("1 structural fidelity", f"640 = 344+56+240 columns, 320 trials ({elapsed:.2f}s)")


def test_criterion_2_dsp_oracles():
    t0 = time.time()
    # |H| in dB from the zero-phase gain |H|^2
    stop_db = 10.0 * np.log10(ad.bandpass_gain(5, 0.4, 40.0, 250.0, 60.0))
    assert stop_db <= -20.0
    worst_pass = np.max(
        np.abs(10.0 * np.log10(ad.bandpass_gain(5, 0.4, 40.0, 250.0, np.arange(4.0, 30.01, 0.5))))
    )
    assert worst_pass <= 1.0

    t = np.arange(int(6 * 250)) / 250.0
    env = ad.analytic_envelope(
        np.cos(2 * np.pi * 10.0 * t), ad.BandDefinition("alpha", 8.0, 14.0), 250.0
    )
    flatness = np.max(np.abs(env[125:-125] - 1.0))
    assert flatness < 0.02

    bank = ad.build_wavelet_bank(fs=250.0)
    for tone in (5.0, 10.0, 20.0, 35.0):
        x = np.sin(2 * np.pi * tone * t)
        power = ad.cwt_power(x, bank)
        peak = bank.freqs[np.argmax(power[:, 250:-250].mean(axis=1))]
        assert peak == tone
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        "2 dsp oracles",
        f"60 Hz at {stop_db:.1f} dB, passband |{worst_pass:.2f}| dB, envelope "
        f"within {100 * flatness:.1f}%, peaks exact ({elapsed:.1f}s)",
    )


def test_criterion_3_db_identity():
    rng = np.random.default_rng(3)
    base = rng.uniform(0.1, 4.0, size=40)
    equal = db_normalize(np.tile(base[:, None], (1, 250)), base)
    np.testing.assert_allclose(equal, 0.0, atol=1e-9)
    tenfold = db_normalize(10.0 * np.tile(base[:, None], (1, 250)), base)
    np.testing.assert_allclose(tenfold, 10.0, atol=1e-9)
    report("3 dB identity", "equal power -> 0 dB, tenfold -> 10 dB (1e-9)")


def test_criterion_4_classifier_oracles():
    t0 = time.time()
    # SVM KKT suite on 5 seeds of a separable 100-point problem
    worst_kkt = 0.0
    for seed in range(5):
        x, y = separable_problem(seed, n_per_class=50, gap=1.5)
        hp = ad.SvmHyperParams(C=5.0, gamma=0.3)
        model = ad.svm_train(x, y, hp, tol=1e-3)
        viol = kkt_violations(
            full_alpha(model, len(y)), y, ad.svm_decision(model, x), hp.C
        )
        worst_kkt = max(worst_kkt, float(viol.max()))
    assert worst_kkt <= 1e-3 + 1e-6

    # dual objective vs generic QP solver on a 40-point problem
    x, y = xor_problem()
    hp = ad.SvmHyperParams(C=10.0, gamma=2.0)
    model = ad.svm_train(x, y, hp)
    oracle = qp_oracle_dual_objective(x, y, hp.C, hp.gamma)
    rel = abs(model.dual_objective - oracle) / abs(oracle)
    assert rel < 1e-3

    # RF split choices vs exhaustive brute force on 20 random 30x5 sets
    from attndecode.forest import best_split

    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((30, 5))
        ys = rng.integers(0, 2, size=30)
        if ys.sum() in (0, 30):
            ys[0] = 1 - ys[0]
        for criterion in ("gini", "entropy"):
            got = best_split(xs, ys, np.arange(5), 2, criterion)
            assert got == brute_force_split(xs, ys, 2, criterion)

    # AUC equals pair counting on 100 random instances up to n = 200
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        scores = np.round(rng.standard_normal(n), 1)
        ys = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(ys > 0) or np.all(ys < 0):
            ys[0] = -ys[0]
        _, auc = ad.roc_auc(scores, ys)
        assert auc == brute_force_auc(scores, ys)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        "4 classifier oracles",
        f"KKT max {worst_kkt:.1e}, QP rel err {rel:.1e}, 20 split + 100 AUC "
        f"oracle matches ({elapsed:.1f}s)",
    )


def test_criterion_5_tpe_beats_random():
    t0 = time.time()
    space = SearchSpace(
        (LogUniformDim("x", 1e-3, 1e3), LogUniformDim("y", 1e-3, 1e3))
    )

    def neg_sphere(params):
        return -(np.log10(params["x"]) ** 2 + np.log10(params["y"]) ** 2)

    rate = ad.compare_random(space, neg_sphere, budget=50, n_seeds=20)
    elapsed = time.time() - t0
    assert rate >= 0.8
    assert elapsed < 60.0
    report("5 tuner benchmark", f"TPE win rate {rate:.2f} over 20 paired runs ({elapsed:.1f}s)")


def _tuned_eval(fm, kind):
    study = ad.run_study(fm, kind, n_trials=TUNE_BUDGET, seed=TUNE_SEED)
    spec = ad.ModelSpec(kind, study.best_trial.params)
    return ad.cross_validate(fm, spec, seed=EVAL_SEED)


def test_criterion_6_end_to_end_decoding(easy_fm, null_fm):
    t0 = time.time()
    svm_easy = _tuned_eval(easy_fm, "svm")
    assert svm_easy.mean_accuracy >= 0.75
    assert svm_easy.auc >= 0.85
    rf_easy = _tuned_eval(easy_fm, "rf")
    assert rf_easy.mean_accuracy >= 0.70

    svm_null = _tuned_eval(null_fm, "svm")
    rf_null = _tuned_eval(null_fm, "rf")
    for rep in (svm_null, rf_null):
        assert abs(rep.mean_accuracy - 0.5) <= 0.08
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(
        "6 end-to-end decoding",
        f"easy: SVM {svm_easy.mean_accuracy:.3f}/{svm_easy.auc:.3f}, "
        f"RF {rf_easy.mean_accuracy:.3f}; null: SVM {svm_null.mean_accuracy:.3f}, "
        f"RF {rf_null.mean_accuracy:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_7_determinism(tmp_path, easy_fm):
    from attndecode.cli import main

    outputs = []
    for run in ("a", "b"):
        root = tmp_path / run
        assert main(["synth", "--out", str(root / "ds"), "--seed", "5", "--snr",
                     "easy", "--blocks", "2", "--trials-per-block", "8"]) == 0
        assert main(["preprocess", "--data", str(root / "ds"), "--out", str(root / "pre")]) == 0
        assert main(["features", "--data", str(root / "pre"), "--out", str(root / "f")]) == 0
        assert main(["tune", "--data", str(root / "f"), "--out", str(root / "s"),
                     "--model", "both", "--trials", "2", "--seed", "5"]) == 0
        assert main(["evaluate", "--data", str(root / "f"), "--studies", str(root / "s"),
                     "--out", str(root / "r"), "--model", "both", "--seed", "5"]) == 0
        outputs.append({
            p.relative_to(root).as_posix(): p.read_bytes()
            for stage in ("ds", "pre", "f", "s", "r")
            for p in sorted((root / stage).rglob("*"))
            if p.is_file()
        })
    assert sorted(outputs[0]) == sorted(outputs[1])
    for name, data in outputs[0].items():
        assert data == outputs[1][name], f"{name} differs between same-seed runs"
    json.loads(outputs[0]["r/results.json"])  # parses

    # model serialization round-trips preserve predictions exactly
    for kind, params in (
        ("svm", {"C": 10.0, "gamma": 0.001}),
        ("rf", {"n_estimators": 5, "max_depth": 8, "min_samples_split": 4,
                "min_samples_leaf": 2, "max_features": "sqrt", "criterion": "gini"}),
    ):
        model = ad.train_full_model(easy_fm, ad.ModelSpec(kind, params), seed=3)
        loaded = ad.model_from_json(ad.model_to_json(model))
        a = model.decision(easy_fm.values, easy_fm.erp.data)
        b = loaded.decision(easy_fm.values, easy_fm.erp.data)
        np.testing.assert_array_equal(a, b)
    report("7 determinism", f"{len(outputs[0])} artifacts byte-identical; "
           "serialized predictions exact")
