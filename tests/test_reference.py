"""The numpy-only signal chain against scipy's, region by region and feature
family by feature family (reference.py says what each side computes).

Every tolerance was pinned from the worst case measured on synth 2 x 8 seed
5, written beside it, with about 2x headroom. The reference's short odd
padding (33 samples at order 5) leaves end transients that the package's
10 s extension does not: against a sosfiltfilt with 30 s of padding, the
reference's filtered signal is off by 0.51 of the signal maximum in the last
10 s and the package's by 1.2e-4. A change that exceeds a tolerance reports
it; it does not loosen it.
"""

import numpy as np
import pytest

import reference
from attndecode import SynthConfig, bandpass_gain, extract_features, preprocess, synthesize
from attndecode.features import HILBERT_COL_START, N_ERP_STAT_COLS, N_TF_COLS, TF_COL_START
from attndecode.recording import DEFAULT_BANDS

FS = 250.0


@pytest.fixture(scope="module")
def raw():
    return synthesize(SynthConfig(n_blocks=2, trials_per_block=8, seed=5))


@pytest.fixture(scope="module")
def pre(raw):
    return preprocess(raw)


@pytest.fixture(scope="module")
def ref_pre(raw):
    return reference.preprocess(raw)


@pytest.mark.parametrize(
    "order, lo, hi", [(5, 0.4, 40.0), *((4, b.lo, b.hi) for b in DEFAULT_BANDS)]
)
def test_closed_form_gain_matches_sos_response(order, lo, hi):
    freqs = np.fft.rfftfreq(20000, 1.0 / FS)
    expected = reference.sos_gain(reference.butter_sos(order, lo, hi, FS), freqs, FS)
    got = bandpass_gain(order, lo, hi, FS, freqs)
    assert np.max(np.abs(got - expected)) <= 5e-12  # worst 2.2e-12 (order 5)
    passed = expected > 1e-6
    rel = np.abs(got - expected)[passed] / expected[passed]
    assert np.max(rel) <= 3e-11  # worst 1.2e-11 (order 5)


def _regions(rec):
    """{name: slice} of the regions compared, in samples."""
    fs = int(rec.fs)
    last = rec.n_blocks - 1
    n = rec.samples.shape[1]
    regions = {
        "first 1 s": slice(0, fs),
        "last 10 s": slice(n - 10 * fs, n),
        "block 0 baseline": rec.phase_slice(0, "baseline"),
        "last block activity": rec.phase_slice(last, "activity"),
    }
    for b in range(last):
        regions[f"block {b} activity"] = rec.phase_slice(b, "activity")
    return regions


# z units; the reference's signal maximum is 11.5
REGION_TOLERANCES = {
    "first 1 s": 1.5,  # worst 0.71
    "last 10 s": 30.0,  # worst 14.5: the reference's end transient
    "block 0 baseline": 2e-2,  # worst 8.1e-3
    "last block activity": 7e-3,  # worst 3.1e-3
    "block 0 activity": 3e-4,  # worst 1.2e-4
}


def test_preprocessed_samples_match_reference_by_region(pre, ref_pre):
    regions = _regions(pre)
    assert regions.keys() == REGION_TOLERANCES.keys()
    diff = np.abs(pre.samples - ref_pre.samples)
    worst = {name: float(diff[:, sl].max()) for name, sl in regions.items()}
    over = {name: d for name, d in worst.items() if d > REGION_TOLERANCES[name]}
    assert not over, f"regions beyond tolerance: {over}"


# largest |change - reference| in a column over the column's largest |reference|
FAMILY_TOLERANCES = {
    "erp": 1.5e-4,  # worst 5.9e-5 (erp:Oz:w0650_0900:var); no count moves
    "tf": 7e-3,  # worst 3.1e-3 (tf:C4:kurt); no peak frequency moves
    "hilb": 1.5e-4,  # worst 5.7e-5 (hilb:Oz:gamma:energy)
}


def test_feature_families_match_reference(pre, ref_pre):
    fm, _ = extract_features(pre)
    got = {
        "erp": fm.values[:, :N_ERP_STAT_COLS],
        "tf": fm.values[:, TF_COL_START : TF_COL_START + N_TF_COLS],
        "hilb": fm.values[:, HILBERT_COL_START:],
    }
    expected = reference.features(ref_pre)
    for family, tol in FAMILY_TOLERANCES.items():
        diff = np.abs(got[family] - expected[family])
        scale = np.abs(expected[family]).max(axis=0)  # 0 for a column of zero counts
        worst = float((diff / np.where(scale > 0.0, scale, 1.0)).max())
        assert np.all(diff <= tol * scale), f"{family}: {worst:.3g} > {tol}"
