"""Pipeline-level metamorphic relations, checked bit for bit.

Each test runs a stage twice, on an input and on a transformed copy of it,
and checks how the two outputs must relate. The relations hold whatever the
artifact bytes are, so they also judge a change that moves those bytes.
"""

import dataclasses

import numpy as np
import pytest

from attndecode.dsp import preprocess
from attndecode.features import extract_features, parse_column
from attndecode.recording import CHANNELS
from attndecode.synth import SynthConfig, synthesize

# row i of the permuted recording is row PERM[i] of the original
PERM = (3, 7, 0, 5, 1, 6, 2, 4)


@pytest.fixture(scope="module")
def raw():
    return synthesize(SynthConfig(n_blocks=2, trials_per_block=8, seed=5))


@pytest.fixture(scope="module")
def pre(raw):
    return preprocess(raw)


@pytest.mark.parametrize("k", [-3, 1, 4])
def test_preprocess_ignores_a_power_of_two_gain(raw, pre, k):
    scaled = preprocess(dataclasses.replace(raw, samples=raw.samples * 2.0**k))
    assert np.array_equal(scaled.samples, pre.samples)


def test_permuting_channels_permutes_rows_and_feature_columns(raw, pre):
    permuted = preprocess(dataclasses.replace(raw, samples=raw.samples[list(PERM)]))
    assert np.array_equal(permuted.samples, pre.samples[list(PERM)])

    fm, _ = extract_features(pre)
    fm_p, _ = extract_features(permuted)
    assert np.array_equal(fm_p.erp.data, fm.erp.data[:, list(PERM)])
    at = {name: j for j, name in enumerate(fm.columns)}
    checked = 0
    for j, name in enumerate(fm_p.columns):
        family, channel, rest = parse_column(name)
        if family == "lda":  # filled at fold time, not by extract_features
            continue
        source = f"{family}:{CHANNELS[PERM[CHANNELS.index(channel)]]}:{rest}"
        assert np.array_equal(fm_p.values[:, j], fm.values[:, at[source]]), name
        checked += 1
    assert checked == 632
