import json

import pytest

from golden.regenerate import DIGESTS, pipeline_digests, versions


def test_cpu_independent_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if golden["versions"] != versions():
        pytest.skip(f"golden digests were made with {golden['versions']}, "
                    f"this run has {versions()}")
    digests = pipeline_digests(tmp_path)
    moved = sorted(rel for rel, digest in golden["sha256"].items() if digests[rel] != digest)
    assert moved == [], f"artifact bytes moved: {moved} (see tests/golden/regenerate.py)"
