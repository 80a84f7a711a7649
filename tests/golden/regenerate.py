"""Regenerate digests.json: the SHA-256 of each CPU-independent artifact of
one small fixed pipeline, with the numpy and scipy versions it ran on.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only for a change that moves artifact bytes on purpose, and list the
moved files in CHANGES.md. features.csv and tf_class_means.csv are left out:
their TF cells still follow numpy's SIMD log10.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy
import scipy

from attndecode.cli import main

DIGESTS = Path(__file__).with_name("digests.json")
ARTIFACTS = (
    "ds/meta.json", "ds/recording.csv", "pre/meta.json", "pre/recording.csv",
    "f/erp_epochs.csv",
)


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def pipeline_digests(root) -> dict:
    """Run synth 2 x 8 at seed 5, preprocess and features under root; the
    SHA-256 of each artifact in ARTIFACTS."""
    root = Path(root)
    for argv in (
        ["synth", "--out", f"{root}/ds", "--seed", "5", "--blocks", "2",
         "--trials-per-block", "8"],
        ["preprocess", "--data", f"{root}/ds", "--out", f"{root}/pre"],
        ["features", "--data", f"{root}/pre", "--out", f"{root}/f"],
    ):
        if main(argv) != 0:
            raise RuntimeError(f"stage failed: {' '.join(argv)}")
    return {rel: hashlib.sha256((root / rel).read_bytes()).hexdigest() for rel in ARTIFACTS}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"versions": versions(), "sha256": pipeline_digests(tmp)}
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
