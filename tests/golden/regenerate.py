"""Regenerate digests.json: the SHA-256 of each CPU-independent artifact of
one small fixed pipeline, with the numpy and scipy versions it ran on.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only for a change that moves artifact bytes on purpose, and list the
moved files in CHANGES.md; it prints which digests changed against the
committed file. features.csv is pinned with its tf:* columns dropped, and
tf_class_means.csv is left out: the TF cells still follow numpy's SIMD log10.
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
# features.csv without its tf:* columns, the part that does not depend on the CPU
FEATURES_NO_TF = "f/features.csv (tf:* dropped)"


def versions() -> dict:
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def pipeline_digests(root) -> dict:
    """Run synth 2 x 8 at seed 5, preprocess and features under root; the
    SHA-256 of each artifact in ARTIFACTS and of FEATURES_NO_TF."""
    root = Path(root)
    for argv in (
        ["synth", "--out", f"{root}/ds", "--seed", "5", "--blocks", "2",
         "--trials-per-block", "8"],
        ["preprocess", "--data", f"{root}/ds", "--out", f"{root}/pre"],
        ["features", "--data", f"{root}/pre", "--out", f"{root}/f"],
    ):
        if main(argv) != 0:
            raise RuntimeError(f"stage failed: {' '.join(argv)}")
    digests = {rel: hashlib.sha256((root / rel).read_bytes()).hexdigest() for rel in ARTIFACTS}
    rows = [line.split(",") for line in (root / "f/features.csv").read_text("utf-8").splitlines()]
    keep = [j for j, name in enumerate(rows[0]) if not name.startswith("tf:")]
    kept = "".join(",".join(row[j] for j in keep) + "\n" for row in rows)
    digests[FEATURES_NO_TF] = hashlib.sha256(kept.encode("utf-8")).hexdigest()
    return digests


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"versions": versions(), "sha256": pipeline_digests(tmp)}
    if old and old["versions"] != doc["versions"]:
        print(f"versions changed: {old['versions']} -> {doc['versions']}")
    old_sha = old.get("sha256", {})
    for rel, digest in doc["sha256"].items():
        if old_sha.get(rel) != digest:
            print(f"{'new' if rel not in old_sha else 'changed'}: {rel}")
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
