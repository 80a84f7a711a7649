"""Set-up for one benchmark run, as its own fresh process.

    python3 perfbench/prepare.py OUT_DIR [synth arguments...]

Imports the package and prints the interpreter and library versions as one
JSON line. Given synth arguments, it then builds the features directory
OUT_DIR/f through the CLI's own synth, preprocess and features commands,
all in this one process.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    import numpy
    import scipy

    from attndecode import cli

    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }))
    out, synth_args = Path(argv[0]), argv[1:]
    if not synth_args:
        return 0
    for stage in (
        ["synth", "--out", str(out / "ds"), *synth_args],
        ["preprocess", "--data", str(out / "ds"), "--out", str(out / "pre")],
        ["features", "--data", str(out / "pre"), "--out", str(out / "f")],
    ):
        rc = cli.main(stage)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
