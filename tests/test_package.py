import json
import os
import subprocess
import sys
import types
from pathlib import Path

import attndecode


def test_all_lists_resolvable_public_names_and_no_modules():
    assert len(set(attndecode.__all__)) == len(attndecode.__all__)
    for name in attndecode.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(attndecode, name), types.ModuleType), name


def test_importing_the_cli_loads_every_module_but_no_heavy_scipy():
    # Every stage is a fresh process, so what the CLI imports is paid on each
    # one; perfbench's tracer needs every attndecode module in sys.modules.
    package_dir = Path(attndecode.__file__).parent
    env = {**os.environ, "PYTHONPATH": str(package_dir.parent)}
    code = "import json, sys, attndecode.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    loaded = set(json.loads(out.stdout))
    heavy = {"scipy.signal", "scipy.interpolate", "scipy.special", "scipy.fft", "scipy.spatial"}
    assert not heavy & loaded
    ours = {f"attndecode.{p.stem}" for p in package_dir.glob("*.py") if p.stem != "__init__"}
    assert ours <= loaded, sorted(ours - loaded)
