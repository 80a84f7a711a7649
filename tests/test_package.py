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


PACKAGE_DIR = Path(attndecode.__file__).parent


def _modules_loaded_by_cli_import() -> set[str]:
    """sys.modules of a fresh interpreter after `import attndecode.cli`."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    code = "import json, sys, attndecode.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return set(json.loads(out.stdout))


def test_importing_the_cli_loads_every_module_but_no_heavy_scipy():
    # Every stage is a fresh process, so what the CLI imports is paid on each
    # one; perfbench's tracer needs every attndecode module in sys.modules.
    loaded = _modules_loaded_by_cli_import()
    heavy = {"scipy.signal", "scipy.interpolate", "scipy.special", "scipy.fft", "scipy.spatial"}
    assert not heavy & loaded
    ours = {f"attndecode.{p.stem}" for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"}
    assert ours <= loaded, sorted(ours - loaded)


def test_importing_the_cli_loads_no_network_stack():
    # no stage touches the network; urllib.request alone adds http.client, ssl
    # and email to the start-up of every stage
    assert "urllib.request" not in _modules_loaded_by_cli_import()



SIGNAL_STAGES = """
import json, sys
from attndecode.cli import main
root = sys.argv[1]
for argv in (["synth", "--out", f"{root}/ds", "--seed", "5", "--blocks", "2",
              "--trials-per-block", "8"],
             ["preprocess", "--data", f"{root}/ds", "--out", f"{root}/pre"],
             ["features", "--data", f"{root}/pre", "--out", f"{root}/f"]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_signal_stages_import_no_scipy(tmp_path):
    # synth, preprocess and features run on numpy alone: scipy.signal alone
    # cost each stage about 1 s and 70 MB
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    out = subprocess.run(
        [sys.executable, "-c", SIGNAL_STAGES, str(tmp_path)], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert [m for m in loaded if m.startswith("scipy")] == []
