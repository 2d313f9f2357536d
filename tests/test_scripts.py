"""The scripts under scripts/ run to completion at their default scales.

full_sweep.py proves every registered check; find_separations.py finds
the minimal separating structures and maps, leg by leg, where the
Hayashi-Samuels hypothesis of tt42 and tt43 is needed.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from topoideal.verify import REGISTRY

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_full_sweep_passes_every_registered_check():
    passed = {line.split()[0] for line in _run("full_sweep.py").splitlines()
              if line.startswith("  ") and line.endswith(" PASS")}
    assert passed == set(REGISTRY)


def test_find_separations_needs_hayashi_samuels_on_the_forward_legs():
    rows = {(check, direction, hypothesis): verdict for check, direction, hypothesis, verdict
            in re.findall(r"^(tt4[23]) (fwd|bwd) under +(\w+): (holds|fails)",
                          _run("find_separations.py"), re.MULTILINE)}
    assert len(rows) == 8
    for check in ("tt42", "tt43"):
        assert rows[check, "fwd", "none"] == "fails"
        for direction in ("fwd", "bwd"):
            assert rows[check, direction, "hayashi_samuels"] == "holds"
