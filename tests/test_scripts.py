"""Each script under scripts/ runs to completion on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (tiny arguments, the start of its header line)
SCRIPTS = {
    "occlusion_study.py": (["--beams", "8", "--width", "64"], " v [m/s]"),
    "loss_comparison.py": (["--steps", "2", "--scans", "2", "--width", "64"], "1 training scans, 2 steps each"),
    "digest.py": (["--ops", "1"], '{"workload": "train", "seed": 1, "ops": 1, "sha256": "'),
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    args, header = SCRIPTS[script]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith(header)
