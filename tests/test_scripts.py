"""Each script under scripts/ runs to completion on tiny arguments."""

import json
import os
import statistics
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
    "bench_record.py": (["--workloads", "prep", "--seeds", "1", "--seconds", "0.1", "--out", "-"], "bench_record: 1 checkout(s)"),
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


def _record(seeds, **metrics):
    """A bench_record record of the infer workload, one value per seed."""
    summaries = {
        name: {"unit": unit, "values": values, "min": min(values), "median": statistics.median(values), "max": max(values)}
        for name, (unit, values) in metrics.items()
    }
    return {"seeds": seeds, "workloads": {"infer": {"metrics": summaries}}}


def test_bench_record_compares_medians_against_the_bounds(tmp_path):
    a = _record([1, 2, 3], **{"op_s.p50": ("s", [1.0, 1.1, 1.2]), "peak_rss_mb": ("MiB", [100.0, 101.0, 102.0])})
    b = _record([1, 2, 3], **{"op_s.p50": ("s", [1.5, 1.6, 1.7]), "peak_rss_mb": ("MiB", [95.0, 101.5, 96.0])})
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, rec in zip(paths, (a, b)):
        path.write_text(json.dumps(rec))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--compare", *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = {line.split()[0]: line for line in done.stdout.splitlines()[1:]}
    assert list(lines) == ["infer:", "op_s.p50", "peak_rss_mb"]
    # op_s.p50: 1.1 -> 1.6 s is 45% worse, past the 25% bound, with no overlap
    assert "+45.5% (worse, beyond its 25% bound); ranges disjoint; second better in 0 of 3 pairs" in lines["op_s.p50"]
    # peak_rss_mb: 101 -> 96 MiB is better, and the ranges overlap
    assert "-5.0% (better); ranges overlap; second better in 2 of 3 pairs" in lines["peak_rss_mb"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]
