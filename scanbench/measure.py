"""Latency summaries, memory high-water mark and the environment record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path

import numpy
import scipy

MIN_ABOVE_TAIL = 10


def tail(samples) -> dict:
    """The highest percentile that still has ten samples above it.

    That is the eleventh-largest sample, at percentile ``100 * (n - 10) / n``
    by nearest rank. It moves smoothly with the sample count, so runs of
    slightly different lengths report comparable tails. A run with fewer
    than 20 samples has no such percentile above the median; it reports the
    median, and ``above`` < 10 says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - MIN_ABOVE_TAIL
    if rank < n / 2:
        return {"pct": 50.0, "value": statistics.median(ordered), "n": n, "above": n // 2}
    return {"pct": 100.0 * rank / n, "value": ordered[rank - 1], "n": n, "above": MIN_ABOVE_TAIL}


def peak_rss_mib() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_build(config_module) -> str:
    try:
        deps = config_module.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():  # do not report an enclosing repository
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, which names the code in a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, blas_threads: int, seed: int, inputs: dict) -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_threads": blas_threads,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src" / "scanseg"),
        "seed": seed,
        "inputs": inputs,
    }
