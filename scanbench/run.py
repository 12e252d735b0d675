#!/usr/bin/env python3
"""Run one scanseg benchmark workload and print its metrics.

    python3 scanbench/run.py --workload {train,infer,prep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy. The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. The lines before it give the environment, the failures and
the same metrics under the names of the workload (``train_step_s.p50``...).

``--workload all`` runs the three workloads one after the other, each in its
own process, and prints their end-to-end metrics together.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "infer", "prep")
CHILD_TIMEOUT_S = 900


def pin_blas_threads() -> int:
    """One BLAS thread per usable core; must run before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program() -> None:
    package = ROOT / "src" / "scanseg"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"scanbench: no scanseg sources under {package}")
    sys.path[0] = str(ROOT)  # the script's own directory would shadow stdlib names
    sys.path.insert(1, str(ROOT / "src"))
    import scanseg

    if Path(scanseg.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"scanbench: imported scanseg from {scanseg.__file__}, not from {package}")


def _table_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<9} {note}".rstrip()


def named_metrics(workload, values: dict[str, float], attempted: int, failed: int) -> dict[str, dict]:
    """The end-to-end metrics of one run, given by value under their
    benchmark names, under the workload's own names."""
    label, field, unit = workload.throughput
    return {
        "setup_s": {"value": values["setup_s"], "unit": "s"},
        label: {"value": values[f"{field}_per_s"], "unit": unit},
        f"{workload.op_label}.p50": {"value": values["op_s.p50"], "unit": "s"},
        f"{workload.op_label}.tail": {"value": values["op_s.tail"], "unit": "s"},
        "peak_rss_mb": {"value": values["peak_rss_mb"], "unit": "MiB"},
        "error_rate": {"value": failed / attempted, "unit": "failed/op"},
    }


def run_one(args) -> int:
    threads = pin_blas_threads()
    import_program()
    from scanbench import measure, runner
    from scanbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    result = runner.run(lambda: cls(args.seed), args.seconds, bool(args.trace))
    env = measure.environment(ROOT, threads, args.seed, result.workload.inputs())
    failed = len(result.failures)

    print(f"scanbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    for i, message in sorted(result.failures.items())[:10]:
        print(f"failed op {i}: {message}")
    if args.trace:
        values = runner.per_layer(result)
        table = runner.per_layer_table()
        (n_traced, traced_s), (n_untraced, untraced_s) = result.busy(True), result.busy(False)
        print(
            f"traced {n_traced} ops at {n_traced / traced_s:.4g} ops/s, "
            f"untraced {n_untraced} at {n_untraced / untraced_s:.4g} ops/s; per-layer, per traced op:"
        )
        for name, unit, _ in table:
            computed = "computed" if name.endswith((".gflop", ".useful_flop_ratio", ".gflop_per_s", ".bytes_moved")) else ""
            print(_table_line(name, values[name], unit, computed))
    else:
        values, tail = runner.end_to_end(result)
        table = runner.END_TO_END
        tail_note = f"p{tail['pct']:.1f} of {tail['n']} ops, {tail['above']} above"
        if tail["above"] < measure.MIN_ABOVE_TAIL:
            tail_note += " (run too short for a tail: fewer than 10 above)"
        notes = {
            "setup_s": f"median of {len(result.setup_s)} set-ups",
            f"{cls.op_label}.p50": f"{tail['n']} ops",
            f"{cls.op_label}.tail": tail_note,
            "error_rate": f"{failed} of {result.attempted}",
        }
        for name, m in named_metrics(cls, values, result.attempted, failed).items():
            print(_table_line(name, m["value"], m["unit"], notes.get(name, "")))
    metrics = {row[0]: {"value": values[row[0]], "unit": row[1]} for row in table}
    print(json.dumps({"correct": failed == 0, "attempted": result.attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; then the twelve metrics together."""
    import_program()
    from scanbench.workloads import WORKLOADS

    named: dict[str, dict] = {}
    totals = {"attempted": 0, "failed": 0}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"scanbench: workload {workload} exited with {done.returncode}")
        last = json.loads(done.stdout.splitlines()[-1])
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        values = {name: m["value"] for name, m in last["metrics"].items()}
        named[workload] = named_metrics(WORKLOADS[workload], values, last["attempted"], last["failed"])
    metrics = {
        "setup_s": {"value": sum(named[w]["setup_s"]["value"] for w in WORKLOAD_NAMES), "unit": "s"},
        "peak_rss_mb": {"value": max(named[w]["peak_rss_mb"]["value"] for w in WORKLOAD_NAMES), "unit": "MiB"},
        "error_rate": {"value": totals["failed"] / totals["attempted"], "unit": "failed/op"},
    }
    for w in WORKLOAD_NAMES:
        metrics.update({k: v for k, v in named[w].items() if k not in metrics})
    print("all workloads (setup_s summed, peak_rss_mb the largest, error_rate over all ops):")
    for name, m in metrics.items():
        print(_table_line(name, m["value"], m["unit"]))
    print(json.dumps({"correct": totals["failed"] == 0, **totals, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all reports end-to-end metrics only")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
