#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics over several seeds, and compare
two records.

    python3 scripts/bench_record.py --seeds 1 2 3 4 5 --seconds 20 --out BENCH_1.json
    python3 scripts/bench_record.py --seeds 1 2 3 4 5 --seconds 20 \\
        --checkout ../parent --out BENCH_0.json --checkout . --out BENCH_1.json
    python3 scripts/bench_record.py --compare BENCH_0.json BENCH_1.json

Record mode runs ``scanbench/run.py --workload W --seed S --seconds T`` in
each checkout (default: this one) for every workload of ``BENCHMARK.json``
and every seed, and parses each run's last line, the harness's JSON result,
and its ``env`` line. With several checkouts the runs alternate: each
workload and seed runs in every checkout in turn before the next, the order
reversed at every other seed, so a change in the host's load falls on both
sides. Each checkout's record goes
to its ``--out`` (``-`` prints it): the git sha and whether the tracked
files differ from it, the seeds, the seconds, the rest of the environment
of the first run, and per workload its inputs and each end-to-end metric's
unit, values in seed order, min, median and max.

Compare mode reads ``better`` and ``bound`` of each end-to-end metric from
``BENCHMARK.json`` and prints, per workload, each side's median and
quartiles, the change of the median, whether a worse median is beyond the
bound, whether the two ranges of values overlap, and in how many seed pairs
the second side is better. It writes nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The final JSON result and the ``env`` record of one harness run."""
    cmd = [sys.executable, "scanbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"bench_record: {workload} seed {seed} in {checkout} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    env = next(json.loads(line[len("env ") :]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def _git_dirty(checkout: Path) -> bool | None:
    """Whether tracked files differ from HEAD; None outside a git checkout."""
    if not (checkout / ".git").exists():
        return None
    cmd = ["git", "status", "--porcelain", "--untracked-files=no"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=60)
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def summarize(unit: str, values: list[float]) -> dict:
    return {"unit": unit, "values": values, "min": min(values), "median": statistics.median(values), "max": max(values)}


def record(checkouts: list[Path], workloads: list[str], seeds: list[int], seconds: float) -> list[dict]:
    """One record per checkout, its runs alternating with the others'."""
    runs = {(c, w): [] for c in checkouts for w in workloads}
    for w in workloads:
        for k, seed in enumerate(seeds):
            for c in checkouts if k % 2 == 0 else checkouts[::-1]:
                result, env = run_once(c, w, seed, seconds)
                runs[c, w].append((result, env))
                metrics = result["metrics"]
                print(
                    f"{w} seed {seed} {c}: op_s.p50 {metrics['op_s.p50']['value']:.4g} s, "
                    f"peak_rss_mb {metrics['peak_rss_mb']['value']:.4g}, failed {result['failed']} of {result['attempted']}",
                    flush=True,
                )
    records = []
    for c in checkouts:
        first_env = runs[c, workloads[0]][0][1]
        rec = {
            "git_sha": first_env["git_sha"],
            "git_dirty": _git_dirty(c),
            "seeds": seeds,
            "seconds": seconds,
            "env": {k: v for k, v in first_env.items() if k not in ("git_sha", "seed", "inputs")},
            "workloads": {},
        }
        for w in workloads:
            results = [result for result, _ in runs[c, w]]
            names = results[0]["metrics"]
            rec["workloads"][w] = {
                "inputs": runs[c, w][0][1]["inputs"],
                "metrics": {
                    name: summarize(names[name]["unit"], [r["metrics"][name]["value"] for r in results]) for name in names
                },
            }
        records.append(rec)
    return records


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(a: dict, b: dict, benchmark: dict) -> list[str]:
    """One line per workload and end-to-end metric that both records hold."""
    lines = []
    for w in [w["name"] for w in benchmark["workloads"]]:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        lines.append(f"{w}:")
        for m in benchmark["end_to_end"]:
            name = m["name"]
            if name not in a["workloads"][w]["metrics"] or name not in b["workloads"][w]["metrics"]:
                continue
            ma, mb = a["workloads"][w]["metrics"][name], b["workloads"][w]["metrics"][name]
            va, vb = ma["values"], mb["values"]
            (qa1, qa3), (qb1, qb3) = _quartiles(va), _quartiles(vb)
            base = ma["median"]
            change = (mb["median"] - base) / abs(base) if base else (0.0 if mb["median"] == base else float("inf"))
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * change > 0
            verdict = "same" if change == 0 else "worse" if worse else "better"
            if worse and abs(change) > m["bound"]:
                verdict += f", beyond its {m['bound']:.0%} bound"
            overlap = "overlap" if ma["min"] <= mb["max"] and mb["min"] <= ma["max"] else "disjoint"
            line = (
                f"  {name:<13} {base:.4g} [{qa1:.4g}, {qa3:.4g}] -> {mb['median']:.4g} [{qb1:.4g}, {qb3:.4g}] {ma['unit']}: "
                f"{change:+.1%} ({verdict}); ranges {overlap}"
            )
            if a["seeds"] == b["seeds"]:
                wins = sum(sign * (y - x) < 0 for x, y in zip(va, vb))
                line += f"; second better in {wins} of {len(va)} pairs"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two records and exit")
    ap.add_argument("--checkout", action="append", type=Path, help="source checkout to run (repeatable; default: this one)")
    ap.add_argument("--out", action="append", help="record file of each checkout, in order; - prints it")
    ap.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    ap.add_argument("--seconds", type=float, default=20.0, help="length of each run's timed loop")
    args = ap.parse_args(argv)
    benchmark = _benchmark()

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        print(f"{args.compare[0]} -> {args.compare[1]}: median [quartiles] per workload, bounds from BENCHMARK.json")
        print("\n".join(compare(a, b, benchmark)))
        return 0

    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    if not args.out or len(args.out) != len(checkouts):
        ap.error(f"give one --out per checkout ({len(checkouts)})")
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    print(f"bench_record: {len(checkouts)} checkout(s), workloads {' '.join(workloads)}, seeds {args.seeds}, {args.seconds:g} s each")
    for out, rec in zip(args.out, record(checkouts, workloads, args.seeds, args.seconds)):
        text = json.dumps(rec, indent=1) + "\n"
        if out == "-":
            sys.stdout.write(text)
        else:
            Path(out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
