#!/usr/bin/env python3
"""sha256 digests of what each benchmark workload computes, to compare the
bits of two checkouts or of two BLAS thread counts.

    PYTHONPATH=src python3 scripts/digest.py --seed 1 --ops 20

Builds each workload of ``scanbench.workloads.WORKLOADS`` at ``--seed``,
runs ``--ops`` of its ops with no time budget, checks each one as the
benchmark does, and prints one JSON line per workload:
``{"workload": ..., "seed": ..., "ops": ..., "sha256": ...}``. The last
line is ``env`` and the environment record of ``scanbench/run.py``, which
names the BLAS thread count; the digest lines do not depend on it, so two
runs compare by the lines before the last.

Each digest is one sha256, fed the raw bytes of, in order:

- train: the loss of every step as float64, then, after the last step,
  the name (UTF-8) and array of every parameter and buffer of the network
  in registry order (``net.parameters() | net.buffers()``);
- infer: per op, the logits, then the point labels;
- prep: per op, every array of the payload in field order (the simulated
  scan, the read-back cloud and labels, both projections' range images and
  index maps, both range images read back) and the occlusion counts as
  int64, then the written ``.bin`` and ``.label`` bytes and both written
  range images.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from scanbench import measure  # noqa: E402
from scanbench.workloads import WORKLOADS  # noqa: E402
from scanseg import cloud_io  # noqa: E402


def _feed(h, value) -> None:
    """Every array, byte string and integer in ``value``, walked through
    dataclass fields, tuples and lists in order."""
    if isinstance(value, np.ndarray):
        h.update(value.tobytes())
    elif isinstance(value, bytes):
        h.update(value)
    elif isinstance(value, int):
        h.update(np.int64(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def _written(payload) -> list[bytes]:
    scan, _, _, unfolded, corrected, _, _ = payload
    images = [cloud_io.write_range_image_bytes(image) for image, _ in (unfolded, corrected)]
    return [cloud_io.write_point_cloud(scan.cloud), cloud_io.write_labels(scan.labels), *images]


def digest(name: str, seed: int, ops: int) -> tuple[str, dict]:
    """The workload's digest over ``ops`` ops, and its input sizes."""
    workload = WORKLOADS[name](seed)
    workload.setup()
    h = hashlib.sha256()
    losses = []
    for i in range(ops):
        result = workload.run_op(i)
        workload.check(i, result)
        if name == "train":
            losses.append(result.payload)
        elif name == "infer":
            _, point_preds, _, logits = result.payload
            _feed(h, (logits, point_preds))
        else:
            _feed(h, (result.payload, _written(result.payload)))
    if name == "train":
        net = workload.net
        state = [(key.encode(), array) for key, array in (net.parameters() | net.buffers()).items()]
        _feed(h, (np.array(losses, np.float64), state))
    return h.hexdigest(), workload.inputs()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=20, help="ops of each workload")
    args = ap.parse_args()

    inputs = {}
    for name in WORKLOADS:
        sha256, inputs[name] = digest(name, args.seed, args.ops)
        print(json.dumps({"workload": name, "seed": args.seed, "ops": args.ops, "sha256": sha256}), flush=True)
    env = measure.environment(ROOT, os.environ.get("OPENBLAS_NUM_THREADS", "default"), args.seed, inputs)
    print("env " + json.dumps(env))


if __name__ == "__main__":
    main()
