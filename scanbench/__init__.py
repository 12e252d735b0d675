"""Benchmark of the scanseg pipeline.

``python3 scanbench/run.py --workload {train,infer,prep} --seed N --seconds S
--trace {0,1}`` runs one closed-loop workload in one process and prints its
metrics, ending with one JSON line. ``--trace 1`` wraps the public functions
of each scanseg layer in timing spans and reports per-layer numbers instead.
The benchmark's own tests run with ``python3 -m pytest scanbench/tests``.
"""
