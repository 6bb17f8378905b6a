"""Benchmark harness for rcnet: workloads, output gate, outside-in tracing.

Importing the package loads no numpy, so `env.pin` can still set the
BLAS thread count afterwards.
"""

WORKLOAD_NAMES = ("paper-train", "desk-infer", "verify")
