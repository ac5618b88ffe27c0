"""Trial-throughput benchmark of the checkpoint-alteration campaign engine.

Run ``python3 trialbench/run.py --help``; ``trialbench/README.md`` explains
the workloads and metrics.
"""
