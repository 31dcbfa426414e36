"""Timed end-to-end benchmark of the SENN/SNNN reproduction.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/METRICS.md`` for the workloads and the metric catalogue.
"""
