"""The repository's benchmark: three workloads driven through ``repro``'s
public API, end-to-end metrics measured with tracing off, and a separate
traced run that splits host time by layer.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  See
``perfbench/README.md`` for the workloads, the metric definitions and
the child-process layout.
"""
