"""The repository benchmark: three campaign workloads timed end to end, plus
a traced run that splits each workload's time across the ``repro`` layers.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for the metrics and what each one should move.
"""
