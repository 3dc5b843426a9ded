"""The repository benchmark: closed-loop GF-CL workloads, a DuckDB
correctness check, end-to-end metrics and a traced per-layer breakdown.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root.
"""
