"""The VSOC benchmark: seeded workloads driven through the real ingest
service and federation hub, with a traced per-layer breakdown.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
