"""Host-time benchmark of the paper-figure workloads.

``python3 hostbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``hostbench/README.md`` for the workloads, metrics and predictions.
"""
