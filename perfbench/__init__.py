"""Wall-clock serving benchmark for the ``repro`` stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives the public ``repro`` API from one generator
process, checks the served logits against oracles and prints one JSON
result line.  See ``perfbench/README.md`` for the workloads and metrics.
"""
