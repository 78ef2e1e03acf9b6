"""End-to-end scenario benchmark for the WATTER reproduction.

Run it with ``python3 e2ebench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``README.md``
in this directory for the workloads, metrics and modes.
"""
