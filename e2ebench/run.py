"""End-to-end scenario benchmark of the WATTER reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload watter-expect-nyc --seed 7 --seconds 50 --trace 0

``--seconds`` sizes the run: it replays as many scenario draws as
fill that time on the reference host (see ``e2ebench/workloads.py``).
``--trace 0`` prints the end-to-end metrics of untraced replays;
``--trace 1`` prints the per-layer split of traced replays.  Both
check every replay's output.  Every metric is printed on its own line
with its unit, then one identity line, and the last line of standard
output is the JSON result::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

The benchmark imports the program from ``src/`` next to this
directory and exits with status 2, printing no result, when it is not
there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_to_one_cpu() -> int | None:
    """Keep the single-threaded replay on one CPU; return which, if any.

    Migrations between CPUs put cold caches under the microsecond-scale
    calls the benchmark times (GDP's periodic checks take ~10 us), which
    widened the spread of their tail percentiles between runs.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from e2ebench.measure import run_traced, run_untraced
    from e2ebench.workloads import WORKLOADS

    bench = WORKLOADS.get(args.workload)
    if bench is None:
        print(
            f"e2ebench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    cpu = _pin_to_one_cpu()
    if args.trace:
        outcome = run_traced(bench, args.seed, args.seconds)
    else:
        outcome = run_untraced(bench, args.seed, args.seconds)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    for problem in outcome.problems:
        print(f"output check: {problem}", file=sys.stderr)
    outcome.identity["pinned_cpu"] = cpu
    print(json.dumps({"identity": outcome.identity}, sort_keys=True))
    print(json.dumps(outcome.as_result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
