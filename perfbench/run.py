"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload agent-evict --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` replays the same seeded inputs with per-layer spans and
reports the per-layer metrics (see README.md in this directory).  Every
run checks the program's outputs; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The benchmark measures the checkout it sits in, importing the package
# straight from source.
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("agent-evict", "fleet-route", "chat-gateway")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply trace sizes and gateway phase lengths (smoke test: 0.05)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "chat-gateway":
        import gateway as workload
    else:
        import sim as workload
    outcome = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    for line in outcome.notes:
        print(f"# {args.workload} seed={args.seed}: {line}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for violation in outcome.violations:
        print(f"# VIOLATION: {violation}")
    correct = not outcome.violations
    failed = outcome.failed + len(outcome.violations)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(outcome.attempted, 1),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
