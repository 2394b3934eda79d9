"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric.  A human-readable report goes to stderr.  The exit
code is 0 only when every output of the program was correct; it is 2 when
the benchmark cannot run at all (for example, without the ``src/`` tree).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("sweep", "oneshot")


def _declared(trace: bool):
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return names, {metric["name"]: metric["unit"] for metric in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.require_source_tree()
        names, units = _declared(bool(args.trace))
    except (common.BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in names:
        print(f"perfbench: {args.workload} is not in BENCHMARK.json", file=sys.stderr)
        return 2

    module = __import__(args.workload)
    result = module.run(args.seed, args.seconds, bool(args.trace))

    produced = {name for name in result.metrics if name != "setup_s" or not args.trace}
    if produced != set(units):
        missing = sorted(set(units) - produced)
        extra = sorted(produced - set(units))
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2

    for message in result.errors[:20]:
        print(f"perfbench: WRONG: {message}", file=sys.stderr)
    print(json.dumps({"notes": result.notes}, default=str), file=sys.stderr)
    payload = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": units[name]} for name in sorted(units)
        },
    }
    print(json.dumps(payload))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
