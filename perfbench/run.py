"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve-small|bulk-large|faults \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
reports the per-layer metrics (and the tracing overhead).  Every output is
checked against numpy.fft; any wrong answer, false detection, uncorrectable
flag or silent corruption makes the command exit 1.  The last line of
standard output is the JSON result; the machine record, every metric's
note and the spans go to ``perfbench/_work/out``.  See
``perfbench/README.md`` for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ftbench import machine, registry  # noqa: E402

WORKLOADS = {"serve-small": "serve", "bulk-large": "bulk", "faults": "faults"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not machine.checkout_ok():
        print(f"error: no repro sources under {machine.SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.chdir(machine.ROOT)
    machine.prepare()
    ticks = machine.cpu_ticks()
    module = importlib.import_module(f"ftbench.{WORKLOADS[args.workload]}")
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("error: the workload failed before producing a result", file=sys.stderr)
        return 1

    attempted = max(result.attempted, 1)
    if args.trace:
        result.put("failed_frac", result.failed / attempted, "fraction", f"{result.failed}/{attempted}")
        result.put("silent_corruptions", result.silent, "count")
        wanted = registry.per_layer()
    else:
        wanted = registry.END_TO_END
    metrics = {}
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, unit in wanted:
        metric = result.metrics.get(name)
        if metric is None:
            if not args.trace:
                raise RuntimeError(f"workload {args.workload} did not measure {name}")
            value, note = 0.0, "n/a on this workload"
        elif metric.unit != unit:
            raise RuntimeError(f"{name} measured in {metric.unit}, listed in {unit}")
        else:
            value, note = metric.value, metric.note
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<42} {value:>14.6g} {unit:<11} {note}")
    if not args.trace:
        # Measured on every run but listed as per-layer (see ftbench/registry.py).
        tail = result.metrics["latency_p99_us"]
        print(f"  {'latency_p99_us':<42} {tail.value:>14.6g} {'us':<11} {tail.note}")
        print(
            f"  {'failed_frac':<42} {result.failed / attempted:>14.6g} {'fraction':<11} "
            f"{result.failed}/{result.attempted} operations failed"
        )
        print(f"  {'silent_corruptions':<42} {result.silent:>14d} {'count':<11} must be 0")
    for line in result.failures:
        print(f"  FAILED: {line}", file=sys.stderr)

    record = machine.record(ticks)
    print("machine " + json.dumps(record))
    stem = machine.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result.spans is not None:
        result.spans.write(str(stem) + ".spans.jsonl")
    with open(str(stem) + ".json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "machine": record,
                "metrics": {name: vars(metric) for name, metric in result.metrics.items()},
                "details": result.details,
                "failures": result.failures,
            },
            handle,
            indent=2,
            default=str,
        )
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
