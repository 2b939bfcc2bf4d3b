"""One sub-run of an in-process workload, in a fresh process.

``python perfbench/ftbench/worker.py <workload> <seed> <seconds> <index>``,
started by :func:`ftbench.common.run_workers` with ``PYTHONPATH`` on the
checkout's ``src``.  Prints ``ready`` once the workload is set up and its
first answers are checked, then ``result {json}`` after ``seconds`` of
load.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def main() -> int:
    from ftbench import bulk, faults, serve

    workload, seed, seconds, index = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
    module = {"bulk-large": bulk, "faults": faults, "serve-small": serve}[workload]

    def ready() -> None:
        print("ready", flush=True)

    answer = module.sub_run(seed, index, seconds, ready)
    print("result " + json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
