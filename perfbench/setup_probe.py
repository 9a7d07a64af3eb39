"""Time one workload set-up in a fresh process: importing fraclap plus the set-up.

Started by run.py, several times per run, so that set-up time is measured
cold, as a command-line user pays it.  Prints one JSON line:
``{"setup_s": ..., "info": <the workload's set-up context>}``.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    start = time.perf_counter()
    import fraclap  # noqa: F401
    import workloads

    info = workloads.make(args.workload, args.seed).setup(Path(args.workdir))
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
