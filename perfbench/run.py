"""Benchmark entry point.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

Prints a detail record (environment, wall-clock figures, gate results) and
then the result object, as the last line of stdout. Run it from the root
of a source checkout; it needs src/vlodtta next to this directory and
exits with 2 without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("desk", "coco", "bench")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "vlodtta" / "__init__.py").is_file():
        print(f"no vlodtta sources at {src}", file=sys.stderr)
        return 2
    # one BLAS thread per available core at most, set before NumPy loads
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))

    import harness

    result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = harness.labelled(result["metrics"], bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
