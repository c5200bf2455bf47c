"""Benchmark of the damped-midpoint CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives ``damped_midpoint.cli.main`` on one workload for S seconds from the
source tree next to this directory, checks every output, prints one report
line per metric and, as the last line, the result as one JSON object.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Workloads: ledger-1d, compare-2d, dense-16d, ladder-1d. See
README.md in this directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Thread counts pinned for this process and its children, before numpy loads.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "damped_midpoint" / "__init__.py").is_file():
        sys.stderr.write(f"no damped_midpoint source tree at {SRC}\n")
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    import bench
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(bench.environment(THREAD_VARS), sort_keys=True))
    result, lines = bench.measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
