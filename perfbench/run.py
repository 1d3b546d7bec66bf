"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 55 --trace 0

Prints a readable summary and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One thread per process for every numerical library, set before numpy
# is imported: the loop is single-threaded by design.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench  # noqa: E402  (needs the thread pinning and src path above)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
