"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload train-el-d3 --seed 0 --seconds 10 --trace 0

Prints a readable report, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when every operation succeeded, 1
when a training step, prediction or output check failed, 2 when the package
sources are missing or the arguments are bad.
"""

import os
import sys
from pathlib import Path

# BLAS must be pinned before numpy is first imported: on a 2-CPU machine a
# second BLAS thread made a 240x240 solve 10x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    if not (SRC / "logsigrnn" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
