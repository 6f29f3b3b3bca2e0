"""One workload's set-up in a fresh interpreter, for the ``setup_s`` metric.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Imports the package, builds the workload's inputs, and prints the CPU time
this interpreter has used since it started (``time.process_time()``), at the
point where the first timed item could start.
"""

import sys
import time
from pathlib import Path

import inputs


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    inputs.use_checkout_package()
    import corrpois  # noqa: F401  -- the import is part of the set-up

    inputs.build(workload, seed, workdir)
    print(repr(time.process_time()))


if __name__ == "__main__":
    main()
