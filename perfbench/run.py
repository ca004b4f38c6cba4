#!/usr/bin/env python3
"""Entry point of the repository benchmark; see ``perfbench/README.md``.

Run from the repository root::

    python3 perfbench/run.py --workload lock2_numa --seed 1 --seconds 30 --trace 0

The benchmark imports the program from ``src/`` next to this directory
and refuses to run (exit status 2, nothing on stdout) without it.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if __name__ == "__main__":
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]
    from perfbench.bench import main

    sys.exit(main(sys.argv[1:]))
