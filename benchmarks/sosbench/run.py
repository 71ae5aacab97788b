"""Script entry point: ``python3 benchmarks/sosbench/run.py ...``.

The same as ``python3 -m benchmarks.sosbench ...`` for callers that name a
file instead of a module.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Replace the script's own directory on the path by the checkout root,
    # so the modules here import as the package ``benchmarks.sosbench``.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.sosbench.cli import main

    sys.exit(main())
