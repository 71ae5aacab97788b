"""sosbench: the end-to-end benchmark with a per-layer budget.

Four workloads drive the Section 6 pipeline (parse -> typecheck ->
rule-based translation -> representation-level execution) through the
public surfaces only: ``repro.api.connect()``, ``python -m repro serve``
as a subprocess, ``SystemResult.timings``, ``Session.explain`` and direct
calls into the storage / WAL / wire layers.  ``BENCHMARK.json`` at the
repository root names every metric; ``README.md`` next to this file says
how each is measured and which end-to-end metric each layer should move.

Entry points (all equivalent)::

    python3 benchmarks/sosbench/run.py --workload oltp_local --seed 1 --seconds 15 --trace 0
    python3 -m benchmarks.sosbench all
    python3 -m benchmarks.sosbench budget
    python3 -m benchmarks.sosbench aa
"""

import sys
from pathlib import Path

#: The checkout this benchmark measures: its ``src`` wins over any
#: installed ``repro`` so a parent/change pair compares the right code.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
