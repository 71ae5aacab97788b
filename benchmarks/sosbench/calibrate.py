"""Machine-speed calibration: what makes two runs comparable on this sandbox.

The sandbox's speed for memory-bound Python — which is what the engine is —
drifts by 30–50 % over minutes (noisy neighbours on a shared host; an
arithmetic loop moves by only 3 %).  Ten runs of one commit spread by 6–28 %
on every raw latency and their median moved by a third within an hour, so a
raw time cannot carry a regression bound here.

While a run measures, a helper process therefore runs one fixed pure-Python
routine every few milliseconds.  A run's *speed factor* is the routine's
median time during the timed section over :data:`REFERENCE_S`; end-to-end
times are divided by it and rates multiplied, so they read as "on a machine
where the routine takes 0.25 ms" — this sandbox when it is quiet.  The
routine shares no code, heap or garbage collector with the program under
test (sampled inside the engine's process it ran up to 1.5x slower after a
large statement, whatever the machine did), so a change to the program
cannot move it.  Raw numbers are printed next to the calibrated ones.

Run as a script this file *is* the helper: it samples until its standard
input closes, then writes ``<perf_counter> <seconds>`` lines and exits — so
it also ends when the benchmark dies.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time

#: The routine's median on the seed commit's sandbox in a quiet spell.
REFERENCE_S = 0.25e-3
#: Pause between samples: the helper costs ~5 % of one core.
GAP_S = 10e-3
#: Width of one bin of the speed curve (~40 samples).
BIN_S = 0.5


def routine() -> int:
    """Allocate small objects and chase pointers through a dict, like the
    parser, typechecker and optimizer do; ~0.25 ms."""
    table = {i: (i, str(i)) for i in range(1_500)}
    return sum(row[0] for row in table.values())


def _helper() -> None:
    samples = []
    while not select.select([sys.stdin], [], [], GAP_S)[0]:
        routine()  # the first pass refills the caches the pause lost
        start = time.perf_counter()
        routine()
        end = time.perf_counter()
        samples.append((end, end - start))
    sys.stdout.write("".join(f"{at!r} {took!r}\n" for at, took in samples))


class Sampler:
    """The helper process, from ``with`` entry until :meth:`stop`.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so
    the helper's timestamps select the samples of any interval the
    benchmark timed.
    """

    def __init__(self):
        self._proc = None
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Sampler":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        return self

    def stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            out, _ = proc.communicate(timeout=30)  # closes stdin: the signal
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        self.samples = [
            (float(at), float(took))
            for at, took in (line.split() for line in out.splitlines())
        ]

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.communicate()

    def speed_factor(self, start: float, end: float) -> float:
        """> 1 when the machine was slower than the reference between the
        two ``perf_counter`` readings, < 1 when it was faster."""
        inside = [took for at, took in self.samples if start <= at <= end]
        if len(inside) < 3:
            raise RuntimeError("no calibration samples in the interval")
        return statistics.median(inside) / REFERENCE_S

    def speed_curve(self, start: float, end: float):
        """The speed factor per :data:`BIN_S` of an interval, as a function
        of a ``perf_counter`` reading: the drift inside one run is as large
        as between runs.  A bin with too few samples gets the interval's
        factor."""
        overall = self.speed_factor(start, end)
        bins: dict[int, list[float]] = {}
        for at, took in self.samples:
            if start <= at <= end:
                bins.setdefault(int((at - start) / BIN_S), []).append(took)
        factors = {
            index: statistics.median(times) / REFERENCE_S
            for index, times in bins.items() if len(times) >= 5
        }
        return lambda at: factors.get(int((at - start) / BIN_S), overall)


if __name__ == "__main__":
    _helper()
