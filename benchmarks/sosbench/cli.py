"""Command line of the benchmark.

``--workload W --seed N --seconds S --trace 0|1``
    one run; the last line of standard output is the result object the
    driver reads (``--trace 0``: every end-to-end metric, ``--trace 1``:
    every per-layer metric).
``all``
    every workload untraced and traced: every metric by name with unit and
    sample count, and the tracing overhead.
``budget``
    the traced run's layer table per workload: each layer's share of the
    median statement's wall time and the unexplained remainder.
``aa``
    two sets of runs of the same checkout; per workload x end-to-end
    metric both medians, their gap, the run-to-run spread and PASS or
    UNRESOLVED against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys

from . import ROOT, SRC
from .spans import LAYERS


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _refuse_if_armed() -> None:
    try:
        from repro import observe
    except ImportError as exc:
        raise SystemExit(
            f"sosbench: the program to measure is not under {SRC}: {exc}"
        ) from exc
    if observe.ENABLED:
        raise SystemExit("sosbench: refusing to benchmark with metric "
                         "collection armed (repro.observe.ENABLED)")


def _run(name: str, seed: int, seconds: float, traced: bool):
    from .runner import run_workload

    return run_workload(name, seed, seconds, traced)


def _result_line(spec: dict, report, traced: bool) -> str:
    if traced:
        # A layer the workload does not exercise reads 0: the driver wants
        # every per-layer metric on every workload.
        values = {m["name"]: report.layers.get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = set(report.layers) - set(values)
        if unknown:
            raise RuntimeError(f"layers missing from BENCHMARK.json: {unknown}")
    else:
        values = {m["name"]: report.end_to_end[m["name"]]
                  for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    })


def _print_report(spec: dict, report, traced: bool) -> None:
    print(f"== {report.workload}  seed {report.seed}  "
          f"{'traced' if traced else 'untraced'}  "
          f"attempted {report.attempted}  failed {report.failed}  "
          f"failed_share {report.failed / report.attempted:.6f}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        gate = "" if traced else f"  bound {metric['bound']:.0%}"
        print(f"  {name:<34}{report.end_to_end[name]:>14.4f} {metric['unit']:<6}"
              f" n={report.samples[name]}{gate}"
              + ("  (traced: not an end-to-end number)" if traced else ""))
    for name, value in report.info.items():
        print(f"  {name:<34}{value:>14.4f}        (info, ungated)")
    if traced:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name in report.layers:
                print(f"  {name:<34}{report.layers[name]:>14.4f} {metric['unit']}")


def cmd_single(args, spec: dict) -> int:
    report = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(spec, report, bool(args.trace))
    print(_result_line(spec, report, bool(args.trace)))
    return 0 if report.failed == 0 else 1


def _print_budget(report) -> None:
    wall = report.layers["system.stmt_wall_ms"]
    print(f"-- {report.workload}: median statement {wall:.4f} ms")
    for layer in LAYERS:
        value = report.layers[layer]
        print(f"  {layer:<28}{value:>10.4f} ms {value / wall:>8.1%}")
    rest = wall - sum(report.layers[layer] for layer in LAYERS)
    print(f"  {'(unexplained remainder)':<28}{rest:>10.4f} ms {rest / wall:>8.1%}")


def cmd_all(args, spec: dict) -> int:
    status = 0
    for workload in _selected(args, spec):
        plain = _run(workload, args.seed, args.seconds, False)
        _print_report(spec, plain, False)
        traced = _run(workload, args.seed, args.seconds, True)
        _print_report(spec, traced, True)
        _print_budget(traced)
        ratio = (traced.layers["bench.traced_stmts_per_s"]
                 / plain.end_to_end["stmts_per_s"])
        print(f"  traced_over_untraced {ratio:.4f} (stmts_per_s ratio; base "
              f"{plain.end_to_end['stmts_per_s']:.2f}/s untraced)")
        status |= plain.failed > 0 or traced.failed > 0
    return status


def cmd_budget(args, spec: dict) -> int:
    status = 0
    for workload in _selected(args, spec):
        report = _run(workload, args.seed, args.seconds, True)
        _print_budget(report)
        status |= report.failed > 0
    return status


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_aa(args, spec: dict) -> int:
    """Two sets of ``--runs`` untraced runs per workload (seeds 1..runs in
    both), then one traced run per set for the exactly-repeating counts."""
    status = 0
    unresolved = 0
    for workload in _selected(args, spec):
        sets = []
        for _ in range(2):
            reports = [_run(workload, seed, args.seconds, False)
                       for seed in range(1, args.runs + 1)]
            status |= any(r.failed for r in reports)
            sets.append(reports)
        print(f"== {workload}: A/A over 2 x {args.runs} runs of "
              f"{args.seconds:g} s")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r.end_to_end[name] for r in reports] for reports in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b)) if args.runs >= 2 else (0.0, 0.0)
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            unresolved += not ok
            print(f"  {name:<16}A {med_a:>12.4f}  B {med_b:>12.4f} "
                  f"{metric['unit']:<5} gap {worse:>+7.2%}  spread "
                  f"{spreads[0]:>6.2%} / {spreads[1]:>6.2%}  bound "
                  f"{bound:.0%}  {'PASS' if ok else 'UNRESOLVED'}")
        if workload.endswith("_local"):  # one process: counts repeat
            counts = [
                _run(workload, 1, min(args.seconds, 5.0), True).layers
                for _ in range(2)
            ]
            for name in ("optimizer.rules_fired", "optimizer.rule_attempts",
                         "storage.page_reads_per_stmt",
                         "storage.page_writes_per_stmt"):
                same = counts[0][name] == counts[1][name]
                unresolved += not same
                print(f"  {name:<32}A {counts[0][name]:>12.4f}  B "
                      f"{counts[1][name]:>12.4f}  "
                      f"{'IDENTICAL' if same else 'DIFFERENT'}")
    print(f"{unresolved} unresolved")
    return status or (2 if unresolved else 0)


def _selected(args, spec: dict) -> list[str]:
    names = [w["name"] for w in spec["workloads"]]
    return [args.workload] if args.workload else names


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="sosbench", description=__doc__.splitlines()[0],
    )
    parser.add_argument("command", nargs="?", default="run",
                        choices=["run", "all", "budget", "aa"])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=10,
                        help="aa: runs per set (seeds 1..N)")
    args = parser.parse_args(argv)
    if args.command == "run" and args.workload is None:
        parser.error("a single run needs --workload")
    _refuse_if_armed()
    # Turn SIGTERM into an exception so the server subprocess is reaped
    # and the scratch directory removed on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    command = {"run": cmd_single, "all": cmd_all, "budget": cmd_budget,
               "aa": cmd_aa}[args.command]
    return command(args, spec)
