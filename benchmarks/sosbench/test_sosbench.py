"""Checks of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/sosbench -q

A tiny run of all four workloads must emit every metric BENCHMARK.json
names with the right unit, the traced run's layers must add up to the
statement's wall time, and the oracle must notice a wrong row.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.sosbench import ROOT, cli, runner
from benchmarks.sosbench.calibrate import Sampler
from benchmarks.sosbench.client import Client
from benchmarks.sosbench.model import matches
from benchmarks.sosbench.procs import WorkArea
from benchmarks.sosbench.spans import LAYERS, SpanLog
from benchmarks.sosbench.workloads import WORKLOADS

SPEC = cli.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/sosbench"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0])
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # Every layer a span is split into is a declared per-layer metric.
    assert set(LAYERS) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric(workload, traced, monkeypatch):
    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)
    report = runner.run_workload(workload, seed=7, seconds=0.5, traced=traced)
    assert report.failed == 0 and report.attempted >= 1
    result = json.loads(cli._result_line(SPEC, report, traced))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not traced:
            assert emitted["value"] > 0
    if traced:
        wall = report.layers["system.stmt_wall_ms"]
        explained = sum(report.layers[layer] for layer in LAYERS)
        assert explained == pytest.approx(wall, rel=0.05)
        assert (ROOT / ".sosbench" / f"trace-{workload}.json").exists()


@pytest.mark.parametrize("workload", ["oltp_local", "server_durable_write"])
def test_layers_of_every_statement_sum_to_its_wall(workload):
    """In-process the self time of ``bench.stmt`` is the system's overhead,
    over a socket it is the transport: either way nothing is left over."""
    with WorkArea() as work:
        setup = WORKLOADS[workload].setup(7, work, True)
        try:
            spans = SpanLog()
            client = Client(0, setup.callers[0], WORKLOADS[workload], spans)
            for _ in range(60):
                client.step()
            assert client.tally.failed == 0
        finally:
            setup.close()
    assert len(spans.spans) == 60
    for _, _, start, end, parts in spans.spans:
        assert sum(parts.values()) == pytest.approx(end - start, rel=0.05)
        assert all(value >= -1e-6 for value in parts.values())


def test_oracle_flags_a_corrupted_model_row():
    with WorkArea() as work:
        setup = WORKLOADS["oltp_local"].setup(7, work, False)
        session = setup.callers[0].session
        (check,) = setup.verify()
        assert matches(check, session.run_one(check.sources[0]).value)
        k, name, grp = check.expect[100]
        check.expect[100] = (k, name + "?", grp)
        assert not matches(check, session.run_one(check.sources[0]).value)


def test_a_wrong_answer_counts_as_failed():
    with WorkArea() as work:
        setup = WORKLOADS["oltp_local"].setup(7, work, False)
        client = Client(0, setup.callers[0], WORKLOADS["oltp_local"])

        def wrong(ops):
            for op in ops:
                if not op.mutating:
                    op.expect = op.expect + [(-1, "ghost", 0)]
                yield op

        client.ops = wrong(client.ops)
        for _ in range(20):
            client.step()
        reads = [op for op in client.tally.ops if op[1] == "read"]
        assert 0 < client.tally.failed == len(reads)


def test_calibration_helper_samples_until_told_to_stop():
    with Sampler() as sampler:
        start = time.perf_counter()
        time.sleep(0.4)
        end = time.perf_counter()
        helper = sampler._proc
        sampler.stop()
    assert helper.returncode == 0
    assert len(sampler.samples) >= 10
    assert 0.2 < sampler.speed_factor(start, end) < 20
    assert sampler.speed_curve(start, end)(start + 0.1) > 0
    with pytest.raises(RuntimeError, match="no calibration samples"):
        sampler.speed_factor(end + 1, end + 2)


def test_refuses_to_run_with_collection_armed():
    from repro import observe

    with observe.collecting():
        with pytest.raises(SystemExit, match="refusing"):
            cli.main(["--workload", "oltp_local", "--seconds", "0.1"])


def test_fails_without_the_program_it_measures(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "sosbench",
                    tmp_path / "benchmarks" / "sosbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oltp_local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
