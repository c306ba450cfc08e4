"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from gpssim import nav_message as nav
from gpssim import simharness as sh

ROOT = Path(__file__).resolve().parents[2]
SHORT = workloads.Point(workloads.scenario_text({"seed": 3, "off_duration_s": 120, "wake_run_s": 3}))


class _Stub:
    """A tracer-shaped record of hand-written spans."""

    def __init__(self, spans):
        self.names = sorted({s[0] for s in spans})
        self.name = [self.names.index(s[0]) for s in spans]
        self.parent = [s[1] for s in spans]
        self.start = [s[2] for s in spans]
        self.end = [s[3] for s in spans]
        self.solve_iterations = 0


def test_self_time_subtracts_union_of_children():
    # root 0-100; a 10-40 with grandchild 15-20; b 30-60 overlaps a;
    # c 90-120 runs past its parent and is clipped to 90-100.
    spans = [
        ("simharness.run_scenario", -1, 0, 100),
        ("a", 0, 10, 40),
        ("g", 1, 15, 20),
        ("b", 0, 30, 60),
        ("c", 0, 90, 120),
    ]
    stub = _Stub(spans)
    assert tracing.self_times(stub.parent, stub.start, stub.end) == [40, 25, 5, 30, 30]
    summary = tracing.SpanSummary(stub)
    assert summary.calls == {"simharness.run_scenario": 1, "a": 1, "g": 1, "b": 1, "c": 1}
    assert summary.self_s["a"] == pytest.approx(25e-9)


def test_sequential_self_times_sum_to_root():
    spans = [("simharness.run_scenario", -1, 0, 50), ("a", 0, 5, 20), ("b", 0, 20, 45), ("g", 2, 21, 30)]
    stub = _Stub(spans)
    assert sum(tracing.self_times(stub.parent, stub.start, stub.end)) == 50
    assert tracing.SpanSummary(stub).subtree_mismatches == 0


def test_traced_scenario_spans_nest_and_originals_return():
    original = sh.run_scenario
    tracer = tracing.Tracer()
    with tracer:
        assert sh.run_scenario is not original
        workloads.run_point(SHORT)
    assert sh.run_scenario is original and not tracing.installed()
    summary = tracer.summary()
    assert summary.subtree_mismatches == 0
    for phase in (tracing.SESSION_ONE, *tracing.WAKE.values()):
        assert summary.calls[phase] == 1
    assert summary.calls["rx_clock.compute_rco"] > 0  # bound by name in simharness
    assert run.zero_call_layers(workloads.LongTrack, summary.calls) == []


def test_unwrapped_function_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tuple(l for l in tracing.LAYERS if l != ("pvt", "solve")))
    tracer = tracing.Tracer()
    with tracer:
        workloads.run_point(SHORT)
    assert run.zero_call_layers(workloads.LongTrack, tracer.summary().calls) == ["pvt.solve"]


def test_tampered_csv_byte_fails_the_rerun():
    class One(workloads.WakeSweep):
        def _make_pass(self, p):
            return [SHORT]

    wl = One(1, Path("unused"))
    outcome = run.run_pass(wl, [SHORT])[0]
    assert outcome.status == "ok" and run.rerun_identical(wl, outcome)
    cfg, report, csv = outcome.value
    i = csv.index("\n") + 1
    tampered = csv[:i] + ("1" if csv[i] != "1" else "2") + csv[i + 1 :]
    outcome.value = (cfg, report, tampered)
    assert not run.rerun_identical(wl, outcome)


def test_report_check_catches_a_bad_delay():
    cfg, report, csv = workloads.run_point(SHORT)
    assert workloads.check_report(cfg, report, csv) == []
    report.arms["hotstart"] = replace(report.arms["hotstart"], hotstart_delay_s=7.5)
    assert workloads.check_report(cfg, report, csv) == ["hotstart: hotstart_delay_s 7.5"]


def test_shifted_scan_hit_is_caught(tmp_path):
    stream = workloads.make_stream(np.random.default_rng(5), 30, tmp_path / "s.navb")
    hits, decoded, back = workloads.scan_stream(stream)
    assert workloads.check_scan(stream, (hits, decoded, back)) == []
    shifted = [nav.PreambleHit(hits[3].offset + 1, hits[3].inverted)] + hits[4:]
    assert workloads.check_scan(stream, (hits[:3] + shifted, decoded, back))


def test_seed_changes_inputs(tmp_path):
    for cls in (workloads.WakeSweep, workloads.LongTrack):
        a, b = cls(1, tmp_path).inputs(0), cls(2, tmp_path).inputs(0)
        assert a != b and a == cls(1, tmp_path).inputs(0)
    a = workloads.make_stream(np.random.default_rng([1, 3, 0]), 30, tmp_path / "a")
    b = workloads.make_stream(np.random.default_rng([2, 3, 0]), 30, tmp_path / "b")
    assert not np.array_equal(a.bits[:1000], b.bits[:1000])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()


@pytest.mark.parametrize("seed", [1, 2])
def test_result_line_names_every_metric_whatever_the_seed(seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_track", "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
