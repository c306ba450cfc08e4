"""The report-diff gate (tests/reportdiff.py): a tree diffed against itself
reads all zeros, and a diff names what moved."""
from pathlib import Path

import pytest
import reportdiff

SRC = Path(__file__).resolve().parent.parent / "src"


def test_a_tree_diffed_against_itself_reads_all_zeros():
    diff = reportdiff.diff_trees(SRC, SRC)
    parts = [item["part"] for item in diff.items]
    assert {part: parts.count(part) for part in dict.fromkeys(parts)} == {
        "grid": 19,
        "wake_sweep:1": 132,
        "wake_sweep:7919": 132,
        "long_track:1": 2,
        "long_track:7919": 2,
        "fuzz": 200,
        "huge_sleep": 1,
    }
    # Both outcomes occur: reports to compare, and rejections.
    assert diff.both_ran > 300 and diff.both_rejected > 100
    assert diff.is_zero() and diff.moved == []
    assert {"sample err_2d_m", "fix b_u_m", "diagnostic s1_rco_jitter_s"} <= diff.fields.keys()
    assert diff.render().endswith("discrete changes: 0")


def _outcome(
    err_2d_m, fix_valid=(True, True), used_estimate=True, fixes=2, iterations=2, b_u_m=30.0
):
    arm = dict(
        time_to_first_fix_s=1.2,
        power_ratio=0.002,
        rms_2d_m=err_2d_m,
        hotstart_delay_s=None,
        used_estimate=used_estimate,
        fixes=fixes,
        iterations=[2] * (fixes - 1) + [iterations],
        converged=[True] * fixes,
        b_u_m=[30.0] * (fixes - 1) + [b_u_m],
        fix_valid=list(fix_valid),
        err_east_m=[0.0, 0.0],
        err_north_m=[0.0, 0.0],
        err_2d_m=[err_2d_m, err_2d_m],
    )
    return {"arms": {"estimator": arm}, "diagnostics": {"s1_rco_jitter_s": 1e-9}}


def test_a_diff_names_each_move():
    items = [dict(part="grid", name=f"s{i}") for i in range(9)]
    parent = [_outcome(3.0)] * 7 + [{"error": "ScenarioError: a"}, _outcome(3.0)]
    change = [
        _outcome(3.5),
        _outcome(3.0, fix_valid=(False, True)),
        _outcome(3.0, used_estimate=False),
        _outcome(3.0, fixes=3),
        _outcome(3.0 + 2e-4, fixes=3),
        _outcome(3.0 + 5e-5),
        _outcome(3.0, iterations=3),
        {"error": "ScenarioError: b"},
        _outcome(3.0, b_u_m=30.25),
    ]
    diff = reportdiff.Diff(items, parent, change)
    # Moved past 1e-4 m with no discrete change: s0 only; s4 moved with
    # its fix count, and s5 within the tolerance.
    assert diff.moved == [("s0", 0.5)]
    assert "  s0: largest sample |delta| 0.5 m" in diff.render()
    assert diff.fields["sample err_2d_m"] == [0.5, 3, "s0"]
    assert diff.fields["diagnostic s1_rco_jitter_s"] == [0.0, 0, ""]
    # A fix's clock bias is compared where the fix counts agree: s8 alone.
    assert diff.fields["fix b_u_m"] == [0.25, 1, "s8"]
    assert diff.discrete == [
        ("s1", "estimator fix_valid moved on 1 samples"),
        ("s2", "estimator used_estimate True -> False"),
        ("s3", "estimator fixes 2 -> 3"),
        ("s4", "estimator fixes 2 -> 3"),
        ("s6", "estimator iterations moved on 1 fixes"),
        ("s7", "error 'ScenarioError: a' -> 'ScenarioError: b'"),
    ]
    assert diff.means["grid"] == (3.0, pytest.approx(3.0 + 0.50025 / 8))
    assert not diff.is_zero()
