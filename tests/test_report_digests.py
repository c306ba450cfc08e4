"""Pinned report bytes over a fixed grid of scenarios.

Each digest is the SHA-256 of the report CSV followed by the diagnostics in
key order and every arm's fix records (which the CSV does not print). A change that moves any output bit fails here; such a change
updates the digest it moves and names the change in CHANGES.md.

Run as a script (PYTHONPATH=src python tests/test_report_digests.py), it
prints every grid scenario's digest as the current code computes it.
"""
import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpssim import constellation as cst
from gpssim import simharness as sh

BASE = sh.ScenarioConfig()


def _masked_explicit_sats() -> tuple[cst.EphemerisRecord, ...]:
    """Twelve explicit satellites in reverse order; three start below 32 deg."""
    t0 = sh.GpsTime(BASE.start_week, BASE.start_tow_s).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, 12)
    return tuple(reversed(sats))


GRID = {
    "default": {},
    "estimator_0.5ppm_60s": dict(arms="estimator", rtc_ppm=0.5, off_duration_s=60.0),
    "hotstart_30ppm_0s": dict(arms="hotstart", rtc_ppm=30.0, off_duration_s=0.0),
    "fallback_1500s": dict(off_duration_s=1500.0),
    "moving_user": dict(user_vel_ecef=(12.0, -3.0, 1.5), seed=5),
    "wake_run_120s": dict(wake_run_s=120.0, rtc_ppm=0.5, seed=7),
    "snapshot_file": dict(snapshot_path="wake.fsnp", seed=2),
    "week_end_604600_600": dict(start_tow_s=604600.0, off_duration_s=600.0),
    "explicit_masked": dict(satellites=_masked_explicit_sats(), min_elevation_deg=32.0),
    "n_sats_4": dict(n_sats=4, seed=11),
    "n_sats_32": dict(n_sats=32, seed=12),
    "zero_noise": dict(noise_sigma_m=0.0, off_duration_s=2400.0, rtc_ppm=4.0),
    # Satellites cross the 25 degree mask during the 900 s wakes, so each
    # wake fixes with three different sets of channels.
    "changing_selection": dict(
        n_sats=12, min_elevation_deg=25.0, off_duration_s=3000.0, wake_run_s=900.0, seed=4
    ),
    # The wake's tie rules. With no lock latency the estimator's first fix
    # lands exactly on sample 0, which sees it.
    "zero_latency": dict(code_s=0.0, carrier_s=0.0, bit_s=0.0),
    # Four samples a second between the locks, labels and first fix: the
    # bytes move if the clock does not stop at every sample instant.
    "quarter_second_samples": dict(sample_period_s=0.25, wake_run_s=8.0, seed=3),
    # Six labels arrive at +2.66 s and the last sample is at +2.67 s; two
    # come after it, and the clock offset error moves if they are dropped.
    "labels_outlive_wake": dict(
        arms="hotstart", start_tow_s=86400.015, wake_run_s=2.67, sample_period_s=2.67
    ),
}

DIGESTS = {
    "default": "b7254a82739da5acb386e77be914469bca893a870b0b5f0055ca3332ff5068d7",
    "estimator_0.5ppm_60s": "3280cc31efa54a55f4cd85f4a1f3afa0babb1a8d3e8a4c43d1e0b9811349da3e",
    "hotstart_30ppm_0s": "9d2d652890b3c593dcc0783bf40fb4519acce06a21349fe830aff68001c3f1c8",
    "fallback_1500s": "4cde047782c385a17c6400072dd8f4c8070c4ec0d82b812357fcf2beda6feef8",
    "moving_user": "d5c10c743072a564ecf6d54a87714494b4d1d69a71306e39fac83fb04863a8a5",
    "wake_run_120s": "32606e8feeb21310270d61dd7f32d0d886970ba00bb81cb47a1da33b3b3a8ea1",
    "snapshot_file": "969c9d9343b54b680263afdecf94dd3e679ac991c63134c40101e174c869e297",
    "week_end_604600_600": "f4c1a1ca998ba6abf4f41140de1d866e5a9d8302e25568fa96cfdd8c661200be",
    "explicit_masked": "e72a4237462c6043bf588214ca8ed237c139c39c1ea7998b70bf86af72c431ff",
    "n_sats_4": "823008b8a0624badd8168485192fd46c59b0010b3e033dce748542ac85292319",
    "n_sats_32": "baacf7da2050f99284afeb2bde2f88ae37942ea0bd822885215d31abbf5ace4a",
    "zero_noise": "726e9515970ad9620264c1f13338c6d0f1917c740988b4290adef1f228c7b0b6",
    "changing_selection": "4040e38566505ef7c2e4a79bffd29a9a2b986255ed963ac817c73e8a61c60152",
    "zero_latency": "0b961c45ffc339e3e5951aa89d41a2d9bf0fb8c436124660a69fff43d61bdc7b",
    "quarter_second_samples": "d3facc43c433c6862d297b749c655ce9939844a0537c7a89ae71deda4e77a956",
    "labels_outlive_wake": "ba2650e0f3c892451388476c81c409a9b7df92a48695bd89b1e95e7f7db92143",
}


def report_digest(report: sh.RunReport) -> str:
    text = sh.render_report_csv(report)
    text += "".join(f"{k}={v!r}\n" for k, v in sorted(report.diagnostics.items()))
    text += "".join(
        f"{arm}:{fix!r}\n" for arm in sorted(report.arms) for fix in report.arms[arm].fixes
    )
    return hashlib.sha256(text.encode()).hexdigest()


def run_grid_scenario(name: str, tmp_path: Path) -> sh.RunReport:
    overrides = dict(GRID[name])
    if "snapshot_path" in overrides:
        overrides["snapshot_path"] = str(tmp_path / overrides["snapshot_path"])
    return sh.run_scenario(replace(BASE, **overrides))


@pytest.mark.parametrize("name", sorted(GRID))
def test_report_bytes_are_pinned(name, tmp_path):
    assert report_digest(run_grid_scenario(name, tmp_path)) == DIGESTS[name]


def test_truth_table_refills_keep_the_bytes(monkeypatch, tmp_path):
    """A wake longer than one truth table refills it at the grid time past
    its last row. With 7-row tables every 120 s wake refills many times,
    and the bytes equal those of one table per wake."""
    tables = []
    truth = sh._Engine._truth

    def counting_truth(self, times):
        tables.append(len(times))
        return truth(self, times)

    monkeypatch.setattr(sh._Engine, "_truth", counting_truth)
    monkeypatch.setattr(sh, "_TRUTH_ROWS", 7)
    report = run_grid_scenario("wake_run_120s", tmp_path)
    # One first table per wake; every other 7-row table is a refill.
    assert tables.count(7) > 2
    assert report_digest(report) == DIGESTS["wake_run_120s"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GRID):
            print(f"{name}: {report_digest(run_grid_scenario(name, Path(tmp)))}")
