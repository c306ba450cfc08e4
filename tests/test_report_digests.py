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
    # Four samples a second between the locks, labels and first fix.
    "quarter_second_samples": dict(sample_period_s=0.25, wake_run_s=8.0, seed=3),
    # Six labels arrive at +2.66 s and the last sample is at +2.67 s; two
    # come after it, and the clock offset error moves if they are dropped.
    "labels_outlive_wake": dict(
        arms="hotstart", start_tow_s=86400.015, wake_run_s=2.67, sample_period_s=2.67
    ),
    # Session one's paths. Started 10 ms into a bit, its labels straddle a
    # bit boundary and come out of row order.
    "labels_straddle_bit": dict(start_tow_s=6.01),
    # Its subframes and fixes run across the week end.
    "week_end_session_one": dict(start_tow_s=604795.0),
    # A single session-one fix, so no clock-offset jitter.
    "single_session_one_fix": dict(session1_extra_s=0.0),
}

DIGESTS = {
    "default": "1f522694648ef5fb72ae68440895929f1e894e0f45768ae32c72071f32805b72",
    "estimator_0.5ppm_60s": "751439b20386a9981a059b00a1cf03931b6e6b1a37478602901e78a8e0c24954",
    "hotstart_30ppm_0s": "3811872aaf735fad72cbc35f0c3761acc6794953c03d134f80c7b280e6e45f1c",
    "fallback_1500s": "a4e1211619c0aba0780ee52dec82e500f7136e1de58cd52d11da996aeeff7f67",
    "moving_user": "a289bc46419631899ed829f9f68704c69538b31f9d4c4980fd18089d53356cdd",
    "wake_run_120s": "8bd0f9794fdf7284eccb04f141d30215353b476127f77fc6fe06272cf4b8f217",
    "snapshot_file": "60a46aa5888e2746141debf71d5bb912123f9055e03e1235df995bd7c02bfc46",
    "week_end_604600_600": "3738a0abb3155d08232e7d382fbadd8366fca3a948ae22aab0a97719f676ef63",
    "explicit_masked": "b271e218a724c416a9b679688d303185ae2c180d2430990c05779ffc7df7da64",
    "n_sats_4": "9098ec3282126117bcec7a94841531b6a6c7e0a5d182ff92c95bad8e422a5b1e",
    "n_sats_32": "3bc3123ac74c7e3984d1c99a81ae5404d4f8f32821c62623bd596184941a5728",
    "zero_noise": "4bb4a1519d1db5038ccc40e66491eb997edb82f49c6ade24137b1aaa7766cdc1",
    "changing_selection": "9399d50c46a3be773304ea548a0b56ece60b3c77cd4a7927fdd432882d848cde",
    "zero_latency": "1b91024f195dfe8185e4980d5a80c39c25b7388c43ff6242f52b6973f1d3601a",
    "quarter_second_samples": "e82d3fe25dcca5344d0ddacb505567be33ea43dd96b9b1e83995ab663d1673be",
    "labels_outlive_wake": "0fd39cbf4766a98891d2b9a0e9dd80e84102f87fc642d4e9bca1a76fef56227a",
    "labels_straddle_bit": "783a4ddda58eee8492769e3863a429918448bb0ebf27374519840615461becca",
    "week_end_session_one": "5037dcd3d277db258fc6e8d6938f97726be93ded40ec3fa49d0c1eaf8a4bcfc4",
    "single_session_one_fix": "4b8b495f5a82b1319800b3532bfa43f803388ac762ea1e7992f24c65fa7e18f9",
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
