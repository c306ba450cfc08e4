"""Pinned report bytes over a fixed grid of scenarios.

Each digest is the SHA-256 of the report CSV followed by the diagnostics in
key order and every arm's fix records (which the CSV does not print). A change that moves any output bit fails here; such a change
updates the digest it moves and names the change in CHANGES.md.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from gpssim import constellation as cst
from gpssim import frame_sync as fs
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
    "fieldwise": dict(estimation_mode=fs.EstimationMode.FIELDWISE, off_duration_s=300.0),
    "n_sats_4": dict(n_sats=4, seed=11),
    "n_sats_32": dict(n_sats=32, seed=12),
    "zero_noise": dict(noise_sigma_m=0.0, off_duration_s=2400.0, rtc_ppm=4.0),
    # Satellites cross the 25 degree mask during the 900 s wakes, so each
    # wake fixes with three different sets of channels.
    "changing_selection": dict(
        n_sats=12, min_elevation_deg=25.0, off_duration_s=3000.0, wake_run_s=900.0, seed=4
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
    "fieldwise": "d1aa3cf7a6c0dea682194e8cc1f2e8b92d01ebfdaf02badaca0964c47bb744a0",
    "n_sats_4": "823008b8a0624badd8168485192fd46c59b0010b3e033dce748542ac85292319",
    "n_sats_32": "baacf7da2050f99284afeb2bde2f88ae37942ea0bd822885215d31abbf5ace4a",
    "zero_noise": "726e9515970ad9620264c1f13338c6d0f1917c740988b4290adef1f228c7b0b6",
    "changing_selection": "4040e38566505ef7c2e4a79bffd29a9a2b986255ed963ac817c73e8a61c60152",
}


def report_digest(report: sh.RunReport) -> str:
    text = sh.render_report_csv(report)
    text += "".join(f"{k}={v!r}\n" for k, v in sorted(report.diagnostics.items()))
    text += "".join(
        f"{arm}:{fix!r}\n" for arm in sorted(report.arms) for fix in report.arms[arm].fixes
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRID))
def test_report_bytes_are_pinned(name, tmp_path):
    overrides = dict(GRID[name])
    if "snapshot_path" in overrides:
        overrides["snapshot_path"] = str(tmp_path / overrides["snapshot_path"])
    report = sh.run_scenario(replace(BASE, **overrides))
    assert report_digest(report) == DIGESTS[name]
