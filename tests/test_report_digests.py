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
}

DIGESTS = {
    "default": "7b506e7212ae40d5e35f0a19801830d06fd1a0451a6544397bf7807b7d5c2192",
    "estimator_0.5ppm_60s": "4061866db5cec4df419b3f272c3be208a8be0e620f54a418fc45fd8d2ffeea65",
    "hotstart_30ppm_0s": "c53b0f5e383d59b80398f5d6b78b2342cdc23de2981b546a57368cf26f730fba",
    "fallback_1500s": "a477cf7aa297e282aa28ea9c37929765b8fc64cd3cdd60d26a0c44909634348a",
    "moving_user": "d5c10c743072a564ecf6d54a87714494b4d1d69a71306e39fac83fb04863a8a5",
    "wake_run_120s": "f1a4970a06d1e17918c14bc3617be312fc51715b6ebd8c71bd1e514b9a65e425",
    "snapshot_file": "8b8e5e298f44cddb578d2725bdc5a2447e29c8c42ff9eadedc62e14c221d83f0",
    "week_end_604600_600": "2750db6b5b4ee03091ed067eb7bd012aedf6d3f7c924c842899c8fe69b661618",
    "explicit_masked": "e72a4237462c6043bf588214ca8ed237c139c39c1ea7998b70bf86af72c431ff",
    "fieldwise": "24d4ae872f5e2bc2168747f99747148eccc61eddea4136bbea789cac3cb06f9a",
    "n_sats_4": "823008b8a0624badd8168485192fd46c59b0010b3e033dce748542ac85292319",
    "n_sats_32": "baacf7da2050f99284afeb2bde2f88ae37942ea0bd822885215d31abbf5ace4a",
    "zero_noise": "5e14eb0155788cf6cb3c429f5cdaef26e8a5154a8ec8e40e5f60476f4c0052bf",
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
