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
    "default": "29f3195a98eb970df1abc3ad2bbd5a7c0673a7b755e3e68b556bd4ada91335ae",
    "estimator_0.5ppm_60s": "1f46b55c9db9d461337d21a34685f408a3da4f06f6afbba07cbeefa04c2d405a",
    "hotstart_30ppm_0s": "78d24a4bebcd34f6a7c37507283840a3bcd1427ecf4b3e87fc3be8b4427baeab",
    "fallback_1500s": "2fe4ecad45d7baf2e08528d57de7336a6086b33440ac4845ca6fa561fd3da2de",
    "moving_user": "353743f6f52d0eaff7a1bf44f5a9e4d27faf44563dd4e6a967cc4d638bcb6545",
    "wake_run_120s": "1b24684c4602106b68e803a47ec6ca8cfdb20de491a32d6506adb1cf2bf4d6d8",
    "snapshot_file": "8167873aa9241bcd90c2f09a145047fc4c4a1eefb587b92cef4d1537685b9129",
    "week_end_604600_600": "2a6492d70237939bc65eb514b9b9bc68840d572862b50b724914884e2e158f8e",
    "explicit_masked": "ac53b6f9e3bba7a96273470feb5d11dc81410c43b26cdfd98f7e1fe923bbe03d",
    "n_sats_4": "e7ce7355f8d297ed6860a9e0086644b815bcf982f276594b0a0ebb6a58fac852",
    "n_sats_32": "0211f249e853ac70e58a4a20c5b4751d7a41c41d4f176299dff7562e7cdcce0b",
    "zero_noise": "d089e0745167aaeb8f0eba830000a376c46e6039e1a7afdaea7abbed475f0b29",
    "changing_selection": "c9c848fc872a6b2555ab5d2215a79379a983b0f768ca8d95f66b95d3fdafbd7a",
    "zero_latency": "db3d49826af296b0fa943f6073ef01415064daee3d7a2fea6a78e413d32705d2",
    "quarter_second_samples": "1e69eba02621b4aa1859c94909f7c2366a91626c8412924f76d4381ddd65bd26",
    "labels_outlive_wake": "cacc21f24cb6ed456a3baf36a203eaf9cacfa2f53a491a18b65b0966b83fc2f4",
    "labels_straddle_bit": "8c2ce20936b18d57d0b12552cee996524a6e314533e67c696717d83b9c9f6091",
    "week_end_session_one": "74bac3e95ebe6d914ca77d8cae64cdf47c963c977494f21f9934a4533b4580dd",
    "single_session_one_fix": "0b5f5dc655de94bf58804f6ab7a19e3598740361304a55b7954f2ed4dfdc0df4",
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
