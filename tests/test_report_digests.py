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
    "default": "d7046ff68a1865a4e4759521febcce89779094f9ccee95ae0bbf27d3bdf27910",
    "estimator_0.5ppm_60s": "16db80c6fc532b9795a306c100526991f600208a8b4f9c8c8224ff03255e4ac7",
    "hotstart_30ppm_0s": "9aa1d7cd444465fc723e010877acd2b77dcb47f2d41b30e1a9427399cae19019",
    "fallback_1500s": "af1f14a036c9c54f19c5e64cfd4a7ec62958e18bf212376117963639fdac0a8d",
    "moving_user": "2afb4fec4b19cff8ff769e717319f290d079247710e10fc549378a8c70f2902d",
    "wake_run_120s": "1b823f7f00d627d121e07ee7a22e7e5f0e762ae31358bc7b489c02d41f471ada",
    "snapshot_file": "7bdb570aac2ed6eebfae2c664c74d3ce8f5f3fb80bf1e89728ff2385ef6915d0",
    "week_end_604600_600": "f41b490cb1784e8d9d7fdf14eaaf413a3bee18374487cb4c1e0ae686025a3ad2",
    "explicit_masked": "dfaa269210a032808b1c36e9f231de80efac479131465b4c3e61f2a76db9f98c",
    "n_sats_4": "5d4b3bfb0a3ada428d88edc4bd0decb385dfc3ef8b726d3107cf5aa786a0aa7f",
    "n_sats_32": "1459c581bfbff9e9ea52278fe78b865188dfc3cfbaf9dc898f5017b50f09fff0",
    "zero_noise": "d089e0745167aaeb8f0eba830000a376c46e6039e1a7afdaea7abbed475f0b29",
    "changing_selection": "0917b5fba5322ee48b94a0fab874a9c07c750ae27d528d41520fed0a96bead61",
    "zero_latency": "e3d59bedebf62116a78572e8d13640d0b084b5cf4affc22d4198801d81807fff",
    "quarter_second_samples": "2a67e0b7450db793cb523a71b821737b2d2389f79336782ea977cf9919ffac43",
    "labels_outlive_wake": "576ce20ceab435d26cfd963d91d1ebb4f5c1d9dda56f880d47c97f3fba243cb9",
    "labels_straddle_bit": "d295a8bc3719f5e324f79418f38f07b78f73d75d8d6c867f10fce135eb3c5f12",
    "week_end_session_one": "b0918b694707a326e0447c01c79f2e523c882be997ee4add9937844b8282533a",
    "single_session_one_fix": "a2e59fabc1d65d37517b24e95df1b756d411fdeb2480afc4afa14c10bd04dbef",
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
