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
    "default": "c4353aa78dc63d3f88d856a9253901eaf25636bc2f42d7fbbbf1193055a21cd6",
    "estimator_0.5ppm_60s": "02e0811cf0be3b49715c0ce74bfe1b4e7afaff06e030e0b572ce8a38fabe41ad",
    "hotstart_30ppm_0s": "be14c606cec00ef27d523906b743b1efb56d09b2b204be93956e85acacadb5d7",
    "fallback_1500s": "8bf0bcf81021218efdd557c567703ec7897c4b9cd2988ee784afde1cf58f71fc",
    "moving_user": "f1f66f360651f0b02a66478b0217be73ee1b9a09d4d047ec85dc5ca068ac1aec",
    "wake_run_120s": "ad3541ad4d8138ba8d45bac2b0c98fbabe51308f3cfad80a2a27ffff628e5093",
    "snapshot_file": "61105197916d8374b095a428dffa30499f7d2f7474defc7802649fffb3f89b45",
    "week_end_604600_600": "b32fd2e80d75b2358bb5f043c33a0e07b1f323870901d99c211a2bfe6ab6d35c",
    "explicit_masked": "7126a53e954e8f6676b7aa973d3d757f2c81c5716bafa36db07979a688aa7af0",
    "n_sats_4": "714b89dc81edc4fb143effa9078c7744b6083ca5b7db6d3a78269f98b5181dcc",
    "n_sats_32": "108fa0677011b0a9bc097e73d9ef890579ff39ca904ac26833d32361a235791c",
    "zero_noise": "50857375f29bf38df21298ecca63bd1a89049d6f003a4dfce518bc042334d28c",
    "changing_selection": "fda46bf8b75116421b4243c2f9c03e13d1f9deb1e48f37913adc1993949cefee",
    "zero_latency": "bd32815832e10d9a18bfff7692df4c2a363051134ced54573f67a0eccbc1f3d3",
    "quarter_second_samples": "811b90c34e05c2853a147ccda2f43d7e46123c78a33832d4559b0110bafd8089",
    "labels_outlive_wake": "e52acd152e7db44beac6af620c3463dcbaea414f0f0230fc0a47b43ae9462548",
    "labels_straddle_bit": "3010d773fa6ba631bd02c2415f955034a9055f76cf32e3295af529d12d64fba1",
    "week_end_session_one": "4c37c95c6192a5af7681581ca48efd5f1d8e9c0b3bf4fb5404fc75b572a9dcbb",
    "single_session_one_fix": "11aa4d1a1bd85a21b8c181a58a637db3ebe6a85ff3c0e6608ca5c9559ca91b30",
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
