"""Scenario engine tests: the full sleep/wake loop, parsing, and CSV export."""
import csv
import io
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from gpssim import constellation as cst
from gpssim import simharness as sh
from gpssim.constants import CODE_TIME_QUANTUM_S, SPEED_OF_LIGHT_M_S
from gpssim.frame_sync import load_snapshot

BASE = sh.ScenarioConfig(off_duration_s=60.0, noise_sigma_m=0.0, seed=3)
FOUR_SATS = tuple(cst.default_constellation(np.array(BASE.user_pos_ecef), 0.0, 4))


def _run(**overrides):
    return sh.run_scenario(replace(BASE, **overrides))


# --- power ratio ---------------------------------------------------------------


def test_power_ratio_values():
    assert sh.power_savings_ratio(900.0, 3.0) == pytest.approx(3.0 / 903.0)
    assert sh.power_savings_ratio(900.0, 2.5) == pytest.approx(2.5 / 902.5)
    assert sh.power_savings_ratio(0.0, 5.0) == 1.0


def test_power_ratio_validation():
    with pytest.raises(ValueError):
        sh.power_savings_ratio(900.0, 0.0)
    with pytest.raises(ValueError):
        sh.power_savings_ratio(-1.0, 5.0)


# --- config validation -----------------------------------------------------------


def test_default_config_is_valid():
    sh.ScenarioConfig().validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("arms", "warmstart"),
        ("off_duration_s", -1.0),
        ("noise_sigma_m", -0.1),
        ("sample_period_s", 0.0),
        ("wake_run_s", 0.5),
        ("rtc_nominal_hz", 0.0),
        ("rtc_ppm", -2.0),
        ("bit_margin_ms", 0.0),
        ("start_tow_s", 604800.0),
        ("n_sats", 3),
        ("estimator_epsilon_s", -0.01),
        ("code_s", -0.1),
        ("off_duration_s", float("nan")),
        ("rtc_ppm", float("inf")),
        ("rtc_ppm", 1e300),
        ("code_s", 1e300),
        ("noise_sigma_m", 1e300),
        ("satellites", FOUR_SATS + FOUR_SATS[:1]),
        ("wake_run_s", 1e9),  # each wake would queue 1e9 sample events
        ("sample_period_s", 1e-6),
    ],
)
def test_config_rejects_bad_values(field, value):
    with pytest.raises(sh.ScenarioError):
        replace(sh.ScenarioConfig(), **{field: value}).validate()


# --- the wake comparison -----------------------------------------------------------


class TestRunScenario:
    def test_both_arms_report(self):
        report = _run()
        assert set(report.arms) == {sh.ARM_ESTIMATOR, sh.ARM_HOTSTART}

    def test_sample_grid_starts_at_wake(self):
        report = _run(wake_run_s=6.0)
        for arm in report.arms.values():
            ts = [s.t_s for s in arm.samples]
            assert ts == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_first_sample_is_stale_last_known_error(self):
        report = _run()
        for arm in report.arms.values():
            first = arm.samples[0]
            assert not first.fix_valid
            # Stationary user, zero noise: the stale position is still good.
            assert first.err_2d_m < 1.0

    def test_estimator_skips_frame_decode_wait(self):
        report = _run()
        est = report.arms[sh.ARM_ESTIMATOR]
        assert est.used_estimate
        assert est.time_to_first_fix_s == pytest.approx(1.2, abs=1e-9)

    def test_epsilon_adds_to_estimator_ttff_only(self):
        report = _run(estimator_epsilon_s=0.1)
        assert report.arms[sh.ARM_ESTIMATOR].time_to_first_fix_s == pytest.approx(1.3)
        hot = report.arms[sh.ARM_HOTSTART]
        assert hot.time_to_first_fix_s == pytest.approx(1.2 + hot.hotstart_delay_s)

    def test_hotstart_pays_the_frame_decode_wait(self):
        report = _run()
        est = report.arms[sh.ARM_ESTIMATOR]
        hot = report.arms[sh.ARM_HOTSTART]
        assert hot.hotstart_delay_s is not None
        assert 1.2 <= hot.hotstart_delay_s <= 6.0
        measured = hot.time_to_first_fix_s - est.time_to_first_fix_s
        assert measured == pytest.approx(hot.hotstart_delay_s, abs=1e-6)
        assert not hot.used_estimate

    def test_power_ratio_reflects_ttff(self):
        report = _run()
        for arm in report.arms.values():
            expected = sh.power_savings_ratio(
                60.0, arm.time_to_first_fix_s + BASE.sample_period_s
            )
            assert arm.power_ratio == pytest.approx(expected)
        assert (
            report.arms[sh.ARM_ESTIMATOR].power_ratio
            < report.arms[sh.ARM_HOTSTART].power_ratio
        )

    def test_fixes_recover_user_position(self):
        report = _run()
        for arm in report.arms.values():
            assert arm.fixes
            assert all(f.converged for f in arm.fixes)
            # After the first fix the per-satellite delays are solved and
            # the remaining error is chip quantization, far below a meter.
            for f in arm.fixes[1:]:
                assert f.err_2d_m < 1e-2
            assert arm.rms_2d_m < 5.0

    def test_single_arm_selection(self):
        report = _run(arms=sh.ARM_ESTIMATOR)
        assert list(report.arms) == [sh.ARM_ESTIMATOR]

    def test_identical_arms_without_power_off(self):
        report = _run(off_duration_s=0.0)
        est = report.arms[sh.ARM_ESTIMATOR]
        hot = report.arms[sh.ARM_HOTSTART]
        assert est.used_estimate
        # Steady state: once both arms have moved past their first fix the
        # sample grids land on the same receiver epochs and must agree.
        settle = max(est.time_to_first_fix_s, hot.time_to_first_fix_s) + 1.0
        compared = 0
        for a, b in zip(est.samples, hot.samples):
            if a.t_s >= settle:
                assert a.fix_valid and b.fix_valid
                assert a.err_2d_m == pytest.approx(b.err_2d_m, abs=1e-6)
                compared += 1
        assert compared >= 2

    def test_closed_loop_fixes_recover_truth_exactly(self):
        report = _run(rtc_ppm=0.0, clock_bias_s=0.0)
        for arm in report.arms.values():
            for f in arm.fixes[1:]:
                assert f.err_2d_m < 1e-3

    def test_excessive_drift_falls_back_to_decoding(self):
        # 30 ppm over 900 s sleeps past the 10 ms bit margin budget.
        report = _run(rtc_ppm=30.0, off_duration_s=900.0)
        est = report.arms[sh.ARM_ESTIMATOR]
        assert not est.used_estimate
        assert report.diagnostics["estimator_used_estimate"] == 0.0
        assert est.fixes  # the fallback still produces fixes
        assert est.time_to_first_fix_s > 1.2 + 1.0

    def test_deterministic_across_runs(self):
        cfg = replace(BASE, noise_sigma_m=5.0, seed=11)
        a = sh.render_report_csv(sh.run_scenario(cfg))
        b = sh.render_report_csv(sh.run_scenario(cfg))
        assert a == b

    def test_seed_changes_noise(self):
        a = sh.run_scenario(replace(BASE, noise_sigma_m=5.0, seed=1))
        b = sh.run_scenario(replace(BASE, noise_sigma_m=5.0, seed=2))
        assert (
            a.arms[sh.ARM_ESTIMATOR].fixes[0].err_2d_m
            != b.arms[sh.ARM_ESTIMATOR].fixes[0].err_2d_m
        )


class TestClockBookkeeping:
    def test_recovered_offset_error_stays_below_half_quantum(self):
        """Closed loop with a pure bias (no drift): after a fix the stored
        clock offset must match the true offset to half a chip time."""
        report = _run(rtc_ppm=0.0, clock_bias_s=0.00123)
        for key in ("s1_rco_refined_err_s", "estimator_rco_refined_err_s",
                    "hotstart_rco_refined_err_s"):
            assert abs(report.diagnostics[key]) < 0.5 * CODE_TIME_QUANTUM_S

    def test_predicted_bit_position_matches_truth(self):
        report = _run(off_duration_s=900.0)
        assert report.diagnostics["estimator_label_shift_bits"] == 0.0
        assert report.diagnostics["hotstart_label_shift_bits"] == 0.0

    def test_first_rco_before_any_fix_is_bias_accurate(self):
        report = _run(rtc_ppm=0.0, clock_bias_s=0.01)
        # Before the first fix the offset uses the nominal delay; its error
        # is bounded by the geometry spread, well under 10 ms.
        assert abs(report.diagnostics["s1_rco_first_err_s"]) < 0.01
        assert report.diagnostics["s1_rco_jitter_s"] < 1e-5


def test_snapshot_file_round_trip(tmp_path):
    path = tmp_path / "wake.fsnp"
    report = _run(snapshot_path=str(path))
    assert path.exists()
    snap = load_snapshot(path)
    assert 1 <= snap.word_index <= 10
    assert len(snap.ephemeris_ids) == 8
    assert report.arms[sh.ARM_ESTIMATOR].used_estimate


def test_corrupt_snapshot_file_falls_back(tmp_path):
    """A truncated snapshot on disk, or one whose checksum is valid but whose
    word index is out of range, must be rejected and the wake must take the
    conventional decode path instead of crashing."""
    path = tmp_path / "wake.fsnp"
    config = replace(BASE, snapshot_path=str(path))
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    good = path.read_bytes()
    body = bytearray(good[:-4])
    body[6] = 0  # word_index
    out_of_range = bytes(body) + struct.pack(">I", zlib.crc32(body))
    base.clock.advance(config.off_duration_s)
    base.t_rel += config.off_duration_s
    for blob in (good[:10], out_of_range):
        path.write_bytes(blob)
        arm = engine.run_wake(base, snapshot, sh.ARM_ESTIMATOR)
        assert not arm.used_estimate
        assert arm.fixes


def test_no_fix_inside_wake_run_is_an_error():
    # The first fix lands at 1.2 s, after the last sample of a 1 s wake.
    with pytest.raises(sh.ScenarioError, match="no fix inside wake_run_s"):
        sh.run_scenario(sh.ScenarioConfig(wake_run_s=1.0))


@pytest.mark.parametrize("start_tow_s,sleep_s", [(604600.0, 600.0), (604700.0, 300.0)])
def test_wake_across_the_week_end_matches_one_day_earlier(start_tow_s, sleep_s):
    """A day is a whole number of subframes, so the same scenario started a
    day earlier differs only in not crossing the week end."""
    cfg = sh.ScenarioConfig(start_tow_s=start_tow_s, off_duration_s=sleep_s)
    across = sh.run_scenario(cfg)
    before = sh.run_scenario(replace(cfg, start_tow_s=start_tow_s - 86400.0))
    assert across.arms["estimator"].used_estimate
    assert [k for k in across.diagnostics] == [k for k in before.diagnostics]
    rco_keys = [k for k in before.diagnostics if "rco" in k]
    assert len(rco_keys) == 5
    for key in rco_keys:
        assert across.diagnostics[key] == pytest.approx(before.diagnostics[key], abs=1e-6)
    for name, arm in before.arms.items():
        assert across.arms[name].used_estimate == arm.used_estimate
        assert across.arms[name].time_to_first_fix_s == pytest.approx(
            arm.time_to_first_fix_s, abs=1e-6
        )


def test_batched_tx_rel_equals_per_record():
    engine = sh._Engine(replace(BASE, n_sats=12, user_vel_ecef=(10.0, -4.0, 3.0)))
    for t_rx in (0.0, 61.25, 2000.0):
        batch = engine.tx_rel(engine.orbits, t_rx)
        single = [engine.tx_rel(eph, t_rx) for eph in engine.sats]
        assert batch.tobytes() == np.array(single).tobytes()


def test_tx_rel_solution_is_self_consistent():
    engine = sh._Engine(replace(BASE, user_vel_ecef=(10.0, -4.0, 3.0)))
    eph = engine.sats[0]
    t_rx = 2000.0
    t_tx = engine.tx_rel(eph, t_rx)
    sat = cst.propagate(eph, engine.t0_abs + t_tx).position
    rng = cst.geometric_range(sat, engine.user_pos(t_rx))
    assert t_rx - t_tx == pytest.approx(rng / SPEED_OF_LIGHT_M_S, abs=1e-12)


# --- scenario text ------------------------------------------------------------------

SCENARIO_TEXT = """\
# wake comparison, explicit orbits
[scenario]
seed = 9
arms = both
off_duration_s = 120.5
noise_sigma_m = 2.0
wake_run_s = 8
start_week = 101
start_tow_s = 3600

[user]
pos_ecef_m = -1266643.136 -4727176.539 4079014.032
vel_ecef_mps = 0 0 0

[clock]
rtc_nominal_hz = 32000
rtc_ppm = 12.5
clock_bias_s = 0.002
bit_margin_ms = 10

[locks]
code_s = 0.5
carrier_s = 0.3
bit_s = 0.4

[constellation]
sat = 1 55 10 20
sat = 2 60 80 150 26559700 7200
"""


def test_parse_scenario_values():
    cfg = sh.parse_scenario(SCENARIO_TEXT)
    assert cfg.seed == 9
    assert cfg.off_duration_s == 120.5
    assert cfg.noise_sigma_m == 2.0
    assert cfg.start_week == 101
    assert cfg.rtc_ppm == 12.5
    assert cfg.clock_bias_s == 0.002
    assert cfg.user_pos_ecef == (-1266643.136, -4727176.539, 4079014.032)
    assert cfg.satellites is not None and len(cfg.satellites) == 2
    sat2 = cfg.satellites[1]
    assert sat2.sat_id == 2
    assert sat2.inclination == pytest.approx(np.radians(60.0))
    assert sat2.orbit_radius == 26559700.0
    assert sat2.validity == 7200.0
    assert sat2.epoch == pytest.approx(101 * 604800 + 3600.0)


def test_parse_scenario_count_key():
    cfg = sh.parse_scenario("[constellation]\ncount = 6\n")
    assert cfg.n_sats == 6
    assert cfg.satellites is None


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[orbit]\n", "line 1"),
        ("[scenario]\nseed 9\n", "line 2"),
        ("seed = 9\n", "outside any section"),
        ("[scenario]\nwarp = 9\n", "unknown key"),
        ("[user]\npos_ecef_m = 1 2\n", "line 2"),
        ("[constellation]\nsat = 1 55 10\n", "line 2"),
        ("[scenario]\nseed = fast\n", "line 2"),
    ],
)
def test_parse_scenario_errors_carry_line_numbers(text, fragment):
    with pytest.raises(sh.ScenarioError, match=fragment):
        sh.parse_scenario(text)


def test_read_scenario_file(tmp_path):
    path = tmp_path / "case.scn"
    path.write_text(SCENARIO_TEXT)
    assert sh.read_scenario(path) == sh.parse_scenario(SCENARIO_TEXT)


# --- CSV export ---------------------------------------------------------------------


def test_csv_shape_and_summary_lines():
    report = _run(wake_run_s=5.0)
    text = sh.render_report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == sh.CSV_HEADER
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    assert len(data) == 2 * 6  # two arms, six samples each
    assert len(comments) == 2
    assert any("arm=estimator" in c and "time_to_first_fix_s=1.200" in c
               for c in comments)


def test_csv_parses_with_stdlib_reader():
    text = sh.render_report_csv(_run())
    rows = [r for r in csv.reader(io.StringIO(text)) if not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    assert header == sh.CSV_HEADER.split(",")
    for row in body:
        float(row[0])
        assert row[1] in (sh.ARM_ESTIMATOR, sh.ARM_HOTSTART)
        assert row[2] in ("0", "1")
        for cell in row[3:]:
            float(cell)


def test_export_report_is_stable_on_disk(tmp_path):
    report = _run()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sh.export_report(report, p1)
    sh.export_report(report, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == sh.render_report_csv(report)
