"""Scenario engine tests: the full sleep/wake loop, parsing, and CSV export."""
import csv
import io
import re
import struct
import zlib
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpssim import constellation as cst
from gpssim import nav_message as nav
from gpssim import simharness as sh
from gpssim.constants import (
    CHIP_RATE_HZ,
    DEFAULT_PROPAGATION_DELAY_S,
    SPEED_OF_LIGHT_M_S,
    SUBFRAME_S,
    TOW_COUNT,
    WEEK_S,
)
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
        ("seed", -1),
        ("start_week", 9000),
        ("start_week", -3),
        ("start_week", 8191),  # session one runs into week 8192
        ("session1_extra_s", -1.0),
        ("user_pos_ecef", (0.0, 0.0, 0.0)),
        ("user_vel_ecef", (0.0, 0.0, 1e300)),
    ],
)
def test_config_rejects_bad_values(field, value):
    """Each bad value is a ScenarioError that names its field. The base
    starts 10 s before a week end, where start_week 8191 passes the
    validator but session one's subframes need week 8192."""
    config = replace(sh.ScenarioConfig(start_tow_s=604790.0), **{field: value})
    with pytest.raises(sh.ScenarioError, match=field):
        sh.run_scenario(config)


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


def test_noise_for_n_channels_equals_a_fresh_draw():
    """One draw per epoch key serves every channel count: its first n
    values are bitwise the n-value draw a fresh generator gives."""
    engine = sh._Engine(replace(BASE, n_sats=32, noise_sigma_m=5.0, seed=17))
    for elapsed_rx_s in (0.0, 12.3456, 901.2):
        state = SimpleNamespace(clock=SimpleNamespace(elapsed_rx_s=elapsed_rx_s))
        key = int(round(elapsed_rx_s * 1000.0))
        for n in range(4, 33):
            fresh = np.random.default_rng((17, key)).normal(0.0, 5.0, n)
            assert engine._noise(state, n).tobytes() == fresh.tobytes()


class TestClockBookkeeping:
    def test_recovered_offset_error_stays_below_half_quantum(self):
        """Closed loop with a pure bias (no drift): after a fix the stored
        clock offset must match the true offset to half a chip time."""
        report = _run(rtc_ppm=0.0, clock_bias_s=0.00123)
        for key in ("s1_rco_refined_err_s", "estimator_rco_refined_err_s",
                    "hotstart_rco_refined_err_s"):
            assert abs(report.diagnostics[key]) < 0.5 / CHIP_RATE_HZ

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


def _resealed(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """Snapshot bytes with one field overwritten and the CRC recomputed."""
    body = bytearray(blob[:-4])
    struct.pack_into(fmt, body, offset, value)
    return bytes(body) + struct.pack(">I", zlib.crc32(body))


def test_corrupt_snapshot_file_falls_back(tmp_path):
    """A truncated snapshot on disk, or one whose checksum is valid but
    whose fields are unusable (word index out of range, a non-finite clock
    offset, an RTC count ahead of the receiver's, a clock offset weeks off
    that makes the ephemeris look stale), must be rejected and the wake
    must take the conventional decode path instead of crashing."""
    path = tmp_path / "wake.fsnp"
    config = replace(BASE, snapshot_path=str(path))
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    good = path.read_bytes()
    rco_week, rco_second = struct.unpack_from(">id", good, 36)
    base.clock.advance(config.off_duration_s)
    base.t_rel += config.off_duration_s
    for blob in (
        good[:10],
        _resealed(good, 6, ">B", 0),  # word_index
        _resealed(good, 20, ">d", float("nan")),  # carrier_doppler_hz
        _resealed(good, 40, ">d", float("nan")),  # rco_second
        _resealed(good, 40, ">d", float("inf")),
        _resealed(good, 12, ">Q", 2**40),  # rtc_count, far ahead of the RTC
        _resealed(good, 36, ">i", rco_week + 5),
        _resealed(good, 40, ">d", rco_second + WEEK_S / 2),
    ):
        path.write_bytes(blob)
        arm = engine.run_wake(base, snapshot, sh.ARM_ESTIMATOR)
        assert not arm.used_estimate
        assert arm.fixes


def test_no_fix_inside_wake_run_is_an_error():
    # The first fix lands at 1.2 s, after the last sample of a 1 s wake.
    with pytest.raises(sh.ScenarioError, match="no fix inside wake_run_s"):
        sh.run_scenario(sh.ScenarioConfig(wake_run_s=1.0))


def test_first_fix_after_the_last_sample_is_not_solved(monkeypatch):
    """The wake that ends before its first fix fails without solving it."""
    fixes = []
    fix = sh._Engine._fix

    def counting_fix(self, state, t_since_wake):
        fixes.append(t_since_wake)
        return fix(self, state, t_since_wake)

    monkeypatch.setattr(sh._Engine, "_fix", counting_fix)
    with pytest.raises(sh.ScenarioError, match="no fix inside wake_run_s"):
        sh.run_scenario(sh.ScenarioConfig(wake_run_s=1.0))
    assert fixes and [t for t in fixes if t >= 0] == []


PLANAR_SATS = "[constellation]\n" + "".join(
    f"sat = {i} 40 30 {112 + 8 * i}\n" for i in range(1, 7)
)


def test_planar_constellation_is_a_scenario_error():
    """Six satellites in one orbit plane. Seen from the user they pass the
    geometry check, but session one's first fix starts Gauss-Newton at the
    Earth's centre, where every line of sight lies in that plane."""
    config = sh.parse_scenario(PLANAR_SATS)
    with pytest.raises(
        sh.ScenarioError,
        match=r"^unusable geometry in the fix at t=\d+\.\d{3} s: "
        "design matrix condition number exceeds cap$",
    ) as exc:
        sh.run_scenario(config)
    assert isinstance(exc.value.__cause__, sh.pvt.GeometryError)


def test_a_sample_at_a_fix_reuses_its_errors(monkeypatch):
    """Only samples taken before a wake's first fix compute their own
    errors; every later one falls on a fix and reads that fix's."""
    calls = {"enu_errors": 0, "_fix": 0}
    enu_errors, fix = sh.pvt.enu_errors, sh._Engine._fix

    def counting_enu_errors(position, truth):
        calls["enu_errors"] += 1
        return enu_errors(position, truth)

    def counting_fix(self, state, t_since_wake):
        calls["_fix"] += 1
        return fix(self, state, t_since_wake)

    monkeypatch.setattr(sh.pvt, "enu_errors", counting_enu_errors)
    monkeypatch.setattr(sh._Engine, "_fix", counting_fix)
    report = sh.run_scenario(sh.ScenarioConfig(wake_run_s=30.0))
    before_first_fix = [
        s for arm in report.arms.values() for s in arm.samples if not s.fix_valid
    ]
    assert before_first_fix
    assert calls["enu_errors"] == calls["_fix"] + len(before_first_fix)
    for arm in report.arms.values():
        # The first fix lands between samples; each later one on a sample.
        valid = [s for s in arm.samples if s.fix_valid]
        assert len(valid) == len(arm.fixes) - 1
        for s, f in zip(valid, arm.fixes[1:]):
            assert s.t_s == pytest.approx(f.t_since_wake_s, abs=1e-9)
            assert (s.err_east_m, s.err_north_m, s.err_2d_m) == (
                f.err_east_m, f.err_north_m, f.err_2d_m
            )


@pytest.mark.parametrize("sleep_s", [14500.0, 20000.0])
def test_sleep_past_ephemeris_validity_is_a_scenario_error(sleep_s):
    with pytest.raises(sh.ScenarioError, match=r"^stale ephemeris while simulating t=.* s: sat 1: ") as exc:
        sh.run_scenario(sh.ScenarioConfig(off_duration_s=sleep_s))
    assert isinstance(exc.value.__cause__, cst.StaleEphemerisError)


def test_satellite_expiring_mid_wake_fails_at_the_same_fix(monkeypatch):
    """Satellite 3's ephemeris runs out 5.5 s into the first wake. The run
    fails at the ninth fix (6 s after the wake), as when each fix
    evaluated its own truth, and the truth tabulated ahead of it does not
    raise early."""
    t0 = sh.GpsTime(100, 86400.0).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, 8)
    sats = tuple(replace(e, validity=951.5) if e.sat_id == 3 else e for e in sats)
    fixes = []
    fix = sh._Engine._fix

    def counting_fix(self, state, t_since_wake):
        fixes.append(t_since_wake)
        return fix(self, state, t_since_wake)

    monkeypatch.setattr(sh._Engine, "_fix", counting_fix)
    with pytest.raises(sh.ScenarioError, match=r"t=951\.999 s: sat 3: \+952 s from epoch"):
        sh.run_scenario(sh.ScenarioConfig(satellites=sats))
    assert len(fixes) == 9 and fixes[-1] == 6.0


def test_subframes_after_the_week_end_carry_the_next_week(monkeypatch):
    sent = []
    build = nav.build_subframe

    def recording_build(sat_id, subframe_id, tow, week, payload=b""):
        sent.append((tow, week))
        return build(sat_id, subframe_id, tow, week, payload)

    monkeypatch.setattr(nav, "build_subframe", recording_build)
    sh.run_scenario(sh.ScenarioConfig(start_tow_s=604780.0, off_duration_s=60.0))
    after = [week for tow, week in sent if tow < 100]
    before = [week for tow, week in sent if tow > TOW_COUNT - 100]
    assert len(after) > 20 and set(after) == {101}
    assert set(before) <= {100}


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
    """The truth table's light time equals the one-satellite solve."""
    engine = sh._Engine(replace(BASE, n_sats=12, user_vel_ecef=(10.0, -4.0, 3.0)))
    times = [0.0, 61.25, 2000.0]
    truth = engine._truth(times)
    for row, t_rx in enumerate(times):
        single = [engine.tx_rel(eph, t_rx) for eph in engine.sats]
        assert truth.tx[row].tobytes() == np.array(single).tobytes()


# --- truth against its earlier, per-fix form ------------------------------------
# ref_tx_rel is the light-time solve as it was: propagate() (or Orbits.positions
# for several satellites) per iterate and the range as sqrt(vecdot(d, d)).


def ref_tx_rel(engine, sats, t_rel):
    if isinstance(sats, cst.Orbits):
        position = sats.positions
    else:
        def position(t):
            return cst.propagate(sats, t).position
    user = engine.user_pos(t_rel)
    t_tx = t_rel - DEFAULT_PROPAGATION_DELAY_S
    for _ in range(3):
        d = position(engine.t0_abs + t_tx) - user
        t_tx = t_rel - np.sqrt(np.vecdot(d, d)) / SPEED_OF_LIGHT_M_S
    return t_tx if isinstance(sats, cst.Orbits) else float(t_tx)


def ref_fix_truth(engine, idx, t):
    """Elevations and transmit times of satellites idx as a fix computed them."""
    up = engine.orbits[idx].positions(engine.t0_abs + t)
    elevation = cst.elevation_angle(up, engine.user_pos(t))
    return elevation, ref_tx_rel(engine, engine.orbits[idx], t)


@given(
    n_sats=st.integers(4, 32),
    vel=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
    t_rx=st.floats(-1.0, 14500.0),
)
@settings(max_examples=150, deadline=None)
def test_one_satellite_light_time_equals_propagate_reference(n_sats, vel, t_rx):
    engine = sh._Engine(replace(BASE, n_sats=n_sats, user_vel_ecef=vel))
    for eph in engine.sats:
        try:
            expected = ref_tx_rel(engine, eph, t_rx)
        except cst.StaleEphemerisError as exc:
            with pytest.raises(cst.StaleEphemerisError, match=f"^{re.escape(str(exc))}$"):
                engine.tx_rel(eph, t_rx)
            continue
        got = engine.tx_rel(eph, t_rx)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def _varied_validity_sats(n):
    """Default orbits whose validity windows end at different times."""
    t0 = sh.GpsTime(BASE.start_week, BASE.start_tow_s).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, n)
    return tuple(
        replace(e, validity=900.0 + 0.04 * k) if k % 3 == 0 else e
        for k, e in enumerate(sats)
    )


@given(
    n_sats=st.integers(4, 16),
    vel=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
    start=st.floats(880.0, 905.0),
    period=st.floats(0.01, 3.0),
    m=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_truth_rows_equal_per_fix_truth(n_sats, vel, start, period, m):
    """Every valid cell equals the per-fix computation bit for bit, the
    stale masks mark exactly the satellites for which it raised, and row
    lookup is by exact receive time."""
    cfg = replace(BASE, satellites=_varied_validity_sats(n_sats), user_vel_ecef=vel)
    engine = sh._Engine(cfg)
    times = [start + k * period for k in range(m)]
    truth = engine._truth(times)
    assert truth.rows == {t: k for k, t in enumerate(times)}
    for row, t in enumerate(times):
        assert truth.user[row].tobytes() == engine.user_pos(t).tobytes()
        fresh = []
        for i in range(n_sats):
            one = np.array([i])
            try:
                engine.orbits[one].positions(engine.t0_abs + t)
                rx_stale = False
            except cst.StaleEphemerisError:
                rx_stale = True
            try:
                ref_tx_rel(engine, engine.orbits[one], t)
                tx_stale = False
            except cst.StaleEphemerisError:
                tx_stale = True
            assert truth.stale_rx[row, i] == rx_stale
            assert truth.stale_tx[row, i] == tx_stale
            if not (rx_stale or tx_stale):
                fresh.append(i)
        if fresh:
            idx = np.array(fresh)
            elevation, tx = ref_fix_truth(engine, idx, t)
            assert truth.elevation[row, idx].tobytes() == elevation.tobytes()
            assert truth.tx[row, idx].tobytes() == tx.tobytes()


# --- session one's ephemeris timeline against the boundary chain ------------------
# ref_ephemeris_timeline is session one's ephemeris collection as it was: from
# the label, one event at every subframe boundary, each found by Newton steps
# on tx_rel, until subframes 1-3 are in; every subframe heard is decoded.


def ref_next_boundary_t(engine, eph, t_rel, s=None):
    """True time at which the satellite's next subframe boundary arrives; s
    is its transmit time at t_rel, if known. The bias keeps a call made
    exactly at a boundary from finding that same boundary again."""
    if s is None:
        s = engine.tx_rel(eph, t_rel)
    k = int((engine.config.start_tow_s + s + 1e-6) // SUBFRAME_S) + 1
    target = k * SUBFRAME_S - engine.config.start_tow_s
    t = t_rel + (target - s)
    for _ in range(2):
        t += target - engine.tx_rel(eph, t)
    return t


def ref_ephemeris_timeline(engine, eph, t_label):
    """Boundary event times after a label at t_label, and the ephemeris
    subframes delivered as (sat_id, subframe_id, tow, week_number)."""
    cfg = engine.config
    packed = cst.pack_ephemeris(eph)
    times, delivered = [], {}
    t = ref_next_boundary_t(engine, eph, ref_next_boundary_t(engine, eph, t_label))
    while True:
        s = engine.tx_rel(eph, t)
        times.append(t)
        k = int(round((cfg.start_tow_s + s) / SUBFRAME_S)) - 1
        sfid = k % 5 + 1
        week = cfg.start_week + (k + 1) // TOW_COUNT
        payload = packed[sfid - 1] if sfid <= 3 else b""
        sf = nav.build_subframe(eph.sat_id, sfid, (k + 1) % TOW_COUNT, week, payload)
        sf = nav.decode_subframe(nav.subframe_bits(sf))
        if sf.subframe_id <= 3:
            delivered[sf.subframe_id] = (sf.sat_id, sf.subframe_id, sf.tow, sf.week_number)
        if len(delivered) == 3:
            return times, list(delivered.values())
        t = ref_next_boundary_t(engine, eph, t, s)


@given(
    start_tow_s=st.one_of(st.floats(0.0, 60.0), st.floats(WEEK_S - 60.0, WEEK_S - 1e-3)),
    vel=st.sampled_from(
        [(0.0, 0.0, 0.0), (1000.0, 0.0, 0.0), (0.0, 0.0, -1000.0), (600.0, -800.0, 0.0)]
    ),
    t_label=st.floats(0.0, 120.0),
    # None: t_label as drawn; else moved onto the next boundary, plus this.
    boundary_offset_s=st.one_of(st.none(), st.sampled_from([0.0, -5e-7])),
)
@settings(max_examples=60, deadline=None)
def test_ephemeris_timeline_equals_boundary_chain(start_tow_s, vel, t_label, boundary_offset_s):
    """The one ephemeris event lands within 1e-9 s of the chain's last
    boundary and delivers the same subframes, for static and 1000 m/s
    users, across the week end, and for a label exactly on a boundary or
    inside the bias that counts it as on one."""
    engine = sh._Engine(replace(BASE, start_tow_s=start_tow_s, user_vel_ecef=vel))
    decode = nav.decode_subframe
    decoded = []

    def recording_decode(bits):
        sf = decode(bits)
        decoded.append((sf.sat_id, sf.subframe_id, sf.tow, sf.week_number))
        return sf

    for eph in engine.sats:
        t_rx = t_label
        if boundary_offset_s is not None:
            t_rx = ref_next_boundary_t(engine, eph, t_label) + boundary_offset_s
        times, expected = ref_ephemeris_timeline(engine, eph, t_rx)

        t, subframes = engine._ephemeris_subframes(eph, t_rx)
        decoded.clear()
        with mock.patch.object(nav, "decode_subframe", recording_decode):
            engine._deliver_ephemeris(sh._Chan(eph), subframes)
        assert abs(t - times[-1]) <= 1e-9
        assert decoded == expected


def test_tx_rel_solution_is_self_consistent():
    engine = sh._Engine(replace(BASE, user_vel_ecef=(10.0, -4.0, 3.0)))
    eph = engine.sats[0]
    t_rx = 2000.0
    t_tx = engine.tx_rel(eph, t_rx)
    sat = cst.propagate(eph, engine.t0_abs + t_tx).position
    rng = np.linalg.norm(sat - engine.user_pos(t_rx))
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
        # Invalid orbits, found when the records are built after the loop.
        ("[constellation]\nsat = 1 55 10 20\nsat = 40 55 0 0\n", "line 3: sat: sat_id"),
        ("[constellation]\nsat = 1 55 10 20 1000\n", "line 2: sat: orbit radius"),
        ("[constellation]\nsat = 1 55 10 20 26560000 0\n", "line 2: sat: validity"),
        ("[constellation]\nsat = inf 55 10 20\n", "line 2: sat"),
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
