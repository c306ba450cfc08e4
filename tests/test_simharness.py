"""Scenario engine tests: the full sleep/wake loop, parsing, and CSV export."""
import copy
import csv
import heapq
import io
import itertools
import math
import re
import struct
import warnings
import zlib
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpssim import constellation as cst
from gpssim import nav_message as nav
from gpssim import pvt
from gpssim import receiver as rcv
from gpssim import simharness as sh
from gpssim.constants import (
    CHIP_RATE_HZ,
    DEFAULT_PROPAGATION_DELAY_S,
    SPEED_OF_LIGHT_M_S,
    SUBFRAME_S,
    TIC_S,
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
        ("wake_run_s", 1e9),  # each wake would list and take 1e9 samples
        ("sample_period_s", 1e-6),
        ("seed", -1),
        ("start_week", 9000),
        ("start_week", -3),
        ("start_week", 8191),  # session one runs into week 8192
        ("session1_extra_s", -1.0),
        ("user_pos_ecef", (0.0, 0.0, 0.0)),
        ("user_vel_ecef", (0.0, 0.0, 1e300)),
        ("min_elevation_deg", -1e9),  # ran as if it were -90
        ("min_elevation_deg", 90.5),  # failed later: no satellite visible
        # An RTC tick not shorter than the bit margin: 1000 ms, 1/32 ms.
        ("rtc_nominal_hz", 1.0),
        ("bit_margin_ms", 0.01),
        # Each crashed later with a TypeError or a broadcasting ValueError.
        ("seed", 1.5),
        ("start_week", 100.5),
        ("n_sats", 8.0),
        ("user_pos_ecef", (-1266643.136, -4727176.539)),
        ("user_vel_ecef", (0.0, 0.0)),
        ("user_pos_ecef", (-1266643.136, -4727176.539, 4079014.032, 0.0)),
    ],
)
def test_config_rejects_bad_values(field, value):
    """Each bad value is a ScenarioError that names its field. The base
    starts 10 s before a week end, where start_week 8191 passes the
    validator but session one's subframes need week 8192."""
    config = replace(sh.ScenarioConfig(start_tow_s=604790.0), **{field: value})
    with pytest.raises(sh.ScenarioError, match=field):
        sh.run_scenario(config)


def test_config_accepts_numpy_integers():
    sh.ScenarioConfig(seed=np.int64(7), start_week=np.int32(100), n_sats=np.uint8(8)).validate()


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

    def test_single_arm_selection(self, tmp_path):
        """A one-arm run is that arm of the two-arm run, and its diagnostics
        are the two-arm run's without the other arm's, with or without a
        snapshot file."""
        for snapshot_file in (False, True):
            runs = {}
            for arms in ("both", sh.ARM_ESTIMATOR, sh.ARM_HOTSTART):
                path = str(tmp_path / f"{arms}.fsnp") if snapshot_file else None
                runs[arms] = _run(arms=arms, snapshot_path=path, noise_sigma_m=5.0)
            both = runs["both"]
            for arm, other in (
                (sh.ARM_ESTIMATOR, sh.ARM_HOTSTART),
                (sh.ARM_HOTSTART, sh.ARM_ESTIMATOR),
            ):
                assert runs[arm].arms == {arm: both.arms[arm]}
                assert runs[arm].diagnostics == {
                    k: v for k, v in both.diagnostics.items() if not k.startswith(other)
                }

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


def test_wakes_from_one_session_one_equal_run_scenario():
    """Any number of sleeps can follow one session one: each wake equals
    the same arm of run_scenario at that sleep (estimates accepted at 0 and
    60 s, refused past the 1000 s budget at 2400 s), and so do its
    diagnostics with session one's. The session-one state the wakes start
    from is left as it was."""
    config = replace(BASE, noise_sigma_m=5.0)
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    clock, t_rel, locks = dict(vars(base.clock)), base.t_rel, list(base.locks)
    s1_diagnostics = dict(base.diagnostics)
    assert s1_diagnostics and all(k.startswith("s1_") for k in s1_diagnostics)
    arrays = [a.copy() for a in (base.last_known, base.labeled, base.assumed_delay_s)]
    for off in (0.0, 60.0, 2400.0):
        expected = sh.run_scenario(replace(config, off_duration_s=off))
        for arm in (sh.ARM_ESTIMATOR, sh.ARM_HOTSTART):
            report, diagnostics = engine.run_wake(base, snapshot, arm, off)
            assert report == expected.arms[arm]
            assert {**base.diagnostics, **diagnostics} == {
                k: v
                for k, v in expected.diagnostics.items()
                if k.startswith(("s1_", arm))
            }
        assert expected.arms[sh.ARM_ESTIMATOR].used_estimate == (off < 1000.0)
    assert base.diagnostics == s1_diagnostics
    assert (vars(base.clock), base.t_rel, base.locks) == (clock, t_rel, locks)
    for before, after in zip(arrays, (base.last_known, base.labeled, base.assumed_delay_s)):
        assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize(
    "rtc_ppm,seed,sleep_s", [(10.0, 1, 900.0), (0.5, 2, 2400.0), (30.0, 3, 60.0)]
)
def test_first_fix_does_not_depend_on_the_sample_period(rtc_ppm, seed, sleep_s):
    """The receiver clock is read at each instant, not summed over the
    sample instants before it, so each arm's first fix has the same bits
    for every sample period."""
    firsts = {}
    for period in (0.25, 0.5, 1.0, 2.0):
        config = sh.ScenarioConfig(
            rtc_ppm=rtc_ppm,
            seed=seed,
            off_duration_s=sleep_s,
            wake_run_s=8.0,
            sample_period_s=period,
        )
        for arm, report in sh.run_scenario(config).arms.items():
            firsts.setdefault(arm, set()).add(repr(report.fixes[0]))
    assert sorted(firsts) == [sh.ARM_ESTIMATOR, sh.ARM_HOTSTART]
    assert all(len(reprs) == 1 for reprs in firsts.values())


def test_no_wake_makes_two_fixes_at_one_sample():
    """500 hotstart wakes from one session one, sleeps 900 + 0.013 i s. Each
    fixes at its first fix and then once at each later sample, so no two
    fixes lie within 1 us and the count is n_samples - k + 1, k the sample
    at or before the first fix, however near a sample that fix lands."""
    config = sh.ScenarioConfig(noise_sigma_m=0.0, arms=sh.ARM_HOTSTART)
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    n_samples = round(config.wake_run_s / config.sample_period_s)
    period = round(config.sample_period_s * 1e9)
    bad = []
    for i in range(500):
        report, _ = engine.run_wake(base, snapshot, sh.ARM_HOTSTART, 900.0 + 0.013 * i)
        first = round(report.time_to_first_fix_s * 1e9)
        times = [f.t_since_wake_s for f in report.fixes]
        if len(times) != n_samples - first // period + 1 or min(np.diff(times)) < 1e-6:
            bad.append(i)
    assert bad == []


def test_a_label_due_at_a_fix_is_taken_before_it(monkeypatch):
    """With 20 ms samples every decode wait ends on a sample instant, so
    labels fall on the instants of fixes. Each fix reads the channels of
    every label at or before its instant, its own instant's included. The
    wake's 400-row table is solved fix by fix here, so that each fix is a
    _fix call; test_relaxed_fixes_* check that the relaxed solve reads the
    same channels."""
    monkeypatch.setattr(sh, "_RELAX_ROWS", sh._TRUTH_ROWS + 1)
    fixes, labels = {}, []
    label, fix = sh._Engine._label, sh._Engine._fix

    def recording_label(self, st, ns, row):
        labels.append(ns)
        return label(self, st, ns, row)

    def recording_fix(self, st, ns, sky, row):
        fixes[ns] = int(np.count_nonzero(sky.labeled[row]))
        return fix(self, st, ns, sky, row)

    config = replace(BASE, arms=sh.ARM_HOTSTART, sample_period_s=0.02, wake_run_s=8.0)
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    monkeypatch.setattr(sh._Engine, "_label", recording_label)
    monkeypatch.setattr(sh._Engine, "_fix", recording_fix)
    engine.run_wake(base, snapshot, sh.ARM_HOTSTART, 60.0)
    shared = [ns for ns in labels if ns in fixes]
    assert len(labels) == len(engine.sats) and len(shared) >= 5
    for ns, n_labeled in fixes.items():
        assert n_labeled == sum(other <= ns for other in labels)


def test_failed_wake_leaves_nothing_for_the_next():
    """Satellite 3's ephemeris runs out during a wake after a 900 s sleep.
    A 60 s sleep woken next from the same session one is unaffected."""
    t0 = sh.GpsTime(100, 86400.0).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, 8)
    sats = tuple(replace(e, validity=951.5) if e.sat_id == 3 else e for e in sats)
    config = sh.ScenarioConfig(satellites=sats, off_duration_s=60.0)
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    with pytest.raises(sh.ScenarioError, match="sat 3"):
        engine.run_wake(base, snapshot, sh.ARM_HOTSTART, 900.0)
    expected = sh.run_scenario(config).arms[sh.ARM_HOTSTART]
    assert engine.run_wake(base, snapshot, sh.ARM_HOTSTART, 60.0)[0] == expected


def test_advancing_into_the_past_is_a_bug():
    """Only a misordered session asks for an earlier instant, even by 1 ns:
    that raises a RuntimeError, which no scenario check accepts as a
    rejection, and leaves the state as it was. The same instant again is
    no step at all."""
    engine = sh._Engine(BASE)
    state = sh._State(100.0, engine.clock_at(100.0), locks=[])
    engine.advance_to(state, 10**9)
    before = (state.ns, state.t_rel, state.clock)
    for earlier in (10**9 - 1, 0):
        with pytest.raises(RuntimeError, match="before"):
            engine.advance_to(state, earlier)
    engine.advance_to(state, 10**9)
    assert (state.ns, state.t_rel, state.clock) == before
    assert state.t_rel == engine.true_time(state, 10**9) == 100.0 + 1.0 / engine._scale()


@pytest.mark.parametrize("start_tow_s", [5.999999, 6.0, 604799.9])
@pytest.mark.parametrize("rtc_ppm", [0.0, 1000.0])
@pytest.mark.parametrize("user_vel_ecef", [(0.0, 0.0, 0.0), (600.0, 0.0, -800.0)])
def test_session_one_order_holds_at_the_extremes(start_tow_s, rtc_ppm, user_vel_ecef):
    """Session one runs its stages as a sequence, so every label must come
    before every ephemeris completion and that before every fix; a
    misordered session would move time backwards and raise. It completes
    with 0 or 60 s per lock stage, at either RTC extreme, for a user at
    rest or at 1000 m/s, and across a subframe boundary and the week end."""
    for code_s, carrier_s, bit_s in itertools.product((0.0, 60.0), repeat=3):
        config = replace(
            BASE,
            start_tow_s=start_tow_s,
            rtc_ppm=rtc_ppm,
            user_vel_ecef=user_vel_ecef,
            code_s=code_s,
            carrier_s=carrier_s,
            bit_s=bit_s,
        )
        base, snapshot = sh._Engine(config).run_session_one()
        assert base.labeled.all() and base.fixes
        assert len(snapshot.ephemeris_ids) == len(base.locks)


def test_session_one_labels_in_time_order():
    """Started 10 ms into a bit, the channels straddle a bit boundary:
    their labels come at two times, out of row order. Session one labels
    them in time order, and the first labeled is the anchor."""
    base, _ = sh._Engine(replace(BASE, start_tow_s=6.01)).run_session_one()
    labels = [lock.history[-1].t_rx_s for lock in base.locks]
    assert len(set(labels)) == 2 and labels != sorted(labels)
    assert labels[base.anchor] == min(labels)


def test_session_one_tabulates_its_fixes_once(monkeypatch):
    """Session one knows all of its 1 Hz fix times before the first, so it
    makes one truth table for them and no other: its decode waits read the
    light-time solve alone."""
    tables = []
    truth = sh._Engine._truth

    def counting_truth(self, times):
        tables.append(len(times))
        return truth(self, times)

    monkeypatch.setattr(sh._Engine, "_truth", counting_truth)
    base, _ = sh._Engine(replace(BASE, session1_extra_s=5.0)).run_session_one()
    assert len(base.fixes) == 5
    assert tables == [5]


@pytest.mark.parametrize(
    "overrides",
    [{}, dict(rtc_ppm=0.0), dict(rtc_ppm=1000.0, start_tow_s=604795.0), dict(start_tow_s=6.01)],
)
def test_session_one_fixes_fall_on_whole_receiver_seconds(monkeypatch, overrides):
    """Session one's fix records hold their receiver time since power-on:
    consecutive whole seconds, the first the next one after the last
    ephemeris is in."""
    done = {}
    collect = sh._Engine._collect_ephemeris

    def recording_collect(self, eph, s_rel):
        s_done, decoded = collect(self, eph, s_rel)
        done[eph.sat_id] = s_done
        return s_done, decoded

    monkeypatch.setattr(sh._Engine, "_collect_ephemeris", recording_collect)
    engine = sh._Engine(replace(BASE, session1_extra_s=5.0, **overrides))
    base, _ = engine.run_session_one()
    times = [f.t_since_wake_s for f in base.fixes]
    t_done = engine.receive_times(np.array([done[e.sat_id] for e in engine.sats]))
    r_done = engine.clock_at(t_done.max().item()).elapsed_rx_s
    first = math.floor(r_done) + 1
    assert len(times) == 5 and first - 1 <= r_done < first
    assert times == [first + i for i in range(5)]


@pytest.mark.parametrize("extra_s,n_fixes", [(0.0, 1), (1e-9, 1), (2.5, 3), (3.0, 3), (3.2, 4)])
def test_session_one_fixes_until_power_off(extra_s, n_fixes):
    """Session one fixes at the whole receiver seconds before its power-off
    (one at least), which comes session1_extra_s after the first fix."""
    base, _ = sh._Engine(replace(BASE, session1_extra_s=extra_s)).run_session_one()
    first = base.fixes[0].t_since_wake_s
    assert [f.t_since_wake_s for f in base.fixes] == [first + j for j in range(n_fixes)]
    assert base.ns == round(first * 1e9) + round(extra_s * 1e9)


@pytest.mark.parametrize(
    "validity_s,message",
    [
        (3.0, "t=43.000 s: sat 3: +43 s"),
        (20.0, "t=43.000 s: sat 3: +43 s"),
        (44.0, "t=45.000 s: sat 3: +45 s"),
    ],
)
def test_session_one_stale_ephemeris_names_its_time(validity_s, message):
    """Satellite 3's ephemeris runs out at its label, in the subframes it
    collects from there, or at the first fix. Only the receiver's decoded
    copy goes stale, so each is a ScenarioError at the first fix that
    reads it stale, at the session time it is met."""
    t0 = sh.GpsTime(100, 86400.0).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, 8)
    sats = tuple(replace(e, validity=validity_s) if e.sat_id == 3 else e for e in sats)
    engine = sh._Engine(replace(BASE, satellites=sats))
    with pytest.raises(
        sh.ScenarioError, match=f"^stale ephemeris while simulating {re.escape(message)} "
    ) as exc:
        engine.run_session_one()
    assert isinstance(exc.value.__cause__, cst.StaleEphemerisError)


# --- measurement noise ------------------------------------------------------------
# Each noise cell is a counter-based draw keyed by (seed, epoch key, sat_id):
# ref_splitmix_normal is the same draw in Python integers and math.


_MASK64 = 2**64 - 1


def _ref_mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def ref_splitmix_normal(seed: int, key: int, sat_id: int) -> float:
    """One cell's standard normal: the seed's two SeedSequence words key
    the epoch key's float64 bits and the sat_id, the cell's hash seeds a
    SplitMix64 stream, and its first two outputs are the uniforms."""
    key_word, sat_word = map(int, np.random.SeedSequence(seed).generate_state(2, np.uint64))
    key_bits = struct.unpack("<Q", struct.pack("<d", float(key)))[0]
    cell = _ref_mix64(_ref_mix64(key_bits ^ key_word) ^ _ref_mix64(sat_id ^ sat_word))
    gamma = 0x9E3779B97F4A7C15
    u1 = ((_ref_mix64((cell + gamma) & _MASK64) >> 11) + 1) * 2.0**-53
    u2 = (_ref_mix64((cell + 2 * gamma) & _MASK64) >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _one_cell(engine, key: int, sat_ids) -> np.ndarray:
    """The noise of satellites sat_ids at one epoch key, drawn alone."""
    z = sh._standard_normals(engine._noise_words, np.array([float(key)]), np.array(sat_ids))
    return engine.config.noise_sigma_m * z[0]


def _clock_key(engine, t_rel: float) -> int:
    return int(round(engine.clock_at(t_rel).elapsed_rx_s * 1000.0))


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**64, 2**100 + 7])
def test_noise_equals_the_integer_reference(seed):
    """The array draw equals the reference cell for cell, to float noise,
    and its finaliser equals the integer one exactly."""
    words = np.random.default_rng(seed % 2**32).integers(0, 2**64, 1000, np.uint64, endpoint=False)
    assert sh._mix64(words).tolist() == [_ref_mix64(w) for w in words.tolist()]
    engine = sh._Engine(replace(BASE, noise_sigma_m=1.0, n_sats=12, seed=seed))
    keys = [0, 1, 999, 900_000, 2**40 + 3, 10**300]
    z = sh._standard_normals(
        engine._noise_words, np.array(keys, float), engine.orbits.sat_id
    )
    for i, key in enumerate(keys):
        for j, sat_id in enumerate(engine.orbits.sat_id.tolist()):
            assert z[i, j] == pytest.approx(ref_splitmix_normal(seed, key, sat_id), rel=1e-12)


@given(
    rtc_ppm=st.one_of(st.sampled_from([0.0, 10.0, 1000.0]), st.floats(0.0, 1000.0)),
    times=st.lists(
        st.one_of(
            st.floats(0.0, 20000.0),
            st.floats(0.0, 1e300),
            # At 0 ppm, elapsed milliseconds at or an ulp from .5: ties.
            st.integers(0, 10**7).map(lambda k: (k + 0.5) / 1000.0),
        ),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=100, deadline=None)
def test_noise_keys_equal_the_clock_rule(rtc_ppm, times):
    """Each row's key is int(round(clock_at(t).elapsed_rx_s * 1000)), for
    every finite time the validator lets a run reach."""
    engine = sh._Engine(replace(BASE, rtc_ppm=rtc_ppm))
    keys = engine.epoch_keys(np.array(times))
    for key, t in zip(keys.tolist(), times):
        assert key == _clock_key(engine, t)


def test_noise_keys_past_float_range_are_inf_without_a_warning():
    engine = sh._Engine(replace(BASE, rtc_ppm=1000.0, noise_sigma_m=5.0))
    keys = engine.epoch_keys(np.array([1e300, 1.7e308]))
    assert keys[0] == _clock_key(engine, 1e300) and keys[1] == math.inf
    z = sh._standard_normals(engine._noise_words, keys, engine.orbits.sat_id)
    assert np.isfinite(z).all()


_SLEEP_BOUND = "off_duration_s must not exceed 1e+06 s"


@pytest.mark.parametrize(
    "overrides,message",
    [
        # A sleep that ended in the stale-ephemeris error at a key past
        # float range, and one whose RTC count overflowed to inf (an
        # OverflowError from rtc_count).
        pytest.param(dict(off_duration_s=1e300), _SLEEP_BOUND, id="sleep_1e300"),
        pytest.param(
            dict(off_duration_s=1.87e305, arms="hotstart"), _SLEEP_BOUND, id="sleep_1.87e305"
        ),
        pytest.param(dict(off_duration_s=1e305), _SLEEP_BOUND, id="sleep_1e305"),
        # A wake whose orbits came out NaN, with numpy RuntimeWarnings.
        pytest.param(
            dict(wake_run_s=1.5e308, sample_period_s=1e308),
            "wake_run_s must not exceed 1e+06 s",
            id="wake_1.5e308",
        ),
        # A sample period that rounds to a step of 0 ns.
        pytest.param(
            dict(code_s=0.0, carrier_s=0.0, bit_s=0.0, sample_period_s=1e-10, wake_run_s=1e-6),
            "sample_period_s must be at least 1e-06 s",
            id="period_1e-10",
        ),
    ],
)
def test_times_past_the_instants_range_are_rejected(overrides, message):
    """Session times stay below ~2.1e6 s, where a float still resolves the
    1 ns of an instant, and a sample period spans 1000 instants at least:
    the validator rejects anything else with a ScenarioError naming the
    field, and nothing warns."""
    config = sh.ScenarioConfig(noise_sigma_m=5.0, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sh.ScenarioError, match=f"^{re.escape(message)}$"):
            sh.run_scenario(config)


def test_the_instants_range_ends_at_its_bounds():
    """1e6 s of sleep or wake and a 1 us sample period pass; one ulp past
    either is rejected."""
    for field, value, step, others in (
        ("off_duration_s", 1e6, math.inf, {}),
        ("wake_run_s", 1e6, math.inf, dict(sample_period_s=100.0)),
        ("sample_period_s", 1e-6, 0.0, dict(wake_run_s=0.01)),
    ):
        replace(BASE, **others, **{field: value}).validate()
        config = replace(BASE, **others, **{field: np.nextafter(value, step)})
        with pytest.raises(sh.ScenarioError, match=f"^{field} must"):
            config.validate()


@pytest.mark.parametrize("rows", [sh._TRUTH_ROWS, 7])
def test_noise_cell_depends_on_seed_key_and_satellite_only(monkeypatch, rows):
    """Every cell of every truth table, in session one and both wake arms,
    however _TRUTH_ROWS splits the tables, equals the cell drawn alone
    from the key of the clock at its row. The two arms share keys at their
    shared sample instants, and so read the same noise there."""
    tables = []
    truth = sh._Engine._truth

    def recording_truth(self, times):
        table = truth(self, times)
        tables.append((self, list(times), table.noise))
        return table

    monkeypatch.setattr(sh._Engine, "_truth", recording_truth)
    monkeypatch.setattr(sh, "_TRUTH_ROWS", rows)
    sh.run_scenario(replace(BASE, noise_sigma_m=5.0, wake_run_s=30.0, seed=9))
    keys = []
    for engine, times, noise in tables:
        for t, values in zip(times, noise):
            keys.append(_clock_key(engine, t))
            assert values.tobytes() == _one_cell(engine, keys[-1], engine.orbits.sat_id).tobytes()
    assert len(tables) >= 3 and len(set(keys)) < len(keys)


def test_noise_of_a_satellite_does_not_depend_on_the_others():
    """Dropping a satellite from the constellation leaves every other
    satellite's noise as it was, cell for cell."""
    t0 = sh.GpsTime(BASE.start_week, BASE.start_tow_s).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, 10)
    config = replace(BASE, noise_sigma_m=5.0, seed=21, satellites=tuple(sats))
    times = [960.0 + k for k in range(50)]
    full = sh._Engine(config)._truth(times).noise
    fewer = sh._Engine(replace(config, satellites=tuple(sats[:4] + sats[5:])))._truth(times).noise
    assert fewer.tobytes() == np.delete(full, 4, axis=1).tobytes()


def test_a_fix_reads_noise_by_channel(monkeypatch):
    """A fix adds each selected channel's own cell to its pseudorange, so
    a channel left out of the selection leaves the others' unchanged."""
    engine = sh._Engine(replace(BASE, noise_sigma_m=5.0, seed=4))
    base, _ = engine.run_session_one()
    ns = base.ns + 10**9
    truth = engine._truth([engine.true_time(base, ns)])
    quiet = replace(truth, noise=np.zeros_like(truth.noise))
    solve = pvt.solve
    rhos = []

    def recording_solve(rho, sat_pos, guess):
        rhos.append(rho)
        return solve(rho, sat_pos, guess)

    monkeypatch.setattr(pvt, "solve", recording_solve)

    def fix_rho(table, dropped):
        st = copy.deepcopy(base)
        st.labeled[dropped] = False
        engine.advance_to(st, ns)
        engine._fix(st, ns, engine._sky(st, table, [ns], []), 0)
        return rhos[-1]

    every = np.arange(len(engine.sats))
    kept = np.delete(every, 2)
    noisy, noisy_kept = fix_rho(truth, []), fix_rho(truth, [2])
    assert noisy_kept.tobytes() == noisy[kept].tobytes()
    added = noisy - fix_rho(quiet, [])
    assert added == pytest.approx(truth.noise[0], rel=0, abs=1e-6)


@pytest.mark.parametrize("spacing_ms", [1, 1000])
def test_noise_is_standard_normal_and_uncorrelated(spacing_ms):
    """100,000 draws over 12,500 keys (1 ms apart, or 1 s as 1 Hz fixes
    are) and 8 satellites. For the mean, the standard deviation, the
    Kolmogorov-Smirnov distance to the normal CDF and the correlations
    the tolerances are about 4.5 standard errors (1 / sqrt(N) for the mean
    and each correlation, 1 / sqrt(2 N) for the standard deviation), and
    1.95 / sqrt(N) for the KS distance (a 0.1% level)."""
    engine = sh._Engine(replace(BASE, noise_sigma_m=1.0, seed=1))
    keys = 900_000.0 + spacing_ms * np.arange(12_500.0)
    z = sh._standard_normals(engine._noise_words, keys, engine.orbits.sat_id)
    n = z.size
    assert n >= 100_000
    assert abs(z.mean()) < 4.5 / math.sqrt(n)
    assert abs(z.std() - 1.0) < 4.5 / math.sqrt(2 * n)
    ordered = np.sort(z.ravel())
    cdf = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in ordered.tolist()])
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.95 / math.sqrt(n)
    # Neighbouring keys of each satellite, and neighbouring satellites.
    for a, b in ((z[:-1], z[1:]), (z[:, :-1], z[:, 1:])):
        assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 4.5 / math.sqrt(a.size)


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64, 2**64 + 1, 2**100])
def test_seeds_past_64_bits_draw_their_own_noise(seed):
    """A seed of 2**64 or more keys the noise through SeedSequence, runs
    without a warning, and draws noise no other of these seeds draws."""
    config = replace(BASE, noise_sigma_m=5.0, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = sh.run_scenario(config)
    assert all(math.isfinite(a.rms_2d_m) for a in report.arms.values())
    times = [960.0 + k for k in range(20)]
    noise = sh._Engine(config)._truth(times).noise.tobytes()
    for other in (2**64 - 1, 2**64, 2**64 + 1, 2**100, seed % 2**64):
        if other != seed:
            assert sh._Engine(replace(config, seed=other))._truth(times).noise.tobytes() != noise


def test_zero_noise_is_exact_zeros_without_hashing(monkeypatch):
    def no_hashing(*args):
        raise AssertionError("hashed with noise_sigma_m = 0")

    monkeypatch.setattr(sh, "_mix64", no_hashing)
    monkeypatch.setattr(sh, "_standard_normals", no_hashing)
    engine = sh._Engine(replace(BASE, noise_sigma_m=0.0))
    noise = engine._truth([960.0 + k for k in range(20)]).noise
    assert noise.tobytes() == np.zeros((20, len(engine.sats))).tobytes()
    assert sh.run_scenario(replace(BASE, noise_sigma_m=0.0, wake_run_s=30.0)).arms


def _engine_state(engine) -> dict:
    """Each attribute's identity, and the size or bytes of what it holds."""
    state = {}
    for name, value in vars(engine).items():
        held = None
        if isinstance(value, (dict, list, set, tuple)):
            held = len(value)
        elif isinstance(value, np.ndarray):
            held = value.tobytes()
        state[name] = (id(value), held)
    return state


def test_the_engine_keeps_no_per_epoch_state():
    """Two 120 s wakes leave the engine as session one left it: the same
    attributes, the same objects, holding as much as before."""
    engine = sh._Engine(replace(BASE, noise_sigma_m=5.0, wake_run_s=120.0))
    base, snapshot = engine.run_session_one()
    before = _engine_state(engine)
    for arm in (sh.ARM_ESTIMATOR, sh.ARM_HOTSTART):
        report, _ = engine.run_wake(base, snapshot, arm, 60.0)
        assert len(report.fixes) >= 119
    assert _engine_state(engine) == before


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
        arm, _ = engine.run_wake(base, snapshot, sh.ARM_ESTIMATOR, config.off_duration_s)
        assert not arm.used_estimate
        assert arm.fixes


def test_no_fix_inside_wake_run_is_an_error():
    # The first fix lands at 1.2 s, after the last sample of a 1 s wake.
    with pytest.raises(sh.ScenarioError, match="no fix inside wake_run_s"):
        sh.run_scenario(sh.ScenarioConfig(wake_run_s=1.0))


def test_first_fix_after_the_last_sample_is_not_solved(monkeypatch):
    """The wake that ends before its first fix fails without solving it:
    every fix solved is session one's, the first session to fix."""
    fixed = []
    fix = sh._Engine._fix

    def counting_fix(self, state, ns, sky, row):
        fixed.append(state)
        return fix(self, state, ns, sky, row)

    monkeypatch.setattr(sh._Engine, "_fix", counting_fix)
    with pytest.raises(sh.ScenarioError, match="no fix inside wake_run_s"):
        sh.run_scenario(sh.ScenarioConfig(wake_run_s=1.0))
    assert fixed and all(state is fixed[0] for state in fixed)


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
    errors; every later one falls on a fix and reads that fix's. Each
    fix's errors, session one's too, are evaluated once, as one row of
    its session's call."""
    calls = {"rows": 0}
    enu_errors = sh.pvt.enu_errors

    def counting_enu_errors(position, truth):
        calls["rows"] += len(np.atleast_2d(truth))
        return enu_errors(position, truth)

    config = sh.ScenarioConfig(wake_run_s=30.0)
    session_one_fixes = len(sh._Engine(config).run_session_one()[0].fixes)
    monkeypatch.setattr(sh.pvt, "enu_errors", counting_enu_errors)
    report = sh.run_scenario(config)
    before_first_fix = [
        s for arm in report.arms.values() for s in arm.samples if not s.fix_valid
    ]
    assert before_first_fix
    wake_fixes = sum(len(arm.fixes) for arm in report.arms.values())
    assert calls["rows"] == session_one_fixes + wake_fixes + len(before_first_fix)
    for arm in report.arms.values():
        # The first fix lands between samples; each later one on a sample.
        valid = [s for s in arm.samples if s.fix_valid]
        assert len(valid) == len(arm.fixes) - 1
        for s, f in zip(valid, arm.fixes[1:]):
            assert s.t_s == pytest.approx(f.t_since_wake_s, abs=1e-9)
            assert (s.err_east_m, s.err_north_m, s.err_2d_m) == (
                f.err_east_m, f.err_north_m, f.err_2d_m
            )


def test_fixes_wait_for_their_errors_one_table_at_most(monkeypatch):
    """A session makes the records of one truth table's fixes before it
    makes the next table, so the solved fixes that wait for their errors
    never outnumber one table's rows, however long the wake."""
    waiting = []
    fix = sh._Engine._fix

    def recording_fix(self, state, ns, sky, row):
        offset = fix(self, state, ns, sky, row)
        waiting.append(len(state.solved))
        return offset

    monkeypatch.setattr(sh._Engine, "_fix", recording_fix)
    monkeypatch.setattr(sh, "_TRUTH_ROWS", 4)
    sh.run_scenario(sh.ScenarioConfig(wake_run_s=30.0))
    assert len(waiting) > 3 * 4 and max(waiting) == 4


@pytest.mark.parametrize("sleep_s", [14500.0, 20000.0])
def test_sleep_past_ephemeris_validity_is_a_scenario_error(sleep_s):
    """The true orbits never go stale, so the geometry check at the wake,
    46 s (session one) plus the sleep after the start, finds the default
    satellites set long before the ephemeris runs out."""
    t_wake = sleep_s + 46.0
    with pytest.raises(sh.ScenarioError, match=f"^only 0 satellites visible at t={t_wake:.0f} s$"):
        sh.run_scenario(sh.ScenarioConfig(off_duration_s=sleep_s))


def test_satellite_below_the_mask_may_expire():
    """Satellite 3 (30 deg at the start) stays below a 31 deg mask, and its
    ephemeris runs out 100 s after the start. The run goes on: no fix reads
    it, and the estimate gate, which checks every decoded ephemeris, falls
    back to decoding."""
    t0 = sh.GpsTime(100, 86400.0).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, 8)
    sats = tuple(replace(e, validity=100.0) if e.sat_id == 3 else e for e in sats)
    for sleep_s in (300.0, 900.0):
        config = sh.ScenarioConfig(satellites=sats, min_elevation_deg=31.0, off_duration_s=sleep_s)
        for report in sh.run_scenario(config).arms.values():
            assert not report.used_estimate
            assert math.isfinite(report.rms_2d_m) and report.fixes


def test_sleep_past_every_validity_fails_at_the_first_wake_fix():
    """With satellites still in view, a sleep past every ephemeris ends in
    the receiver's stale-ephemeris error at the wake's first fix."""
    t0 = sh.GpsTime(100, 86400.0).total_seconds()
    sats = cst.default_constellation(np.array(BASE.user_pos_ecef), t0, 8)
    sats = tuple(replace(e, validity=1000.0) for e in sats)
    with pytest.raises(
        sh.ScenarioError, match=r"^stale ephemeris while simulating t=1248\.680 s: sat 1: "
    ) as exc:
        sh.run_scenario(sh.ScenarioConfig(satellites=sats, off_duration_s=1200.0))
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

    def counting_fix(self, state, ns, sky, row):
        fixes.append(ns / 1e9)
        return fix(self, state, ns, sky, row)

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
    """Each satellite's cell of the light-time solve, for one receive time
    and for one time per satellite, equals the one-satellite reference.
    Past the validity window too: the true orbit has none, so there the
    reference runs on the same orbit with a window that covers t_rx."""
    engine = sh._Engine(replace(BASE, n_sats=n_sats, user_vel_ecef=vel))
    per_row = t_rx + 0.37 * np.arange(n_sats)
    common, each = engine.transmit_times(t_rx), engine.transmit_times(per_row)
    for row, eph in enumerate(engine.sats):
        wide = replace(eph, validity=WEEK_S)
        expected = ref_tx_rel(engine, wide, t_rx)
        assert common[row].tobytes() == np.float64(expected).tobytes()
        expected = ref_tx_rel(engine, wide, float(per_row[row]))
        assert each[row].tobytes() == np.float64(expected).tobytes()


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
    """Every cell equals the per-fix computation bit for bit, those past a
    validity window too: the truth has none, so the reference runs on the
    same orbits with windows that cover every time."""
    sats = _varied_validity_sats(n_sats)
    cfg = replace(BASE, satellites=sats, user_vel_ecef=vel)
    engine = sh._Engine(cfg)
    wide = sh._Engine(replace(cfg, satellites=tuple(replace(e, validity=WEEK_S) for e in sats)))
    times = [start + k * period for k in range(m)]
    truth = engine._truth(times)
    every = np.arange(n_sats)
    for row, t in enumerate(times):
        assert truth.user[row].tobytes() == engine.user_pos(t).tobytes()
        elevation, tx = ref_fix_truth(wide, every, t)
        assert truth.elevation[row].tobytes() == elevation.tobytes()
        assert truth.tx[row].tobytes() == tx.tobytes()


@given(
    n_sats=st.integers(4, 16),
    vel=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
    start=st.floats(880.0, 905.0),
    period=st.floats(0.01, 3.0),
    m=st.integers(1, 12),
    shift_bits=st.integers(-60, 60),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_sky_equals_per_fix_believed_positions(n_sats, vel, start, period, m, shift_bits, seed):
    """The believed-transmit positions tabulated once per truth table equal
    the per-fix rx_orbits[idx].positions cell for cell, and where a cell
    is stale, the first stale cell gives _fix the same StaleEphemerisError,
    text included.
    The noise of the selected channels equals their cells drawn alone,
    keyed by the clock at the row's time."""
    cfg = replace(
        BASE,
        satellites=_varied_validity_sats(n_sats),
        user_vel_ecef=vel,
        noise_sigma_m=5.0,
        seed=seed,
    )
    engine = sh._Engine(cfg)
    state = sh._State(
        t_start=0.0,
        clock=engine.clock_at(0.0),
        locks=[rcv.LockState()] * n_sats,
        rx_orbits=engine.orbits,
        label_shift_s=shift_bits * sh.BIT_S,
    )
    fix_times = [start + k * period for k in range(m)]
    truth = engine._truth(fix_times)
    # With no labels to place, the instants only count the rows.
    sky = engine._sky(state, truth, list(range(m)), [])
    rng = np.random.default_rng(seed)
    for row, t in enumerate(fix_times):
        idx = np.flatnonzero(rng.random(n_sats) < 0.7)
        noise = _one_cell(engine, _clock_key(engine, t), engine.orbits.sat_id[idx])
        assert sky.truth.noise[row, idx].tobytes() == noise.tobytes()
        times = truth.tx[row, idx] + state.label_shift_s
        try:
            expected = state.rx_orbits[idx].positions(engine.t0_abs + times)
        except cst.StaleEphemerisError as exc:
            bad = idx[sky.believed_stale[row, idx]]
            t_abs = engine.t0_abs + sky.believed_tx[row, bad[0]]
            assert str(state.rx_orbits.stale_error(t_abs, bad[0])) == str(exc)
            continue
        assert not sky.believed_stale[row, idx].any()
        assert sky.believed_tx[row, idx].tobytes() == times.tobytes()
        assert sky.believed_pos[row, idx].tobytes() == expected.tobytes()


# --- session one's ephemeris timeline against the boundary chain ------------------
# ref_ephemeris_timeline is session one's ephemeris collection as it was: from
# the label, one event at every subframe boundary, each found by Newton steps
# on ref_tx_rel, until subframes 1-3 are in; every subframe heard is decoded.


def ref_next_boundary_t(engine, eph, t_rel, s=None):
    """True time at which the satellite's next subframe boundary arrives; s
    is its transmit time at t_rel, if known. The bias keeps a call made
    exactly at a boundary from finding that same boundary again."""
    if s is None:
        s = ref_tx_rel(engine, eph, t_rel)
    k = int((engine.config.start_tow_s + s + 1e-6) // SUBFRAME_S) + 1
    target = k * SUBFRAME_S - engine.config.start_tow_s
    t = t_rel + (target - s)
    for _ in range(2):
        t += target - ref_tx_rel(engine, eph, t)
    return t


def ref_ephemeris_timeline(engine, eph, t_label):
    """Boundary event times after a label at t_label, and the ephemeris
    subframes delivered as (sat_id, subframe_id, tow, week_number)."""
    cfg = engine.config
    packed = cst.pack_ephemeris(eph)
    times, delivered = [], {}
    t = ref_next_boundary_t(engine, eph, ref_next_boundary_t(engine, eph, t_label))
    while True:
        s = ref_tx_rel(engine, eph, t)
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

    n = len(engine.sats)
    for row, eph in enumerate(engine.sats):
        t_rx = t_label
        if boundary_offset_s is not None:
            t_rx = ref_next_boundary_t(engine, eph, t_label) + boundary_offset_s
        times, expected = ref_ephemeris_timeline(engine, eph, t_rx)

        decoded.clear()
        with mock.patch.object(nav, "decode_subframe", recording_decode):
            s_done, _ = engine._collect_ephemeris(eph, float(engine.transmit_times(t_rx)[row]))
        t = engine.receive_times(np.full(n, s_done))[row]
        assert abs(t - times[-1]) <= 1e-9
        assert decoded == expected


# --- the wake's sequence against its event queue -----------------------------------
# ref_run_wake is the wake as it ran before it became a plain sequence: one
# heap of lock, label, fix and sample events ordered by their integer
# instants, ties broken by kind (lock, label, fix, sample) and then by the
# order they were queued. Each fix draws its own noise, keyed by the clock it
# reads.

_REF_PRIORITY = {"lock": 0, "label": 1, "fix": 2, "sample": 3}


def ref_label(engine, state, ns, row):
    """A label run as it comes: advance the session to its instant, step
    the channel's lock at the clock there and mark it labeled; the first
    labeled becomes the clock-offset anchor. Returns how many are labeled."""
    engine.advance_to(state, ns)
    state.locks[row] = state.locks[row].step(rcv.LockEvent("preamble", state.clock.elapsed_rx_s))
    state.labeled[row] = True
    n = int(np.count_nonzero(state.labeled))
    if n == 1:
        state.anchor = row
    return n


def ref_run_wake(engine, base, snapshot, arm, off_duration_s):
    """_Engine.run_wake as an event loop: (ArmReport, diagnostics)."""
    cfg = engine.config
    t_wake = base.t_rel + off_duration_s
    state = sh._State(
        t_start=t_wake,
        clock=engine.clock_at(t_wake),
        locks=[rcv.LockState()] * len(engine.sats),
        anchor=base.anchor,
        rx_orbits=base.rx_orbits,
        last_known=base.last_known,
    )
    period = round(cfg.sample_period_s * 1e9)
    n_samples = int(round(cfg.wake_run_s / cfg.sample_period_s))
    grid = [k * period for k in range(n_samples + 1)]
    queue = []
    seq = itertools.count()

    def push(ns, kind, data=None):
        heapq.heappush(queue, (ns, _REF_PRIORITY[kind], next(seq), kind, data))

    def truth(instants):
        return instants, engine._truth(engine.true_time(state, np.array(instants)))

    # Each lock stage at the instant its rounded latency adds up to.
    ns = 0
    for stage, latency in (("code", cfg.code_s), ("carrier", cfg.carrier_s), ("bit", cfg.bit_s)):
        ns += round(latency * 1e9)
        push(ns, "lock", stage)
    for k, ns in enumerate(grid):
        push(ns, "sample", k)

    used_estimate = False
    label_shift_bits = 0
    hotstart_delay = None
    samples = []
    ttff = fix_ns = None
    with sh._simulating(state):
        while queue:
            ns, _, _, kind, data = heapq.heappop(queue)
            engine.advance_to(state, ns)
            if kind == "lock":
                engine._step_locks(state, data, ns)
                if data != "bit":
                    continue
                if arm == sh.ARM_ESTIMATOR:
                    used_estimate, label_shift_bits = engine._try_estimate(state, snapshot)
                if used_estimate:
                    push(ns + round(cfg.estimator_epsilon_s * 1e9), "fix")
                    continue
                labels = engine._decoded_labels(state)
                for ns_label, row, _ in labels:
                    push(ns_label, "label", row)
                hotstart_delay = sorted(wait for _, _, wait in labels)[3]
            elif kind == "label":
                if ref_label(engine, state, ns, data) == 4:
                    push(ns, "fix")
            elif kind == "fix":
                k = data
                # The wake's fixes count up the rows of each truth table.
                row = len(state.fixes) % sh._TRUTH_ROWS
                if not state.fixes:
                    if ns > grid[-1]:
                        continue
                    ttff = ns / 1e9
                    k = ns // period
                    block, table = truth([ns, *grid[k + 1 : k + sh._TRUTH_ROWS]])
                elif row == 0:
                    block, table = truth(grid[k : k + sh._TRUTH_ROWS])
                noise = table.noise.copy()
                key = int(round(state.clock.elapsed_rx_s * 1000.0))
                noise[row] = _one_cell(engine, key, engine.orbits.sat_id)
                # The fix reads the channels labeled so far and their anchor.
                sky = engine._sky(state, replace(table, noise=noise), block, [])
                engine._fix(state, ns, sky, row)
                state.record_fixes()
                fix_ns = ns
                if k + 1 <= n_samples:
                    push(grid[k + 1], "fix", k + 1)
            else:
                if fix_ns == ns:
                    e, n = state.fixes[-1].err_east_m, state.fixes[-1].err_north_m
                else:
                    e, n, _ = pvt.enu_errors(state.last_known, engine.user_pos(state.t_rel))
                t_s = data * cfg.sample_period_s
                samples.append(sh.Sample(t_s, bool(state.fixes), e, n, math.hypot(e, n)))
    valid_errors = [s.err_2d_m for s in samples if s.fix_valid]
    if not valid_errors:
        raise sh.ScenarioError("wake session produced no fix inside wake_run_s")
    report = sh.ArmReport(
        arm=arm,
        time_to_first_fix_s=ttff,
        samples=samples,
        fixes=state.fixes,
        rms_2d_m=pvt.rms_2d(valid_errors),
        power_ratio=sh.power_savings_ratio(off_duration_s, ttff + cfg.sample_period_s),
        used_estimate=used_estimate,
        hotstart_delay_s=hotstart_delay,
    )
    state.diagnostics[f"{arm}_label_shift_bits"] = float(label_shift_bits)
    state.diagnostics[f"{arm}_used_estimate"] = float(used_estimate)
    state.diagnostics[f"{arm}_rco_refined_err_s"] = engine.rco_error_s(state)
    return report, state.diagnostics


def _wake_outcome(run, engine, base, snapshot, arm, off):
    try:
        return run(engine, base, snapshot, arm, off)
    except sh.ScenarioError as exc:
        return str(exc)


_latencies = st.one_of(
    st.sampled_from([0.0, 0.4, 1.0, 2.0]), st.floats(0.0, 3.0), st.floats(0.0, 60.0)
)


# The default scenario in the test's parameters. The examples move it so
# that two labels arrive after the last sample, and so that, with no lock
# latency, the estimator's first fix lands exactly on sample 0, at the
# wake's start; after a 23.999765 s sleep that start lies just below t=64 s,
# where a time summed in floats could round below it.
_DEFAULT_WAKE = dict(
    code_s=0.5, carrier_s=0.3, bit_s=0.4, epsilon=0.0, period=1.0, n_periods=10, off=900.0,
    ppm=10.0, start_tow_s=86400.0, vel=(0.0, 0.0, 0.0), n_sats=8, seed=1,
)


@given(
    code_s=_latencies,
    carrier_s=_latencies,
    bit_s=_latencies,
    epsilon=_latencies,
    period=st.one_of(st.sampled_from([0.25, 1.0, 2.67, 60.0]), st.floats(0.05, 120.0)),
    n_periods=st.one_of(st.integers(1, 30), st.floats(1.0, 30.0)),
    off=st.one_of(st.sampled_from([0.0, 60.0, 900.0]), st.floats(0.0, 3000.0)),
    ppm=st.one_of(st.sampled_from([0.0, 0.5, 10.0]), st.floats(0.0, 50.0)),
    start_tow_s=st.one_of(
        st.sampled_from([86400.0, 86400.015]),
        st.floats(0.0, WEEK_S - 1e-3),
        st.floats(WEEK_S - 400.0, WEEK_S - 1e-3),
    ),
    vel=st.sampled_from([(0.0, 0.0, 0.0), (12.0, -3.0, 1.5), (600.0, -800.0, 0.0)]),
    n_sats=st.integers(4, 12),
    seed=st.integers(0, 20),
)
@example(**{**_DEFAULT_WAKE, "period": 2.67, "n_periods": 1, "start_tow_s": 86400.015})
@example(**{**_DEFAULT_WAKE, "code_s": 0.0, "carrier_s": 0.0, "bit_s": 0.0})
@example(**{**_DEFAULT_WAKE, "code_s": 0.0, "carrier_s": 0.0, "bit_s": 0.0, "off": 23.999765})
@settings(max_examples=60, deadline=None)
def test_wake_sequence_equals_event_queue(
    code_s, carrier_s, bit_s, epsilon, period, n_periods, off, ppm, start_tow_s, vel, n_sats, seed
):
    """Both arms of run_wake give the event queue's ArmReport and
    diagnostics, or its ScenarioError text, across latencies and epsilon
    of 0-60 s, sample periods, wake lengths, ppm, sleeps, start times up
    to the week end, speeds and satellite counts. The event queue solves
    fix by fix: run_wake made to do the same gives its outcome bit for
    bit, and run_wake as it is, which relaxes tables of _RELAX_ROWS rows
    or more, gives the same error text or reports within RELAXED_BOUND_M
    (_assert_wakes_within_bound)."""
    config = replace(
        sh.ScenarioConfig(),
        code_s=code_s,
        carrier_s=carrier_s,
        bit_s=bit_s,
        estimator_epsilon_s=epsilon,
        sample_period_s=period,
        wake_run_s=period * n_periods,
        off_duration_s=off,
        rtc_ppm=ppm,
        start_tow_s=start_tow_s,
        user_vel_ecef=vel,
        n_sats=n_sats,
        seed=seed,
    )
    try:
        engine = sh._Engine(config)
        base, snapshot = engine.run_session_one()
        engine._check_geometry(base.t_rel + off)
    except sh.ScenarioError:
        return
    for arm in (sh.ARM_ESTIMATOR, sh.ARM_HOTSTART):
        expected = _wake_outcome(ref_run_wake, engine, base, snapshot, arm, off)
        with mock.patch.object(sh, "_RELAX_ROWS", sh._TRUTH_ROWS + 1):
            got = _wake_outcome(sh._Engine.run_wake, engine, base, snapshot, arm, off)
        assert got == expected
        relaxed = _wake_outcome(sh._Engine.run_wake, engine, base, snapshot, arm, off)
        if isinstance(expected, str):
            assert relaxed == expected
        else:
            _assert_wakes_within_bound(relaxed, expected)


# --- the label rule against labels run one at a time ------------------------------


def _labels_one_at_a_time(engine, run):
    """Call run(), which makes one _fixes call, recording each truth table's
    instants and _Sky; then run that call's labels one at a time (ref_label)
    on a copy of the session as _fixes got it, and check each table row's
    labeled channels and anchor against the copy's at the row's instant,
    each channel's lock history (stages and t_rx_s, bitwise), and the
    instant _fixes leaves the session at. Returns (labels at a fix's
    instant, labels after the last fix, tables)."""
    calls, tables = [], []
    sky, fixes = sh._Engine._sky, sh._Engine._fixes

    def recording_sky(self, st, truth, block, labels):
        tables.append((list(block), sky(self, st, truth, block, labels)))
        return tables[-1][1]

    def recording_fixes(self, st, instants, labels):
        entry = copy.deepcopy(st)
        offsets = fixes(self, st, instants, labels)
        calls.append((entry, list(instants), list(labels), copy.deepcopy(st)))
        return offsets

    with mock.patch.object(sh._Engine, "_sky", recording_sky), mock.patch.object(
        sh._Engine, "_fixes", recording_fixes
    ):
        run()
    ((ref, instants, labels, state),) = calls
    assert [ns for block, _ in tables for ns in block] == instants
    pending = list(labels)
    for block, table in tables:
        for row, ns in enumerate(block):
            while pending and pending[0][0] <= ns:
                ref_label(engine, ref, *pending.pop(0)[:2])
            assert table.labeled[row].tolist() == ref.labeled.tolist()
            assert table.anchor[row] == ref.anchor
    for ns, channel, _ in pending:
        ref_label(engine, ref, ns, channel)
    engine.advance_to(ref, max(ref.ns, instants[-1]))
    assert (state.ns, state.t_rel, state.anchor) == (ref.ns, ref.t_rel, ref.anchor)
    for lock, ref_lock in zip(state.locks, ref.locks, strict=True):
        assert lock.stage == ref_lock.stage
        assert [(e.kind, struct.pack("<d", e.t_rx_s)) for e in lock.history] == [
            (e.kind, struct.pack("<d", e.t_rx_s)) for e in ref_lock.history
        ]
    at_fix = sum(ns in instants for ns, _, _ in labels)
    return at_fix, len(pending), len(tables)


# Labels on fix instants (20 ms samples); labels after the last fix (two
# 20 ms after the first fix, which the last sample follows by 10 ms); and
# those two labels in the next one-row truth table.
_STRADDLE = dict(start_tow_s=86400.015)
_AT_FIX = dict(sample_period_s=0.02, wake_run_s=8.0)


@pytest.mark.parametrize(
    "overrides,truth_rows,expected",
    [
        (_AT_FIX, sh._TRUTH_ROWS, (8, 0, 1)),
        (dict(_STRADDLE, sample_period_s=2.67, wake_run_s=2.67), sh._TRUTH_ROWS, (6, 2, 1)),
        (dict(_STRADDLE, **_AT_FIX), 1, (8, 0, 268)),
    ],
)
def test_table_labels_equal_labels_one_at_a_time(monkeypatch, overrides, truth_rows, expected):
    """Each row of a decoding wake's truth tables reads the channels and
    the anchor that labels run one at a time leave by its instant: a label
    at a fix's own instant counts for that fix, the session's first label
    becomes the anchor, and labels after the last fix still step their
    locks and move the session's end to the last. Session one's tables
    read every label, its first label's channel the anchor."""
    monkeypatch.setattr(sh, "_TRUTH_ROWS", truth_rows)
    engine = sh._Engine(replace(BASE, **overrides))
    base, snapshot = engine.run_session_one()
    got = _labels_one_at_a_time(
        engine, lambda: engine.run_wake(base, snapshot, sh.ARM_HOTSTART, 60.0)
    )
    assert got == expected
    assert _labels_one_at_a_time(engine, engine.run_session_one)[:2] == (0, 0)
    first_label = [lock.history[-1].t_rx_s for lock in base.locks]
    assert base.anchor == first_label.index(min(first_label))


@given(
    code_s=st.floats(0.0, 1.5),
    bit_s=st.floats(0.0, 1.5),
    period=st.one_of(st.sampled_from([0.02, 0.25, 1.0]), st.floats(0.01, 2.0)),
    wake_run_s=st.floats(3.0, 16.0),
    off=st.one_of(st.sampled_from([60.0, 2400.0]), st.floats(0.0, 3000.0)),
    ppm=st.floats(0.0, 50.0),
    start_tow_s=st.one_of(st.floats(0.0, WEEK_S - 1e-3), st.floats(WEEK_S - 400.0, WEEK_S - 1e-3)),
    n_sats=st.integers(5, 12),
    truth_rows=st.sampled_from([1, 2, 7, sh._TRUTH_ROWS]),
)
@settings(max_examples=40, deadline=None)
def test_table_labels_equal_labels_one_at_a_time_randomized(
    code_s, bit_s, period, wake_run_s, off, ppm, start_tow_s, n_sats, truth_rows
):
    """test_table_labels_equal_labels_one_at_a_time over randomized wakes
    of both arms (the estimator's falls back to decoding past its budget)
    and session ones, with truth tables of one row and more."""
    config = replace(
        BASE,
        code_s=code_s,
        bit_s=bit_s,
        sample_period_s=period,
        wake_run_s=wake_run_s,
        rtc_ppm=ppm,
        start_tow_s=start_tow_s,
        n_sats=n_sats,
    )
    with mock.patch.object(sh, "_TRUTH_ROWS", truth_rows):
        try:
            engine = sh._Engine(config)
            base, snapshot = engine.run_session_one()
        except sh.ScenarioError:
            return
        _labels_one_at_a_time(engine, engine.run_session_one)
        for arm in (sh.ARM_ESTIMATOR, sh.ARM_HOTSTART):
            try:
                _labels_one_at_a_time(engine, lambda: engine.run_wake(base, snapshot, arm, off))
            except sh.ScenarioError:
                pass


def test_tx_rel_solution_is_self_consistent():
    engine = sh._Engine(replace(BASE, user_vel_ecef=(10.0, -4.0, 3.0)))
    eph = engine.sats[0]
    t_rx = 2000.0
    t_tx = engine.transmit_times(t_rx)[0]
    sat = cst.propagate(eph, engine.t0_abs + t_tx).position
    rng = np.linalg.norm(sat - engine.user_pos(t_rx))
    assert t_rx - t_tx == pytest.approx(rng / SPEED_OF_LIGHT_M_S, abs=1e-12)


# --- the relaxed solve of long truth tables against fix by fix ----------------------

# A wake across the GPS week end and the TOW wrap: session one and a 300 s
# sleep end about 100 s before the week does, and the 300-row tables of a
# 12 m/s user cross it.
WEEK_END = replace(
    BASE,
    start_tow_s=WEEK_S - 450.0,
    off_duration_s=300.0,
    wake_run_s=300.0,
    noise_sigma_m=5.0,
    rtc_ppm=10.0,
    user_vel_ecef=(12.0, -3.0, 1.5),
    seed=11,
)
# Every position and sample of a relaxed table lies this close to fix by
# fix.
RELAXED_BOUND_M = 1e-6
# A clock offset's second of week can round to the next float either way
# (at most 1.2e-10 s below WEEK_S), and so can the week-scale sum an offset
# error takes; the clock offset errors lie within these two roundings. The
# offset sets every pseudorange's receive time, so a fix's clock bias b_u
# moves with it, by up to c times this (7 cm), while its position does not.
OFFSET_ROUNDING_S = 2 * np.spacing(WEEK_S)


def _relaxed_and_fix_by_fix(run):
    """run()'s outcome, a value or a ScenarioError text, with the long
    tables relaxed and with every table solved fix by fix."""
    outcomes = []
    for relax_rows in (sh._RELAX_ROWS, sh._TRUTH_ROWS + 1):
        with mock.patch.object(sh, "_RELAX_ROWS", relax_rows):
            try:
                outcomes.append(run())
            except sh.ScenarioError as exc:
                outcomes.append(str(exc))
    return outcomes


def _assert_fixes_within_bound(relaxed, fix_by_fix):
    """The same fix times, iterations and converged flags, positions
    within RELAXED_BOUND_M, and clock biases within that plus what
    OFFSET_ROUNDING_S of clock offset moves every pseudorange by."""
    assert len(relaxed) == len(fix_by_fix)
    for f, g in zip(relaxed, fix_by_fix):
        assert (f.t_since_wake_s, f.iterations, f.converged) == (
            g.t_since_wake_s, g.iterations, g.converged
        )
        for name in ("err_east_m", "err_north_m", "err_2d_m"):
            assert abs(getattr(f, name) - getattr(g, name)) <= RELAXED_BOUND_M
        assert abs(f.b_u_m - g.b_u_m) <= RELAXED_BOUND_M + SPEED_OF_LIGHT_M_S * OFFSET_ROUNDING_S


def _assert_wakes_within_bound(relaxed, fix_by_fix):
    """Two run_wake outcomes, (ArmReport, diagnostics): every discrete
    field equal, every sample within RELAXED_BOUND_M, and the clock-offset
    errors within OFFSET_ROUNDING_S."""
    (a, diagnostics), (b, diagnostics_f) = relaxed, fix_by_fix
    assert (a.arm, a.time_to_first_fix_s, a.power_ratio, a.used_estimate, a.hotstart_delay_s) == (
        b.arm, b.time_to_first_fix_s, b.power_ratio, b.used_estimate, b.hotstart_delay_s
    )
    assert abs(a.rms_2d_m - b.rms_2d_m) <= RELAXED_BOUND_M
    assert [(x.t_s, x.fix_valid) for x in a.samples] == [(x.t_s, x.fix_valid) for x in b.samples]
    for x, y in zip(a.samples, b.samples):
        for name in ("err_east_m", "err_north_m", "err_2d_m"):
            assert abs(getattr(x, name) - getattr(y, name)) <= RELAXED_BOUND_M
    _assert_fixes_within_bound(a.fixes, b.fixes)
    _assert_offsets_within_rounding(diagnostics, diagnostics_f)


def _assert_offsets_within_rounding(diagnostics, diagnostics_f):
    assert diagnostics.keys() == diagnostics_f.keys()
    for key, value in diagnostics.items():
        assert value == pytest.approx(diagnostics_f[key], rel=0, abs=OFFSET_ROUNDING_S)


def _assert_reports_within_bound(relaxed, fix_by_fix):
    """_assert_wakes_within_bound for each arm of two ScenarioReports."""
    assert relaxed.arms.keys() == fix_by_fix.arms.keys()
    for arm, a in relaxed.arms.items():
        _assert_wakes_within_bound((a, {}), (fix_by_fix.arms[arm], {}))
    _assert_offsets_within_rounding(relaxed.diagnostics, fix_by_fix.diagnostics)


def test_relaxed_fixes_across_the_week_end():
    """Both arms of a wake whose 300-row tables cross the week end and the
    TOW wrap: the relaxed solve lands within 1e-6 m of fix by fix, with the
    same iterations and flags. This pins the array forms of GpsTime's
    normalisation (the receive times) and of the clock offset's week."""
    relaxed, fix_by_fix = _relaxed_and_fix_by_fix(lambda: sh.run_scenario(WEEK_END))
    assert len(relaxed.arms[sh.ARM_HOTSTART].fixes) >= sh._RELAX_ROWS
    assert relaxed.arms[sh.ARM_ESTIMATOR].used_estimate
    _assert_reports_within_bound(relaxed, fix_by_fix)


@pytest.mark.parametrize("expires_s", [WEEK_S - 450.0 + 480.0, WEEK_S - 450.0 + 391.5])
def test_relaxed_fixes_fail_where_fix_by_fix_fails(expires_s):
    """One satellite's ephemeris runs out inside the first wake table,
    past the week end (135 s into the wake) or before it (46 s in): the
    relaxed solve raises the error fix by fix raises, text and time
    included, for both arms."""
    t0 = sh.GpsTime(WEEK_END.start_week, WEEK_END.start_tow_s).total_seconds()
    sats = cst.default_constellation(np.array(WEEK_END.user_pos_ecef), t0, 8)
    validity = expires_s - WEEK_END.start_tow_s
    sats = tuple(replace(e, validity=validity) if e.sat_id == 2 else e for e in sats)
    config = replace(WEEK_END, satellites=sats)
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    for arm in (sh.ARM_ESTIMATOR, sh.ARM_HOTSTART):
        relaxed, fix_by_fix = _relaxed_and_fix_by_fix(
            lambda: engine.run_wake(base, snapshot, arm, WEEK_END.off_duration_s)
        )
        assert isinstance(relaxed, str) and "sat 2" in relaxed
        assert relaxed == fix_by_fix


def test_relaxed_fixes_read_labels_due_inside_the_table():
    """A decoding wake with 20 ms samples: its first table (400 rows)
    starts at the fourth label, and the other labels fall between its
    rows. Each relaxed row reads the channels labeled by its instant."""
    config = replace(WEEK_END, start_tow_s=86400.0, sample_period_s=0.02, wake_run_s=8.0)
    relaxed, fix_by_fix = _relaxed_and_fix_by_fix(lambda: sh.run_scenario(config))
    assert not relaxed.arms[sh.ARM_HOTSTART].used_estimate
    _assert_reports_within_bound(relaxed, fix_by_fix)


def test_a_handed_back_table_is_solved_fix_by_fix(monkeypatch):
    """When pvt.solve_rows marks row 5 failed on every sweep, the relaxed
    solve hands each long table back untouched, and fix by fix solves it:
    the decoding wake's 400-row table, with labels between its rows, gives
    fix by fix's report bit for bit, and each label runs once."""
    config = replace(WEEK_END, start_tow_s=86400.0, sample_period_s=0.02, wake_run_s=8.0)
    label, solve_rows = sh._Engine._label, pvt.solve_rows
    sweeps = []

    def run(labeled):
        def counting_label(self, st, ns, row):
            labeled.append((ns, row))
            return label(self, st, ns, row)

        with mock.patch.object(sh._Engine, "_label", counting_label):
            return sh.run_scenario(config)

    def failing_row_5(*args):
        sweeps.append(1)
        sol = solve_rows(*args)
        sol.failed[5] = True
        return sol

    labeled_f = []
    with mock.patch.object(sh, "_RELAX_ROWS", sh._TRUTH_ROWS + 1):
        fix_by_fix = run(labeled_f)
    monkeypatch.setattr(pvt, "solve_rows", failing_row_5)
    labeled = []
    assert run(labeled) == fix_by_fix
    assert sweeps and not fix_by_fix.arms[sh.ARM_HOTSTART].used_estimate
    assert labeled == labeled_f and len(set(labeled)) == len(labeled)


def test_relaxed_fix_can_take_one_iteration_more_or_fewer():
    """The last sweep solves from inputs that still move by up to
    pvt.TOL_M, so a fix whose Gauss-Newton step lands that close to the
    tolerance can stop an iteration apart from fix by fix. Here fix by
    fix's first step at estimator fix 24 and hotstart fix 11 is 1.011e-4
    m, against TOL_M = 1e-4 m: fix by fix takes 2 iterations and the
    relaxed solve 1, its position still within the bound, and every
    converged flag is the same."""
    config = replace(
        sh.ScenarioConfig(),
        seed=523440919,
        n_sats=12,
        rtc_ppm=50.0,
        off_duration_s=4.695865886054835,
        wake_run_s=40.0,
        sample_period_s=0.25,
        noise_sigma_m=0.0,
        start_tow_s=604636.5882993283,
    )
    relaxed, fix_by_fix = _relaxed_and_fix_by_fix(lambda: sh.run_scenario(config))
    apart = {}
    for arm, a in relaxed.arms.items():
        fixes, fixes_f = a.fixes, fix_by_fix.arms[arm].fixes
        assert len(fixes) == len(fixes_f) >= sh._RELAX_ROWS
        for i, (f, g) in enumerate(zip(fixes, fixes_f)):
            assert f.converged == g.converged and abs(f.iterations - g.iterations) <= 1
            for name in ("err_east_m", "err_north_m", "err_2d_m"):
                assert abs(getattr(f, name) - getattr(g, name)) <= RELAXED_BOUND_M
            if f.iterations != g.iterations:
                apart[arm, i] = (f.iterations, g.iterations)
    assert apart == {(sh.ARM_ESTIMATOR, 24): (1, 2), (sh.ARM_HOTSTART, 11): (1, 2)}


def test_relaxed_tables_hand_their_state_to_the_next(monkeypatch):
    """With tables of 48 rows, each arm of the week-end wake is six
    relaxed tables, each entered from the one before, and a tail of 11 or
    12 rows solved fix by fix from the last: the position, delays and
    clock offset a relaxed table leaves keep the next within the bound."""
    monkeypatch.setattr(sh, "_TRUTH_ROWS", 48)
    relaxed, fix_by_fix = _relaxed_and_fix_by_fix(lambda: sh.run_scenario(WEEK_END))
    for arm in relaxed.arms.values():
        assert 6 * 48 < len(arm.fixes) < 6 * 48 + sh._RELAX_ROWS
    _assert_reports_within_bound(relaxed, fix_by_fix)


def test_relaxed_session_one_reads_its_clock_offsets(monkeypatch):
    """A session one of 100 fixes in tables of 40 rows: the first, which
    has no position to seed from, goes fix by fix, and the next two are
    relaxed. Its fixes, clock offset errors (the jitter among them) and
    snapshot match fix by fix."""
    monkeypatch.setattr(sh, "_TRUTH_ROWS", 40)
    config = replace(WEEK_END, session1_extra_s=100.0)

    def session_one():
        base, snapshot = sh._Engine(config).run_session_one()
        return base.fixes, base.diagnostics, snapshot

    (fixes, diagnostics, snapshot), (fixes_f, diagnostics_f, snapshot_f) = (
        _relaxed_and_fix_by_fix(session_one)
    )
    assert len(fixes) == 100
    assert fixes[:40] == fixes_f[:40]
    _assert_fixes_within_bound(fixes, fixes_f)
    _assert_offsets_within_rounding(diagnostics, diagnostics_f)
    assert replace(snapshot_f, rco=snapshot.rco) == snapshot
    assert snapshot.rco.week == snapshot_f.rco.week
    assert snapshot.rco.second == pytest.approx(snapshot_f.rco.second, rel=0, abs=OFFSET_ROUNDING_S)


def test_session_one_first_table_goes_fix_by_fix(monkeypatch):
    """Session one has no position to seed relaxed rows from, so its first
    table is solved fix by fix however long it is: one pvt.solve a fix."""
    calls, solve = [], pvt.solve
    monkeypatch.setattr(pvt, "solve", lambda *a: calls.append(1) or solve(*a))
    base, _ = sh._Engine(replace(WEEK_END, session1_extra_s=20.0)).run_session_one()
    assert len(base.fixes) == len(calls) == 20


@given(
    start_tow_s=st.one_of(st.floats(0.0, WEEK_S - 1e-3), st.floats(WEEK_S - 100.0, WEEK_S - 1e-3)),
    s_bel=st.floats(-100.0, 3000.0),
    t=st.floats(0.0, 3000.0),
    rtc_ppm=st.sampled_from([0.0, 10.0, 1000.0]),
)
@settings(max_examples=200, deadline=None)
def test_code_time_quantization_bound(start_tow_s, s_bel, t, rtc_ppm):
    """The code time inside a table's sync TIC (_rco_terms) is the signal's
    phase in its subframe resolved to whole 1.023 MHz chips: a whole number
    of chips, within half a chip of the phase."""
    engine = sh._Engine(replace(BASE, start_tow_s=start_tow_s, rtc_ppm=rtc_ppm))
    elapsed = t * engine._scale()
    _, sync_tic, _ = engine._rco_terms(np.array([s_bel]), np.array([elapsed]))
    # sync_tic is where the subframe ends: SUBFRAME_S - within after now.
    within = SUBFRAME_S - (sync_tic[0] - elapsed / TIC_S) * TIC_S
    err = within - (start_tow_s + s_bel) % SUBFRAME_S
    err -= SUBFRAME_S * round(err / SUBFRAME_S)
    assert abs(err) <= 0.5 / CHIP_RATE_HZ + 1e-9
    chips = within * CHIP_RATE_HZ
    assert abs(chips - round(chips)) <= 1e-3


def test_gps_times_equal_gps_time_normalisation():
    """The array normalisation gives GpsTime's (week, second) bit for bit,
    at the window edges and their float neighbours too."""
    edges = [0.0, -0.0, WEEK_S, -WEEK_S, 2 * WEEK_S, 1e-300, -1e-300, 1e6, -1e6]
    seconds = [x for e in edges for x in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
    seconds += np.random.default_rng(0).uniform(-3 * WEEK_S, 3 * WEEK_S, 200).tolist()
    weeks, normalised = sh._gps_times(7, np.array(seconds))
    for week, second, x in zip(weeks.tolist(), normalised.tolist(), seconds):
        expected = sh.GpsTime(7, x)
        assert (week, struct.pack("<d", second)) == (
            expected.week, struct.pack("<d", expected.second)
        )


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


def test_every_config_field_can_be_set_from_scenario_text():
    """Each ScenarioConfig field has a key in the scenario text format, so
    no option exists that only code can set."""
    text = (
        "[user]\npos_ecef_m = 0 0 7000000\nvel_ecef_mps = 1 2 3\n"
        "[constellation]\nsat = 3 55 0 0\n"
    )
    parsed, default = sh.parse_scenario(text), sh.ScenarioConfig()
    names = [f.name for f in fields(sh.ScenarioConfig)]
    settable = {name for name, _ in sh._SCALAR_KEYS.values()}
    settable |= {n for n in names if getattr(parsed, n) != getattr(default, n)}
    assert settable == set(names)


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
