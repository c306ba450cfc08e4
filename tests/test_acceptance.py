"""End-to-end acceptance suite.

Ten criteria, one test each, ordered. Every test prints a single
``criterion NN PASS`` line on success (visible with ``pytest -s`` or in the
captured output section); pytest's own PASSED/FAILED verdict per test is the
authoritative pass/fail signal. Tolerances are stated inline next to each
assertion and are not derived from the code under test.
"""
import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from gpssim import frame_sync as fsync
from gpssim import nav_message as nav
from gpssim import pvt
from gpssim import simharness as sh
from gpssim.constants import TOW_COUNT
from gpssim.rx_clock import GpsTime, Rco, ReceiverClockState


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")

        return wrapper

    return deco


def _pos_ms(word, bit, tow, residual_ms=0.0):
    """Absolute week-milliseconds of a message position."""
    return ((tow - 1) % TOW_COUNT) * 6000.0 + (word - 1) * 600.0 + bit * 20.0 + residual_ms


def _snapshot(word, bit, tow, rtc):
    return fsync.PersistedSnapshot(word, bit, tow, rtc, 0.0, 0.0, Rco(0, 0.0))


@criterion(1, "fieldwise estimate reproduces the stored worked example")
def test_criterion_01_fieldwise_worked_example():
    est = fsync.estimate_frame_state(
        _snapshot(6, 19, 2679, 17362),
        6731176,
        32000.0,
        mode=fsync.EstimationMode.FIELDWISE,
    )
    assert (est.bit_index, est.word_index, est.tow) == (9, 6, 2713)


@criterion(2, "exact mode matches the tick-by-tick oracle over 1006 trials")
def test_criterion_02_exact_mode_matches_tick_oracle_bulk():
    rng = np.random.default_rng(2022)
    t_start = time.monotonic()

    cases = []
    for _ in range(900):  # short sleeps, dense coverage of carry edges
        cases.append(int(rng.integers(0, 960_001)))
    for _ in range(100):  # long sleeps out to the full 10^6 ms
        cases.append(int(rng.integers(30_400_000, 32_000_001)))
    # Exact boundaries: zero, one count, one bit, one word, one subframe,
    # and the 10^6 ms cap itself.
    cases += [0, 1, 640, 19_200, 192_000, 32_000_000]

    checked = 0
    for counts in cases:
        word = int(rng.integers(1, 11))
        bit = int(rng.integers(0, 30))
        tow = int(rng.integers(0, TOW_COUNT))
        elapsed_ms = counts / 32.0
        assert elapsed_ms <= 1_000_000.0
        est = fsync.estimate_frame_state(_snapshot(word, bit, tow, 0), counts, 32000.0)
        assert (est.bit_index, est.word_index, est.tow) == fsync.tick_frame_state(
            word, bit, tow, elapsed_ms
        )
        checked += 1

    assert checked == 1006
    assert time.monotonic() - t_start < 10.0


@criterion(3, "drift budget boundary: 10 ppm stays inside, 30 ppm does not")
def test_criterion_03_drift_budget_boundary():
    assert fsync.drift_budget(10.0, 10.0) == 1_000_000.0
    t_start = time.monotonic()

    def misalignments(ppm):
        rng = np.random.default_rng(33)
        errors = []
        for _ in range(100):
            word = int(rng.integers(1, 11))
            bit = int(rng.integers(0, 30))
            tow = int(rng.integers(0, 90_000))
            clock = ReceiverClockState(GpsTime(0, 0.0), rtc_ppm_error=ppm)
            clock.advance(float(rng.uniform(0.0, 0.1)))  # random latch phase
            rtc_then = clock.rtc_count
            clock.advance(1000.0)  # true elapsed exactly the 10 ppm budget
            est = fsync.estimate_frame_state(
                _snapshot(word, bit, tow, rtc_then), clock.rtc_count, 32000.0
            )
            truth_ms = _pos_ms(word, bit, tow) + 1_000_000.0
            est_ms = _pos_ms(est.word_index, est.bit_index, est.tow, est.residual_ms)
            errors.append(est_ms - truth_ms)
        return errors

    within = misalignments(10.0)
    assert all(abs(e) <= 10.0 for e in within), max(within)

    beyond = misalignments(30.0)
    assert sum(1 for e in beyond if abs(e) > 10.0) >= 1

    assert time.monotonic() - t_start < 10.0


@criterion(4, "carrier-to-code Doppler scale at 10 kHz")
def test_criterion_04_code_doppler_scale():
    assert fsync.code_doppler_from_carrier(10_000.0) == pytest.approx(6.4935, abs=0.005)


@criterion(5, "solver recovers forward-modeled truth in 100/100 trials")
def test_criterion_05_solver_forward_model_recovery():
    t_start = time.monotonic()
    rng = np.random.default_rng(55)
    base = np.array([-1266643.136, -4727176.539, 4079014.032])
    east, north, up = pvt.enu_basis(base)

    def sky(n, jitter_seed):
        jrng = np.random.default_rng(jitter_seed)
        sats = []
        for k in range(n):
            az = 2 * np.pi * k / n + jrng.uniform(0.0, 0.4)
            el = np.radians(jrng.uniform(20.0, 80.0))
            los = np.cos(el) * (np.sin(az) * east + np.cos(az) * north) + np.sin(el) * up
            b = base @ los
            d = -b + np.sqrt(b * b + 2.66e7**2 - base @ base)
            sats.append(base + d * los)
        return np.array(sats)

    for trial in range(100):
        truth = base + rng.uniform(-1e5, 1e5, 3)
        bias = rng.uniform(-1e6, 1e6)
        for n in (4, 8):
            sats = sky(n, 1000 + trial)
            rho = np.linalg.norm(sats - truth, axis=1) + bias
            sol = pvt.solve(rho, sats)
            assert sol.converged and sol.iterations <= 10
            assert np.linalg.norm(sol.position - truth) < 1e-3
            assert abs(sol.b_u - bias) < 1e-3

    jac = pvt.design_matrix(base + 50.0, sky(6, 1))
    h = 0.5
    sats = sky(6, 1)

    def model(state):
        return np.linalg.norm(sats - state[:3], axis=1) + state[3]

    state0 = np.append(base + 50.0, 0.0)
    for col in range(4):
        step = np.zeros(4)
        step[col] = h
        fd = (model(state0 + step) - model(state0 - step)) / (2 * h)
        assert np.allclose(jac[:, col], fd, rtol=1e-6, atol=1e-12)

    assert time.monotonic() - t_start < 5.0


@criterion(6, "estimated frame sync leads the decode wait by 1.2..6.0 s")
def test_criterion_06_first_fix_lead_over_hotstart():
    delays = []
    for k in range(60):  # start phase stepped 0.1 s across one subframe
        config = sh.ScenarioConfig(
            off_duration_s=900.0 + 0.1 * k, noise_sigma_m=0.0, seed=6
        )
        report = sh.run_scenario(config)
        est = report.arms[sh.ARM_ESTIMATOR]
        hot = report.arms[sh.ARM_HOTSTART]
        assert est.used_estimate
        assert est.time_to_first_fix_s == pytest.approx(1.2, abs=1e-9)
        lead = hot.time_to_first_fix_s - est.time_to_first_fix_s
        assert lead > 0.0
        assert lead == pytest.approx(hot.hotstart_delay_s, abs=1e-6)
        assert 1.2 <= hot.hotstart_delay_s <= 6.0
        delays.append(round(hot.hotstart_delay_s, 3))
    # The sweep must actually exercise different message phases.
    assert len(set(delays)) > 10


@criterion(7, "first fix is the worst fix, then the error drops below 10 m")
def test_criterion_07_first_fix_error_shape():
    wins = 0
    for seed in range(100):
        config = sh.ScenarioConfig(
            off_duration_s=900.0, noise_sigma_m=5.0, seed=seed, arms=sh.ARM_ESTIMATOR
        )
        fixes = sh.run_scenario(config).arms[sh.ARM_ESTIMATOR].fixes
        assert len(fixes) >= 2
        if fixes[0].err_2d_m > fixes[1].err_2d_m:
            wins += 1
    assert wins >= 90, f"first fix exceeded second fix in only {wins}/100 runs"

    quiet = sh.run_scenario(
        sh.ScenarioConfig(off_duration_s=900.0, noise_sigma_m=0.0, seed=1,
                          arms=sh.ARM_ESTIMATOR)
    ).arms[sh.ARM_ESTIMATOR]
    for sample in quiet.samples[1:]:
        assert sample.err_2d_m < 10.0
    steady = [f.err_2d_m for f in quiet.fixes[1:]]
    assert quiet.fixes[0].err_2d_m > max(steady)


@criterion(8, "message round trip, parity flip detection, scanner integrity")
def test_criterion_08_message_integrity():
    rng = np.random.default_rng(88)

    for _ in range(10_000):
        sf = nav.build_subframe(
            int(rng.integers(1, 33)),
            int(rng.integers(1, 6)),
            int(rng.integers(0, TOW_COUNT)),
            int(rng.integers(0, 8192)),
            rng.bytes(20),
        )
        out = nav.decode_subframe(nav.subframe_bits(sf))
        assert (out.sat_id, out.subframe_id, out.tow, out.week_number) == (
            sf.sat_id,
            sf.subframe_id,
            sf.tow,
            sf.week_number,
        )
        assert out.payload == sf.payload

    flips_detected = 0
    flips_total = 0
    for _ in range(150):
        data = int(rng.integers(0, 1 << 24))
        d29, d30 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        word = nav.encode_word(data, d29, d30)
        for pos in range(30):
            flips_total += 1
            try:
                nav.check_word(word ^ (1 << pos), d29, d30)
            except nav.ParityError:
                flips_detected += 1
    assert flips_detected == flips_total == 4500

    chunks = [
        nav.subframe_bits(nav.build_subframe(9, k % 5 + 1, 4000 + k, 77, b"\x55" * 20))
        for k in range(20)
    ]
    stream = np.concatenate(chunks)
    hits = nav.find_subframe_boundaries(stream)
    assert [h.offset for h in hits] == [300 * k for k in range(20)]

    noise = rng.integers(0, 2, 1_000_000).astype(np.uint8)
    assert nav.find_subframe_boundaries(noise) == []


@criterion(9, "duty-cycle power ratio sits in the expected band")
def test_criterion_09_power_ratio_band():
    ratio = sh.power_savings_ratio(900.0, 3.0)
    assert ratio == pytest.approx(3.0 / 903.0)
    assert 1.0 / 310.0 <= ratio <= 1.0 / 290.0


@criterion(10, "same scenario and seed give byte-identical reports")
def test_criterion_10_byte_identical_reports(tmp_path):
    config = sh.ScenarioConfig(off_duration_s=900.0, noise_sigma_m=5.0, seed=7)
    paths = []
    for name in ("first.csv", "second.csv"):
        report = sh.run_scenario(config)
        path = tmp_path / name
        sh.export_report(report, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
