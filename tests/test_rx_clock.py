"""Receiver timescale tests: counters, offset bookkeeping, quantization."""
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gpssim import rx_clock as rxc
from gpssim.constants import TIC_S, WEEK_S


class TestGpsTime:
    def test_normalizes_forward_across_week(self):
        t = rxc.GpsTime(0, WEEK_S + 5.0)
        assert (t.week, t.second) == (1, 5.0)

    def test_normalizes_negative_seconds(self):
        t = rxc.GpsTime(5, -1.0)
        assert t.week == 4
        assert t.second == pytest.approx(WEEK_S - 1.0)

    def test_add_and_diff_are_inverse(self):
        t = rxc.GpsTime(100, 86400.0)
        for dt in (0.0, 1e-6, 123.456, WEEK_S - 86400.0 + 10.0):
            assert t.add(dt).diff(t) == pytest.approx(dt, abs=1e-9)

    def test_diff_spans_week_boundary(self):
        a = rxc.GpsTime(101, 1.0)
        b = rxc.GpsTime(100, WEEK_S - 1.0)
        assert a.diff(b) == pytest.approx(2.0, abs=1e-9)

    @given(
        week=st.integers(0, 2000),
        sec=st.floats(-2 * WEEK_S, 2 * WEEK_S, allow_nan=False),
    )
    @example(week=0, sec=-5e-324)
    def test_always_normalized(self, week, sec):
        t = rxc.GpsTime(week, sec)
        assert 0.0 <= t.second < WEEK_S
        assert t.total_seconds() == pytest.approx(week * WEEK_S + sec, abs=1e-5)


def test_rco_is_not_normalized():
    r = rxc.Rco(0, -0.075)
    assert (r.week, r.second) == (0, -0.075)


# --- counter state --------------------------------------------------------------


def _clock(ppm=0.0):
    return rxc.ReceiverClockState(rxc.GpsTime(100, 1000.0), rtc_ppm_error=ppm)


def test_tic_increments_every_tenth_second():
    c = _clock()
    assert c.tic_value == 0.0
    c.advance(0.1)
    assert c.tic_value == pytest.approx(1.0)
    c.advance(0.05)
    c.advance(0.05)
    assert c.tic_value == pytest.approx(2.0)


def test_zero_step_changes_nothing():
    c = _clock()
    c.advance(0.1)
    before = (c.tic_value, c.rtc_count, c.elapsed_rx_s)
    c.advance(0.0)
    assert (c.tic_value, c.rtc_count, c.elapsed_rx_s) == before


def test_backwards_step_rejected():
    with pytest.raises(rxc.ClockBackwardsError):
        _clock().advance(-1e-9)


def test_rtc_drift_after_1000_seconds_at_10ppm():
    fast, true = _clock(ppm=10.0), _clock()
    fast.advance(1000.0)
    true.advance(1000.0)
    assert true.rtc_count == 32_000_000
    assert fast.rtc_count - true.rtc_count == 320


def test_tic_value_keeps_the_fraction():
    c = _clock()
    c.advance(0.25)
    assert c.tic_value == pytest.approx(2.5)


def test_receiver_time_tracks_scaled_elapsed():
    c = _clock(ppm=10.0)
    c.advance(100.0)
    assert c.receiver_time().diff(c.zt) == pytest.approx(100.0 * (1 + 1e-5))


def test_counts_accumulate_across_many_small_steps():
    c = _clock()
    for _ in range(1000):
        c.advance(0.001)
    assert c.tic_value == pytest.approx(10.0)
    assert c.rtc_count == 32_000


@given(steps=st.lists(st.floats(0.0, 5.0, allow_nan=False), max_size=40))
def test_counters_are_monotone(steps):
    c = _clock(ppm=3.0)
    seen = []
    for dt in steps:
        c.advance(dt)
        seen.append((c.tic_value, c.rtc_count))
    assert seen == sorted(seen)


# --- clock offset ----------------------------------------------------------------


def test_rco_zero_inputs_is_minus_delay():
    rco = rxc.compute_rco(rxc.GpsTime(0, 0.0), 0, 0.0, 0)
    assert (rco.week, rco.second) == (0, -0.075)


def test_rco_worked_example():
    rco = rxc.compute_rco(rxc.GpsTime(0, 100.0), 0, 50.0, 0)
    assert rco.second == pytest.approx(104.925)
    assert rco.week == 0


def test_rco_carries_week_difference():
    rco = rxc.compute_rco(rxc.GpsTime(102, 100.0), 100, 50.0, 0)
    assert rco.week == 2


def test_rco_custom_delay():
    base = rxc.compute_rco(rxc.GpsTime(0, 0.0), 0, 0.0, 0, propagation_delay_s=0.07)
    assert base.second == pytest.approx(-0.07)


def test_to_gps_time_removes_the_offset():
    t = rxc.to_gps_time(rxc.GpsTime(0, 104.925), rxc.Rco(0, 104.925))
    assert (t.week, t.second) == (0, 0.0)


@given(
    week=st.integers(1, 1500),
    sec=st.floats(0, WEEK_S - 1, allow_nan=False),
    off=st.floats(-1000.0, 1000.0, allow_nan=False),
)
def test_offset_round_trip(week, sec, off):
    rt = rxc.GpsTime(week, sec)
    truth = rxc.to_gps_time(rt, rxc.Rco(0, off))
    assert rt.diff(truth) == pytest.approx(off, abs=1e-9)


def test_rco_then_conversion_recovers_truth():
    """Close the loop: a receiver whose clock reads `bias` fast observes a
    subframe end, computes its offset, and must recover true GPS time."""
    bias = 0.123456
    true_t0 = rxc.GpsTime(900, 3600.0)
    zt = true_t0.add(bias)
    # The subframe ending at week-second 3606 carries tow 601 and reaches
    # the antenna 0.075 s later, 6.075 s of elapsed receiver time after zt.
    sync_tic = (6.0 + 0.075) / TIC_S
    rco = rxc.compute_rco(zt, 900, sync_tic, 601)
    assert rco.second == pytest.approx(bias, abs=1e-12)
    recovered = rxc.to_gps_time(zt.add(10.0), rco)
    assert recovered.diff(true_t0.add(10.0)) == pytest.approx(0.0, abs=1e-9)


def test_tic_boundary_robust_to_float_accumulation():
    # Six 1/6 s steps accumulate 31999.999999999996 RTC ticks in floats;
    # the count must still read 32000.
    c = _clock()
    for _ in range(6):
        c.advance(1.0 / 6.0)
    assert c.rtc_count == 32_000
    assert math.isclose(c.tic_value, 10.0)
