"""Receiver time scales: zero time, TIC counter, RTC counter, clock offset.

The receiver keeps its own timescale starting at zero time (ZT). One
oscillator model drives everything: a constant fractional rate error
(rtc_ppm_error) plus a constant initial bias. TICs are 100 ms of receiver
time; the RTC free-runs at a nominal rate (32 kHz class) and is the only
counter that keeps moving while the receiver sleeps.

The receiver clock offset (RCO) is receiver time minus GPS time. Given a
subframe whose handover count is known and the TIC value at which that
subframe ends, the offset follows from

    rco.week   = zt.week - week_number
    rco.second = zt.second + sync_tic * 0.1 - (tow * 6 + delay)

with delay the one-way propagation delay of the anchoring satellite
(0.075 s flat until a navigation solution provides a better value).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import (
    DEFAULT_PROPAGATION_DELAY_S,
    SUBFRAME_S,
    TIC_S,
    WEEK_S,
)

# Slop applied before flooring the accumulated RTC count, to keep an
# exact-boundary accumulation (e.g. six 1/6 s steps) from losing a count
# to float error.
_FLOOR_EPS = 1e-9


class ClockBackwardsError(ValueError):
    """A counter that must be monotone was asked to run backwards."""


def _pick(condition: bool, if_true: float, if_false: float) -> float:
    return if_true if condition else if_false


def normalize_week(week, second, floor=math.floor, where=_pick):
    """(week, second) with second brought into [0, WEEK_S) and week moved
    by the whole weeks that took: GpsTime's rule. An int and a float, or,
    with floor=np.floor and where=np.where, arrays that broadcast, whose
    weeks come back as floats; both run this one sequence of operations,
    so each array cell is bitwise the scalar result."""
    # + 0 turns np.floor's -0.0 into the 0.0 that math.floor's int 0 gives.
    carry = floor(second / WEEK_S) + 0
    second = second - carry * WEEK_S
    # The subtraction can round onto either side of the window edge, and
    # wrapping a tiny negative back into the week can round onto WEEK_S.
    low = second < 0.0
    second = where(low, second + WEEK_S, second)
    high = second >= WEEK_S
    second = where(high, second - WEEK_S, second)
    return week + carry - low + high, second


@dataclass(frozen=True)
class GpsTime:
    """GPS time as (week, second-in-week); normalized on construction."""

    week: int
    second: float

    def __post_init__(self) -> None:
        # normalize_week keeps a second already in the week as it is.
        if not 0.0 <= self.second < WEEK_S:
            week, second = normalize_week(self.week, self.second)
            object.__setattr__(self, "week", week)
            object.__setattr__(self, "second", second)

    def add(self, dt_s: float) -> GpsTime:
        return GpsTime(self.week, self.second + dt_s)

    def diff(self, other: GpsTime) -> float:
        """self - other in seconds, across week boundaries."""
        return (self.week - other.week) * WEEK_S + (self.second - other.second)

    def total_seconds(self) -> float:
        return self.week * WEEK_S + self.second


@dataclass(frozen=True)
class Rco:
    """Receiver clock offset; second is deliberately not normalized."""

    week: int
    second: float


@dataclass
class ReceiverClockState:
    """Receiver timescale state advanced by true elapsed time."""

    zt: GpsTime
    rtc_nominal_hz: float = 32_000.0
    rtc_ppm_error: float = 0.0
    elapsed_rx_s: float = field(default=0.0, init=False)
    _rtc_accum: float = field(default=0.0, init=False)

    def advance(self, dt_true_s: float) -> None:
        """Advance by dt of true time; receiver counters scale by the drift."""
        if dt_true_s < 0:
            raise ClockBackwardsError("negative time step")
        scale = 1.0 + self.rtc_ppm_error * 1e-6
        self.elapsed_rx_s += dt_true_s * scale
        self._rtc_accum += self.rtc_nominal_hz * scale * dt_true_s

    @property
    def tic_value(self) -> float:
        """Receiver elapsed time in TIC units, fraction included."""
        return self.elapsed_rx_s / TIC_S

    @property
    def rtc_count(self) -> int:
        return math.floor(self._rtc_accum + _FLOOR_EPS)

    def receiver_time(self) -> GpsTime:
        return self.zt.add(self.elapsed_rx_s)


def compute_rco(
    zt: GpsTime,
    week_number: int,
    sync_tic: float,
    tow: int,
    *,
    propagation_delay_s: float = DEFAULT_PROPAGATION_DELAY_S,
) -> Rco:
    """Receiver clock offset from a frame-synchronized subframe.

    sync_tic is the TIC value (fractional values allowed) at which the
    subframe with handover count tow ends at the antenna.
    """
    second = zt.second + sync_tic * TIC_S - (tow * SUBFRAME_S + propagation_delay_s)
    return Rco(zt.week - week_number, second)


def to_gps_time(receiver_time: GpsTime, rco: Rco) -> GpsTime:
    """Convert receiver time to GPS time by removing the clock offset."""
    return GpsTime(receiver_time.week - rco.week, receiver_time.second - rco.second)
