"""Scenario-driven closed-loop simulation of sleep/wake positioning.

A scenario runs one receiver through session one (acquisition, ephemeris
collection, a position fix, a snapshot), a power-off interval, then a wake
in one or both arms:

* estimator arm: frame sync predicted from elapsed RTC counts; a fix is
  available one processing epsilon after bit lock.
* hotstart arm: frame sync waits for a real preamble plus handover word.

Both arms share the same truth, the same receiver clock errors, and the
same epoch-keyed measurement noise, so their outputs differ only through
the frame-sync path. The simulation is event driven and fully deterministic
for a given scenario and seed. Session one computes which of each channel's
subframes carry its ephemeris from their indices, and takes them in one
event when the last of them arrives.

All internal times are seconds relative to the scenario start; week-scale
absolute floats would quantize transmit times to about 7.45 ns (2.2 m) at
week 100, and more coarsely in later weeks. The receive epoch of a fix is
common to every channel, so its coarser precision is absorbed by the
clock-bias unknown.
"""
from __future__ import annotations

import copy
import heapq
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import constellation as cst
from . import frame_sync as fs
from . import nav_message as nav
from . import pvt
from . import receiver as rcv
from .constants import (
    BIT_S,
    DEFAULT_PROPAGATION_DELAY_S,
    EARTH_RADIUS_M,
    SPEED_OF_LIGHT_M_S,
    SUBFRAME_S,
    TIC_S,
    TOW_COUNT,
    WEEK_COUNT,
    WEEK_S,
    WORD_S,
)
from .rx_clock import (
    GpsTime,
    ReceiverClockState,
    code_time_at_tic,
    compute_rco,
    to_gps_time,
)


class ScenarioError(ValueError):
    """Scenario configuration is invalid or produces unusable geometry."""


def _expired(exc: cst.StaleEphemerisError, t_rel: float) -> ScenarioError:
    """A stale ephemeris met while simulating time t_rel (relative seconds);
    exc names the satellite and the offset from its epoch."""
    return ScenarioError(f"stale ephemeris while simulating t={t_rel:.3f} s: {exc}")


ARM_ESTIMATOR = "estimator"
ARM_HOTSTART = "hotstart"

# Default truth site: mid-latitude, 1.6 km altitude.
_DEFAULT_USER = (-1266643.136, -4727176.539, 4079014.032)

# Magnitude bounds far past any real receiver. Beyond them a run leaves the
# ephemeris validity window (RTC error, latencies, session one's 1 Hz
# fixes), draws pseudoranges that are no longer finite or positive (noise),
# or overflows a snapshot field (the RTC rate its 64-bit count, the clock
# bias its 32-bit offset week).
_UPPER_BOUNDS = {
    "rtc_ppm": 1000.0,
    "clock_bias_s": 60.0,
    "rtc_nominal_hz": 1e9,
    "code_s": 60.0,
    "carrier_s": 60.0,
    "bit_s": 60.0,
    "estimator_epsilon_s": 60.0,
    "session1_extra_s": cst.DEFAULT_VALIDITY_S,
    "noise_sigma_m": 1000.0,
}
# Each wake queues all of its sample events up front.
_MAX_SAMPLES_PER_WAKE = 100_000
_NON_NEGATIVE = (
    "seed", "code_s", "carrier_s", "bit_s", "rtc_ppm", "off_duration_s",
    "noise_sigma_m", "session1_extra_s", "estimator_epsilon_s",
)
# Ground and air users: near the Earth, well inside the satellite orbits.
_USER_RADIUS_M = (0.5 * EARTH_RADIUS_M, 2.0 * EARTH_RADIUS_M)
_MAX_SPEED_M_S = 1000.0


@dataclass(frozen=True)
class ScenarioConfig:
    start_week: int = 100
    start_tow_s: float = 86400.0
    user_pos_ecef: tuple[float, float, float] = _DEFAULT_USER
    user_vel_ecef: tuple[float, float, float] = (0.0, 0.0, 0.0)
    n_sats: int = 8
    satellites: tuple[cst.EphemerisRecord, ...] | None = None
    code_s: float = 0.5
    carrier_s: float = 0.3
    bit_s: float = 0.4
    rtc_nominal_hz: float = 32_000.0
    rtc_ppm: float = 10.0
    clock_bias_s: float = 0.001
    bit_margin_ms: float = 10.0
    off_duration_s: float = 900.0
    noise_sigma_m: float = 5.0
    arms: str = "both"
    seed: int = 1
    sample_period_s: float = 1.0
    wake_run_s: float = 10.0
    session1_extra_s: float = 3.0
    estimator_epsilon_s: float = 0.0
    snapshot_path: str | None = None
    min_elevation_deg: float = 5.0
    estimation_mode: fs.EstimationMode = fs.EstimationMode.EXACT

    def validate(self) -> None:
        numbers = list(vars(self).items())
        numbers += [("user_pos_ecef", v) for v in self.user_pos_ecef]
        numbers += [("user_vel_ecef", v) for v in self.user_vel_ecef]
        for name, value in numbers:
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite")
        for name, bound in _UPPER_BOUNDS.items():
            if abs(getattr(self, name)) > bound:
                raise ScenarioError(f"|{name}| must not exceed {bound:g}")
        if self.arms not in (ARM_ESTIMATOR, ARM_HOTSTART, "both"):
            raise ScenarioError(f"unknown arms selection {self.arms!r}")
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be non-negative")
        for name in ("sample_period_s", "rtc_nominal_hz", "bit_margin_ms"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be positive")
        if self.wake_run_s < self.sample_period_s:
            raise ScenarioError("wake_run_s shorter than one sample period")
        if self.wake_run_s / self.sample_period_s > _MAX_SAMPLES_PER_WAKE:
            raise ScenarioError(
                "wake_run_s / sample_period_s must not exceed "
                f"{_MAX_SAMPLES_PER_WAKE:,} samples per wake"
            )
        if not 0 <= self.start_week < WEEK_COUNT:
            raise ScenarioError(f"start_week must be in 0..{WEEK_COUNT - 1}")
        if not 0 <= self.start_tow_s < WEEK_S:
            raise ScenarioError("start_tow_s must lie within one week")
        low, high = _USER_RADIUS_M
        if not low <= math.hypot(*self.user_pos_ecef) <= high:
            raise ScenarioError(
                "user_pos_ecef must lie 0.5 to 2 Earth radii from the Earth's centre"
            )
        if math.hypot(*self.user_vel_ecef) > _MAX_SPEED_M_S:
            raise ScenarioError(f"user_vel_ecef must not exceed {_MAX_SPEED_M_S:g} m/s")
        if self.satellites is None and not 4 <= self.n_sats <= 32:
            raise ScenarioError("n_sats must be in 4..32")
        if self.satellites is not None and len(
            {e.sat_id for e in self.satellites}
        ) != len(self.satellites):
            raise ScenarioError("satellites repeat a sat_id")


@dataclass(frozen=True)
class Sample:
    t_s: float
    fix_valid: bool
    err_east_m: float
    err_north_m: float
    err_2d_m: float


@dataclass(frozen=True)
class FixRecord:
    t_since_wake_s: float
    err_east_m: float
    err_north_m: float
    err_2d_m: float
    b_u_m: float
    iterations: int
    converged: bool


@dataclass
class ArmReport:
    arm: str
    time_to_first_fix_s: float
    samples: list[Sample]
    fixes: list[FixRecord]
    rms_2d_m: float
    power_ratio: float
    used_estimate: bool
    hotstart_delay_s: float | None = None


@dataclass
class RunReport:
    arms: dict[str, ArmReport]
    diagnostics: dict[str, float] = field(default_factory=dict)


def power_savings_ratio(off_duration_s: float, on_duration_s: float) -> float:
    """Duty-cycle power fraction: on time over total cycle time."""
    if on_duration_s <= 0:
        raise ValueError("on_duration_s must be positive")
    if off_duration_s < 0:
        raise ValueError("off_duration_s must be non-negative")
    return on_duration_s / (on_duration_s + off_duration_s)


@dataclass
class _Chan:
    eph_true: cst.EphemerisRecord
    eph_rx: cst.EphemerisRecord | None = None
    lock: rcv.LockState = field(default_factory=rcv.LockState)


@dataclass
class _State:
    """Everything that evolves during a session (cloned per wake arm).

    Channels are rows in sat_id order, the order of _Engine.sats; anchor
    is the row of the clock-offset anchor.
    """

    clock: ReceiverClockState
    t_rel: float
    chans: list[_Chan]
    rco: object | None = None
    anchor: int | None = None
    rx_orbits: cst.Orbits | None = None
    last_known: np.ndarray | None = None
    fixes: list[FixRecord] = field(default_factory=list)
    truth: _Truth | None = None
    # Time (relative seconds) of the latest fix.
    fix_t: float | None = None
    # Frame labels are shifted by this much: an estimate's bit error.
    label_shift_s: float = 0.0
    # By the labeled rows (as bytes) above the mask at a fix: their rows of
    # rx_orbits, and the anchor's position among them. The anchor is set
    # before a state's first fix.
    selections: dict[bytes, tuple[cst.Orbits, int | None]] = field(default_factory=dict)
    # Per channel row: frame-labeled yet, and the one-way delay the
    # receiver assumes (flat until a fix solves it).
    labeled: np.ndarray = field(init=False)
    assumed_delay_s: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.labeled = np.zeros(len(self.chans), bool)
        self.assumed_delay_s = np.full(len(self.chans), DEFAULT_PROPAGATION_DELAY_S)


@dataclass(frozen=True)
class _Truth:
    """Truth at receive times (rows) for every true satellite (columns).

    Each row is bitwise equal to the same quantities computed at that one
    time. Stale cells hold values outside the validity window; a fix that
    selects one raises instead of reading it.
    """

    rows: dict[float, int]  # receive time (relative seconds) -> row
    user: np.ndarray  # (m, 3) true user position
    elevation: np.ndarray  # (m, n) rad
    tx: np.ndarray  # (m, n) true transmit time, relative seconds
    stale_rx: np.ndarray  # (m, n) ephemeris stale at the receive time
    stale_tx: np.ndarray  # (m, n) stale at some light-time iterate


# Rows of truth a wake evaluates at once: bounds the table's memory.
_TRUTH_ROWS = 1024

# Order of events queued for the same instant: lock stages first, samples
# last, so a sample taken at a fix epoch already sees that fix.
_PRIORITY = {"lock": 0, "label": 1, "ephemeris": 1, "fix": 2, "sample": 3, "off": 3}


class _Engine:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.t0_gps = GpsTime(config.start_week, config.start_tow_s)
        self.t0_abs = self.t0_gps.total_seconds()
        self.user0 = np.array(config.user_pos_ecef, float)
        self.user_vel = np.array(config.user_vel_ecef, float)
        if config.satellites is not None:
            self.sats = sorted(config.satellites, key=lambda e: e.sat_id)
        else:
            self.sats = cst.default_constellation(
                self.user0, self.t0_abs, config.n_sats
            )
        if len(self.sats) < 4:
            raise ScenarioError("need at least 4 satellites")
        # Rows follow sorted(sat_id), the order of _State.chans.
        self.orbits = cst.Orbits.of(self.sats)
        self._mask = math.radians(config.min_elevation_deg)
        self._check_geometry(0.0)
        self.diagnostics: dict[str, float] = {}
        self._queue: list[tuple[float, int, int, str, object]] = []
        self._seq = itertools.count()
        self._draws: dict[int, np.ndarray] = {}  # noise by epoch key

    # --- truth helpers ----------------------------------------------------

    def user_pos(self, t_rel: float) -> np.ndarray:
        return self.user0 + self.user_vel * t_rel

    def tx_rel(self, eph: cst.EphemerisRecord, t_rel: float) -> float:
        """Transmit time (relative seconds) of one satellite's signal received
        at t_rel, bitwise equal to the one _truth gives."""
        user = self.user_pos(t_rel)
        t_tx = t_rel - DEFAULT_PROPAGATION_DELAY_S
        for _ in range(3):
            d = np.subtract(cst.position(eph, self.t0_abs + t_tx), user)
            # d.dot(d) is bitwise equal to _truth's np.vecdot(d, d);
            # x*x + y*y + z*z is not (it differs in about a fifth of inputs).
            t_tx = t_rel - math.sqrt(d.dot(d)) / SPEED_OF_LIGHT_M_S
        return t_tx

    def rx_time(self, eph: cst.EphemerisRecord, s_rel: float) -> float:
        """True receive time (relative seconds) of the signal one satellite
        sends at s_rel. A user at up to 1000 m/s shrinks the error about
        3e-6-fold a pass, so three passes reach float noise."""
        sat = cst.position(eph, self.t0_abs + s_rel)
        t = s_rel + DEFAULT_PROPAGATION_DELAY_S
        for _ in range(3):
            d = np.subtract(sat, self.user_pos(t))
            t = s_rel + math.sqrt(d.dot(d)) / SPEED_OF_LIGHT_M_S
        return t

    def _truth(self, times: list[float]) -> _Truth:
        """Truth for every satellite at each receive time, in one array pass."""
        t = np.array(times)[:, None]
        user = self.user_pos(t)
        user_b = user[:, None, :]
        pos, stale_rx = self.orbits.evaluate(self.t0_abs + t)
        elevation = cst.elevation_angle(pos, user_b)
        stale_tx = np.zeros_like(stale_rx)
        t_tx = t - DEFAULT_PROPAGATION_DELAY_S
        for _ in range(3):
            pos, stale = self.orbits.evaluate(self.t0_abs + t_tx)
            stale_tx |= stale
            d = pos - user_b
            t_tx = t - np.sqrt(np.vecdot(d, d)) / SPEED_OF_LIGHT_M_S
        rows = {v: i for i, v in enumerate(times)}
        return _Truth(rows, user, elevation, t_tx, stale_rx, stale_tx)

    def _check_fresh(self, stale: np.ndarray, idx: np.ndarray, t_rel: float) -> None:
        """Raise for the first satellite of idx whose truth cell is stale."""
        bad = idx[stale[idx]]
        if len(bad):
            raise self.orbits.stale_error(self.t0_abs + t_rel, bad[0])

    def decomp(self, s_rel: float) -> tuple[int, int, int, int, float]:
        """(subframe_index, tow, word, bit, bit_fraction) of a signal time."""
        s_week = self.config.start_tow_s + s_rel
        k = int(s_week // SUBFRAME_S)
        within = s_week - k * SUBFRAME_S
        word = int(within // WORD_S)
        in_word = within - word * WORD_S
        bit = int(in_word // BIT_S)
        frac = (in_word - bit * BIT_S) / BIT_S
        return k, (k + 1) % TOW_COUNT, word + 1, min(bit, 29), min(frac, 1.0 - 1e-12)

    def _check_geometry(self, t_rel: float) -> None:
        user = self.user_pos(t_rel)
        try:
            sats = self.orbits.positions(self.t0_abs + t_rel)
        except cst.StaleEphemerisError as exc:
            raise _expired(exc, t_rel) from exc
        up = sats[cst.elevation_angle(sats, user) >= self._mask]
        if len(up) < 4:
            raise ScenarioError(
                f"only {len(up)} satellites visible at t={t_rel:.0f} s"
            )
        jac = pvt.design_matrix(user, up)
        if np.linalg.cond(jac) > pvt.CONDITION_CAP:
            raise ScenarioError("degenerate satellite geometry")

    # --- time bookkeeping ---------------------------------------------------

    def _scale(self) -> float:
        return 1.0 + self.config.rtc_ppm * 1e-6

    def t_of_r(self, r: float) -> float:
        """True time at which receiver elapsed time reaches r."""
        return r / self._scale()

    def advance_to_t(self, st: _State, t_rel: float) -> None:
        dt = t_rel - st.t_rel
        if dt < -1e-9:
            raise ScenarioError("event scheduled in the past")
        if dt > 0:
            st.clock.advance(dt)
            st.t_rel += dt

    # --- event scheduling -----------------------------------------------------

    def _push(self, t_rel: float, kind: str, data: object = None) -> None:
        heapq.heappush(
            self._queue, (t_rel, _PRIORITY[kind], next(self._seq), kind, data)
        )

    def _run(self, st: _State, handlers: dict[str, Callable[[object], None]]) -> None:
        """Dispatch queued events by kind in time order until none is left."""
        try:
            while self._queue:
                t_rel, _, _, kind, data = heapq.heappop(self._queue)
                self.advance_to_t(st, t_rel)
                handlers[kind](data)
        except cst.StaleEphemerisError as exc:
            raise _expired(exc, st.t_rel) from exc
        except pvt.GeometryError as exc:
            raise ScenarioError(
                f"unusable geometry in the fix at t={st.t_rel:.3f} s: {exc}"
            ) from exc

    def _queue_locks(self, st: _State) -> float:
        """Queue code, carrier and bit lock from now; returns the bit-lock time."""
        cfg = self.config
        r = st.clock.elapsed_rx_s
        for stage, latency in (
            ("code", cfg.code_s),
            ("carrier", cfg.carrier_s),
            ("bit", cfg.bit_s),
        ):
            r += latency
            self._push(self.t_of_r(r), "lock", stage)
        return r

    def _step_locks(self, st: _State, stage: str) -> None:
        for ch in st.chans:
            ch.lock = ch.lock.step(rcv.LockEvent(stage, st.clock.elapsed_rx_s))

    def _queue_labels(self, st: _State, r_bit: float) -> float:
        """Queue each channel's preamble label one decode wait after r_bit.

        Returns the fourth-shortest wait, the one that gates the first fix.
        """
        delays = []
        truth = self._truth([st.t_rel])
        self._check_fresh(truth.stale_tx[0], np.arange(len(self.sats)), st.t_rel)
        for row, s in enumerate(truth.tx[0].tolist()):
            _, _, word, bit, _ = self.decomp(s)
            delays.append(rcv.hotstart_frame_lock_delay(word, bit))
            self._push(self.t_of_r(r_bit + delays[-1]), "label", row)
        return sorted(delays)[3]

    def _label(self, st: _State, row: int) -> int:
        """Frame-lock one channel on its preamble; returns how many are labeled.

        The first channel labeled becomes the clock-offset anchor.
        """
        ch = st.chans[row]
        ch.lock = ch.lock.step(rcv.LockEvent("preamble", st.clock.elapsed_rx_s))
        st.labeled[row] = True
        n = int(np.count_nonzero(st.labeled))
        if n == 1:
            st.anchor = row
        return n

    # --- measurement and fixes ---------------------------------------------

    def _noise(self, st: _State, n: int) -> np.ndarray:
        sigma = self.config.noise_sigma_m
        if sigma == 0:
            return np.zeros(n)
        key = int(round(st.clock.elapsed_rx_s * 1000.0))
        # Both arms draw the same key at every shared grid epoch; the first
        # n normals of a longer draw are the n-normal draw.
        draws = self._draws.get(key)
        if draws is None:
            rng = np.random.default_rng((self.config.seed, key))
            draws = self._draws[key] = rng.normal(0.0, sigma, len(self.sats))
        return draws[:n]

    def _refine_rco(self, st: _State, s_bel: float | None = None) -> None:
        """Recompute the clock offset from the anchor channel's counters.

        s_bel is the anchor's believed transmit time now, if already known.
        """
        if s_bel is None:
            s_bel = self.tx_rel(st.chans[st.anchor].eph_true, st.t_rel) + st.label_shift_s
        k, tow, word, bit, frac = self.decomp(s_bel)
        within = (word - 1) * WORD_S + bit * BIT_S + code_time_at_tic(frac)
        sync_tic = st.clock.tic_value + (SUBFRAME_S - within) / TIC_S
        st.rco = compute_rco(
            st.clock.zt,
            # tow is k + 1 wrapped at the week end; count the wraps as weeks.
            self.config.start_week + (k + 1) // TOW_COUNT,
            sync_tic,
            tow,
            propagation_delay_s=float(st.assumed_delay_s[st.anchor]),
        )

    def rco_error_s(self, st: _State) -> float:
        """Believed minus true clock offset, precise to float noise."""
        true_offset = (
            st.clock.zt.diff(self.t0_gps) + st.clock.elapsed_rx_s - st.t_rel
        )
        return st.rco.week * WEEK_S + st.rco.second - true_offset

    def _fix(self, st: _State, t_since_wake: float) -> FixRecord:
        """Solve one fix now; the session's first uses the flat assumed delay."""
        t = st.t_rel
        receive_gps = to_gps_time(st.clock.receiver_time(), st.rco)
        r_rel = receive_gps.diff(self.t0_gps)

        # A wake tabulates its truth at the first fix; a fix off that grid
        # (advance_to_t can land an ulp away) gets a one-row table.
        truth, row = st.truth, None
        if truth is not None:
            row = truth.rows.get(t)
        if row is None:
            truth, row = self._truth([t]), 0

        # Labeled channels, then those of them above the mask; every channel
        # has its ephemeris by the first fix, so st.rx_orbits covers them all.
        idx = st.labeled.nonzero()[0]
        self._check_fresh(truth.stale_rx[row], idx, t)
        idx = idx[truth.elevation[row, idx] >= self._mask]
        if len(idx) < 4:
            raise ScenarioError("fewer than 4 usable channels at a fix epoch")
        self._check_fresh(truth.stale_tx[row], idx, t)
        selection = st.selections.get(key := idx.tobytes())
        if selection is None:
            anchor = np.flatnonzero(idx == st.anchor)
            selection = st.selections[key] = (
                st.rx_orbits[idx],
                int(anchor[0]) if len(anchor) else None,
            )
        rx_orbits, anchor = selection

        believed_tx = truth.tx[row, idx] + st.label_shift_s
        rho = SPEED_OF_LIGHT_M_S * (r_rel - believed_tx) + self._noise(st, len(idx))
        # Row 0: where the receiver puts each satellite for the solve, its
        # assumed delay before the receive time. Row 1: at the believed
        # transmit time, for the new assumed delays.
        times = np.empty((2, len(idx)))
        times[0] = r_rel - st.assumed_delay_s[idx]
        times[1] = believed_tx
        sat_pos = rx_orbits.positions(self.t0_abs + times)

        sol = pvt.solve(rho, sat_pos[0], st.last_known)
        st.last_known = position = sol.position

        d = sat_pos[1] - position
        st.assumed_delay_s[idx] = np.sqrt(np.vecdot(d, d)) / SPEED_OF_LIGHT_M_S
        self._refine_rco(st, None if anchor is None else float(believed_tx[anchor]))

        e, n, _ = pvt.enu_errors(position, truth.user[row])
        rec = FixRecord(
            t_since_wake,
            e,
            n,
            math.hypot(e, n),
            sol.b_u,
            sol.iterations,
            sol.converged,
        )
        st.fixes.append(rec)
        st.fix_t = t
        return rec

    # --- session one --------------------------------------------------------

    def run_session_one(self) -> tuple[_State, fs.PersistedSnapshot]:
        cfg = self.config
        zt = GpsTime(cfg.start_week, cfg.start_tow_s + cfg.clock_bias_s)
        st = _State(
            clock=ReceiverClockState(
                zt,
                rtc_nominal_hz=cfg.rtc_nominal_hz,
                rtc_ppm_error=cfg.rtc_ppm,
                clock_bias_s=cfg.clock_bias_s,
            ),
            t_rel=0.0,
            chans=[_Chan(e) for e in self.sats],
        )
        r_bit = self._queue_locks(st)
        off_r = 0.0
        snapshot: fs.PersistedSnapshot | None = None
        rco_errors: list[float] = []

        def lock(stage: str) -> None:
            self._step_locks(st, stage)
            if stage == "bit":
                self._queue_labels(st, r_bit)

        def label(row: int) -> None:
            if self._label(st, row) == 1:
                self._refine_rco(st)
                self.diagnostics["s1_rco_first_err_s"] = self.rco_error_s(st)
            t, subframes = self._ephemeris_subframes(st.chans[row].eph_true, st.t_rel)
            self._push(t, "ephemeris", (row, subframes))

        def ephemeris(data: tuple[int, list[int]]) -> None:
            row, subframes = data
            self._deliver_ephemeris(st.chans[row], subframes)
            if all(c.eph_rx is not None for c in st.chans):
                # One event per channel, so this runs once: at the last.
                st.rx_orbits = cst.Orbits.of([c.eph_rx for c in st.chans])
                self._push(self.t_of_r(math.floor(st.clock.elapsed_rx_s) + 1.0), "fix")

        def fix(_: object) -> None:
            nonlocal off_r
            first = not st.fixes
            self._fix(st, -1.0)
            rco_errors.append(self.rco_error_s(st))
            r_now = st.clock.elapsed_rx_s
            if first:
                off_r = r_now + cfg.session1_extra_s
                self._push(self.t_of_r(off_r), "off")
            if r_now + 1.0 < off_r - 1e-9:
                self._push(self.t_of_r(r_now + 1.0), "fix")

        def off(_: object) -> None:
            nonlocal snapshot
            snapshot = self._take_snapshot(st)

        self._run(
            st,
            {"lock": lock, "label": label, "ephemeris": ephemeris, "fix": fix, "off": off},
        )
        if snapshot is None:
            raise ScenarioError("session one never reached a snapshot")
        self.diagnostics["s1_rco_refined_err_s"] = self.rco_error_s(st)
        if len(rco_errors) >= 2:
            self.diagnostics["s1_rco_jitter_s"] = max(rco_errors) - min(rco_errors)
        return st, snapshot

    def _ephemeris_subframes(
        self, eph: cst.EphemerisRecord, t_rel: float
    ) -> tuple[float, list[int]]:
        """Indices of the subframes 1-3 a channel labeled at t_rel hears next
        in full, and the true time at which the last of them ends. Subframe
        k, counted from the start of week start_week, has ID k % 5 + 1. The
        one in progress at t_rel is heard only in part, so the first heard
        whole is b - 1 (the bias counts a label just before a boundary as on
        it), and IDs 1-3 all fall in b - 1 ... b + 3."""
        start = self.config.start_tow_s
        b = int((start + self.tx_rel(eph, t_rel) + 1e-6) // SUBFRAME_S) + 2
        ks = [k for k in range(b - 1, b + 4) if k % 5 < cst.EPHEMERIS_SUBFRAMES]
        return self.rx_time(eph, (ks[-1] + 1) * SUBFRAME_S - start), ks

    def _deliver_ephemeris(self, ch: _Chan, subframes: list[int]) -> None:
        """Generate, encode, decode and ingest the channel's subframes 1-3,
        given by index as _ephemeris_subframes returns them."""
        sat_id = ch.eph_true.sat_id
        packed = cst.pack_ephemeris(ch.eph_true)
        payloads = [b""] * cst.EPHEMERIS_SUBFRAMES
        for k in subframes:
            # The TOW count wraps at the week end; count the wraps as weeks.
            week = self.config.start_week + (k + 1) // TOW_COUNT
            if week >= WEEK_COUNT:
                raise ScenarioError(
                    f"start_week {self.config.start_week}: session one reaches week "
                    f"{week}, past the 13-bit week number"
                )
            sfid = k % 5 + 1
            sf = nav.build_subframe(sat_id, sfid, (k + 1) % TOW_COUNT, week, packed[k % 5])
            decoded = nav.decode_subframe(nav.subframe_bits(sf))
            payloads[decoded.subframe_id - 1] = decoded.payload
        ch.eph_rx = cst.unpack_ephemeris(decoded.sat_id, tuple(payloads))

    def _take_snapshot(self, st: _State) -> fs.PersistedSnapshot:
        ch = st.chans[st.anchor]
        t = st.t_rel
        s = self.tx_rel(ch.eph_true, t) + st.label_shift_s
        _, tow, word, bit, frac = self.decomp(s)
        cursor = nav.BitstreamCursor(word, bit, tow)
        # Latch the RTC count at the edge of the bit in progress so the
        # stored counter pair is coherent; the fraction since that edge
        # would otherwise bias every estimate by up to one bit.
        edge_rx_s = st.clock.elapsed_rx_s - frac * BIT_S * self._scale()
        rtc_edge = int(math.floor(edge_rx_s * self.config.rtc_nominal_hz + 1e-9))
        sat = cst.propagate(ch.eph_true, self.t0_abs + s)
        tracking = fs.TrackingStatus(
            bit_locked=True,
            carrier_doppler_hz=cst.carrier_doppler(
                sat, self.user_pos(t), self.user_vel
            ),
            code_phase_chips=cst.code_phase_chips(self.config.start_tow_s + s),
            have_fix=st.last_known is not None,
        )
        eph_ids = tuple(
            (c.eph_rx.sat_id, c.eph_rx.epoch)
            for c in st.chans
            if c.eph_rx is not None
        )
        snapshot = fs.take_snapshot(cursor, tracking, st.rco, eph_ids, rtc_count=rtc_edge)
        if self.config.snapshot_path:
            fs.save_snapshot(snapshot, self.config.snapshot_path)
        return snapshot

    # --- wake sessions --------------------------------------------------------

    def run_wake(
        self, base: _State, snapshot: fs.PersistedSnapshot, arm: str
    ) -> ArmReport:
        cfg = self.config
        st = _State(
            clock=copy.deepcopy(base.clock),
            t_rel=base.t_rel,
            chans=[_Chan(c.eph_true, c.eph_rx) for c in base.chans],
            rco=snapshot.rco,
            anchor=base.anchor,
            rx_orbits=base.rx_orbits,
            last_known=None if base.last_known is None else base.last_known.copy(),
        )
        self._check_geometry(st.t_rel)

        r_wake = st.clock.elapsed_rx_s
        self._queue_locks(st)
        n_samples = int(round(cfg.wake_run_s / cfg.sample_period_s))
        grid = [self.t_of_r(r_wake + k * cfg.sample_period_s) for k in range(n_samples + 1)]
        for k, t in enumerate(grid):
            self._push(t, "sample", k)

        used_estimate = False
        label_shift_bits = 0
        hotstart_delay: float | None = None
        samples: list[Sample] = []
        ttff: float | None = None

        def lock(stage: str) -> None:
            nonlocal used_estimate, label_shift_bits, hotstart_delay
            self._step_locks(st, stage)
            if stage != "bit":
                return
            r_now = st.clock.elapsed_rx_s
            if arm == ARM_ESTIMATOR:
                snap = self._load_snapshot_maybe(snapshot)
                if snap is not None:
                    used_estimate, label_shift_bits = self._try_estimate(st, snap)
            if used_estimate:
                self._push(self.t_of_r(r_now + cfg.estimator_epsilon_s), "fix")
            else:
                hotstart_delay = self._queue_labels(st, r_now)

        def label(sid: int) -> None:
            if self._label(st, sid) == 4:
                self._refine_rco(st)
                self._push(st.t_rel, "fix")

        def fix(k: int | None) -> None:
            nonlocal ttff
            t_since = st.clock.elapsed_rx_s - r_wake
            if not st.fixes:
                # The first fix lands off the sample grid; later ones follow it.
                # Past the last sample no sample sees it: the wake has failed.
                if st.t_rel > grid[-1]:
                    return
                ttff = t_since
                k = math.floor(t_since / cfg.sample_period_s)
                later = grid[k + 1 : k + _TRUTH_ROWS]
                st.truth = self._truth([st.t_rel] + later)
            elif grid[k] not in st.truth.rows:
                st.truth = self._truth(grid[k : k + _TRUTH_ROWS])
            self._fix(st, t_since)
            if k + 1 <= n_samples:
                self._push(grid[k + 1], "fix", k + 1)

        def sample(k: int) -> None:
            if st.fix_t == st.t_rel:
                # A fix at this instant computed the same errors.
                e, n = st.fixes[-1].err_east_m, st.fixes[-1].err_north_m
            elif st.last_known is not None:
                e, n, _ = pvt.enu_errors(st.last_known, self.user_pos(st.t_rel))
            else:
                e = n = float("nan")
            samples.append(
                Sample(
                    k * cfg.sample_period_s,
                    bool(st.fixes),
                    e,
                    n,
                    math.hypot(e, n),
                )
            )

        self._run(st, {"lock": lock, "label": label, "fix": fix, "sample": sample})
        # The first fix may land after the last sample; then no sample saw it.
        valid_errors = [s.err_2d_m for s in samples if s.fix_valid]
        if not valid_errors:
            raise ScenarioError("wake session produced no fix inside wake_run_s")
        report = ArmReport(
            arm=arm,
            time_to_first_fix_s=ttff,
            samples=samples,
            fixes=st.fixes,
            rms_2d_m=pvt.rms_2d(valid_errors),
            power_ratio=power_savings_ratio(
                cfg.off_duration_s, ttff + cfg.sample_period_s
            ),
            used_estimate=used_estimate,
            hotstart_delay_s=hotstart_delay,
        )
        self.diagnostics[f"{arm}_label_shift_bits"] = float(label_shift_bits)
        self.diagnostics[f"{arm}_used_estimate"] = float(used_estimate)
        self.diagnostics[f"{arm}_rco_refined_err_s"] = self.rco_error_s(st)
        return report

    def _load_snapshot_maybe(
        self, in_memory: fs.PersistedSnapshot
    ) -> fs.PersistedSnapshot | None:
        """Reload the snapshot from disk when persistence is configured."""
        if not self.config.snapshot_path:
            return in_memory
        try:
            return fs.load_snapshot(self.config.snapshot_path)
        except (fs.SnapshotFormatError, OSError):
            return None

    def _try_estimate(
        self, st: _State, snap: fs.PersistedSnapshot
    ) -> tuple[bool, int]:
        """Run the acceptance gate and, if it passes, label every channel."""
        cfg = self.config
        rtc_now = st.clock.rtc_count
        # A stored count ahead of the RTC cannot come from this sleep.
        if rtc_now < snap.rtc_count:
            return False, 0
        elapsed_ms = fs.elapsed_ms_from_rtc(rtc_now, snap.rtc_count, cfg.rtc_nominal_hz)
        budget = fs.drift_budget(cfg.rtc_ppm, cfg.bit_margin_ms)
        if elapsed_ms > budget:
            return False, 0
        # Ephemeris age at the time the snapshot makes the receiver believe.
        believed = to_gps_time(st.clock.receiver_time(), snap.rco)
        t_abs_now = believed.total_seconds()
        for ch in st.chans:
            eph = ch.eph_rx
            if eph is None or abs(t_abs_now - eph.epoch) > eph.validity:
                return False, 0

        est = fs.estimate_frame_state(
            snap,
            rtc_now,
            cfg.rtc_nominal_hz,
            mode=cfg.estimation_mode,
            current_tic=st.clock.tic_value,
        )
        est_week_s = (
            (est.tow - 1) % TOW_COUNT * SUBFRAME_S
            + (est.word_index - 1) * WORD_S
            + est.bit_index * BIT_S
            + est.residual_ms / 1000.0
        )
        anchor = st.chans[st.anchor]
        true_week_s = self.config.start_tow_s + self.tx_rel(anchor.eph_true, st.t_rel)
        # est_week_s wraps at the week end and true_week_s does not.
        err_s = est_week_s - true_week_s
        err_s -= WEEK_S * round(err_s / WEEK_S)
        n_err = round(err_s / BIT_S)
        shift = n_err * BIT_S
        r_now = st.clock.elapsed_rx_s
        for ch in st.chans:
            ch.lock = ch.lock.step(rcv.LockEvent("estimate", r_now))
        st.labeled[:] = True
        st.label_shift_s = shift
        # The estimate stands in for a decoded handover word, so the clock
        # offset is rebuilt from its sync TIC with the flat assumed delay.
        # Its tow belongs to the week that puts it nearest the believed time.
        week = believed.week + round(
            (believed.second - est.tow * SUBFRAME_S) / WEEK_S
        )
        st.rco = compute_rco(st.clock.zt, week, est.sync_tic, est.tow)
        return True, n_err


def run_scenario(config: ScenarioConfig) -> RunReport:
    """Run session one, the power-off, and the configured wake arms."""
    engine = _Engine(config)
    base, snapshot = engine.run_session_one()
    if config.off_duration_s > 0:
        base.clock.advance(config.off_duration_s)
        base.t_rel += config.off_duration_s

    arms = (
        (ARM_ESTIMATOR, ARM_HOTSTART)
        if config.arms == "both"
        else (config.arms,)
    )
    report = RunReport(arms={})
    for arm in arms:
        report.arms[arm] = engine.run_wake(base, snapshot, arm)
    report.diagnostics = dict(engine.diagnostics)
    return report


# --- scenario text format ----------------------------------------------------
# Line-oriented key/value text with [section] headers. '#' starts a comment.
# Sections and keys:
#   [scenario] seed, arms, off_duration_s, noise_sigma_m, wake_run_s,
#              sample_period_s, session1_extra_s, estimator_epsilon_s,
#              snapshot_path, start_week, start_tow_s
#   [user]    pos_ecef_m = x y z ; vel_ecef_mps = x y z
#   [clock]   rtc_nominal_hz, rtc_ppm, clock_bias_s, bit_margin_ms
#   [locks]   code_s, carrier_s, bit_s
#   [constellation] count = n  (default constellation)
#                   sat = id incl_deg raan_deg phase_deg [radius_m [validity_s]]
# 'sat' may repeat; explicit satellites override 'count'.

_SCALAR_KEYS = {
    ("scenario", "seed"): ("seed", int),
    ("scenario", "arms"): ("arms", str),
    ("scenario", "off_duration_s"): ("off_duration_s", float),
    ("scenario", "noise_sigma_m"): ("noise_sigma_m", float),
    ("scenario", "wake_run_s"): ("wake_run_s", float),
    ("scenario", "sample_period_s"): ("sample_period_s", float),
    ("scenario", "session1_extra_s"): ("session1_extra_s", float),
    ("scenario", "estimator_epsilon_s"): ("estimator_epsilon_s", float),
    ("scenario", "snapshot_path"): ("snapshot_path", str),
    ("scenario", "start_week"): ("start_week", int),
    ("scenario", "start_tow_s"): ("start_tow_s", float),
    ("scenario", "min_elevation_deg"): ("min_elevation_deg", float),
    ("clock", "rtc_nominal_hz"): ("rtc_nominal_hz", float),
    ("clock", "rtc_ppm"): ("rtc_ppm", float),
    ("clock", "clock_bias_s"): ("clock_bias_s", float),
    ("clock", "bit_margin_ms"): ("bit_margin_ms", float),
    ("locks", "code_s"): ("code_s", float),
    ("locks", "carrier_s"): ("carrier_s", float),
    ("locks", "bit_s"): ("bit_s", float),
    ("constellation", "count"): ("n_sats", int),
}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the scenario text format into a validated ScenarioConfig."""
    fields: dict[str, object] = {}
    sats: list[tuple[int, list[float]]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("scenario", "user", "clock", "locks", "constellation"):
                raise ScenarioError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        if section is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if section == "user" and key in ("pos_ecef_m", "vel_ecef_mps"):
                vec = tuple(float(v) for v in value.split())
                if len(vec) != 3:
                    raise ValueError("expected 3 components")
                fields["user_pos_ecef" if key == "pos_ecef_m" else "user_vel_ecef"] = vec
            elif section == "constellation" and key == "sat":
                parts = [float(v) for v in value.split()]
                if not 4 <= len(parts) <= 6:
                    raise ValueError("expected: id incl raan phase [radius [validity]]")
                sats.append((lineno, parts))
            elif (section, key) in _SCALAR_KEYS:
                name, conv = _SCALAR_KEYS[(section, key)]
                fields[name] = conv(value)
            else:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{section}]")
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from exc

    config = ScenarioConfig(**fields)  # type: ignore[arg-type]
    if sats:
        # The records' epoch is the start time, so check that first.
        replace(config, satellites=()).validate()
        t0 = GpsTime(config.start_week, config.start_tow_s).total_seconds()
        records = []
        for lineno, p in sats:
            try:
                records.append(
                    cst.EphemerisRecord(
                        int(p[0]),
                        math.radians(p[1]),
                        math.radians(p[2]),
                        phase_at_epoch=math.radians(p[3]),
                        epoch=t0,
                        orbit_radius=p[4] if len(p) > 4 else cst.GPS_ORBIT_RADIUS_M,
                        validity=p[5] if len(p) > 5 else cst.DEFAULT_VALIDITY_S,
                    )
                )
            except (ValueError, OverflowError) as exc:
                raise ScenarioError(f"line {lineno}: sat: {exc}") from exc
        config = replace(config, satellites=tuple(records))
    config.validate()
    return config


def read_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# --- report export -----------------------------------------------------------

CSV_HEADER = "t_s,arm,fix_valid,err_east_m,err_north_m,err_2d_m"


def render_report_csv(report: RunReport) -> str:
    """CSV text: sample rows, then '#'-prefixed per-arm summary lines."""
    lines = [CSV_HEADER]
    for arm in sorted(report.arms):
        for s in report.arms[arm].samples:
            lines.append(
                f"{s.t_s:.3f},{arm},{int(s.fix_valid)},"
                f"{s.err_east_m:.6f},{s.err_north_m:.6f},{s.err_2d_m:.6f}"
            )
    for arm in sorted(report.arms):
        a = report.arms[arm]
        lines.append(
            f"# arm={arm} time_to_first_fix_s={a.time_to_first_fix_s:.3f} "
            f"rms_2d_m={a.rms_2d_m:.6f} power_ratio={a.power_ratio:.9f} "
            f"used_estimate={int(a.used_estimate)}"
        )
    return "\n".join(lines) + "\n"


def export_report(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report_csv(report))
