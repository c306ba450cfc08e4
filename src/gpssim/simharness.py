"""Scenario-driven closed-loop simulation of sleep/wake positioning.

A scenario runs one receiver through session one (acquisition, ephemeris
collection, a position fix, a snapshot), a power-off interval, then a wake
in one or both arms:

* estimator arm: frame sync predicted from elapsed RTC counts; a fix is
  available one processing epsilon after bit lock.
* hotstart arm: frame sync waits for a real preamble plus handover word.

Both arms share the same truth, the same receiver clock errors, and the
same measurement noise, each value a function of the seed, the fix epoch
and the satellite alone, so their outputs differ only through the
frame-sync path. The simulation is fully deterministic for a given
scenario and seed.

Both sessions are plain sequences of shared steps: lock stages, decoded
frame labels, then fixes, each after the labels due by then. Session one
decodes each channel's ephemeris subframes at its label (their indices say
which), fixes at 1 Hz once the last has ended, and takes the snapshot. A
wake labels by the estimate gate or the decode waits, fixes first and then
at each later sample instant, and builds its samples. The receiver clock
is read at each instant from zero time (_Engine.clock_at), so its bits
depend only on the instant, and each session knows every fix time first.
A session's instants (lock stages, decode-wait labels, the estimator's
epsilon, fixes, samples) are whole nanoseconds of receiver time since its
start, Python ints, so which of two comes first is decided on integers;
only _Engine.true_time turns one into a time.

All internal times are seconds relative to the scenario start; week-scale
absolute floats would quantize transmit times to about 7.45 ns (2.2 m) at
week 100, and more coarsely in later weeks. The receive epoch of a fix is
common to every channel, so its coarser precision is absorbed by the
clock-bias unknown.
"""
from __future__ import annotations

import contextlib
import math
import operator
from collections.abc import Iterator
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


@contextlib.contextmanager
def _simulating(st: _State):
    """Raise a stale decoded ephemeris or unusable fix geometry met while
    simulating a session as a ScenarioError at the session's time; the
    StaleEphemerisError names the satellite and the offset from its epoch."""
    try:
        yield
    except cst.StaleEphemerisError as exc:
        raise ScenarioError(f"stale ephemeris while simulating t={st.t_rel:.3f} s: {exc}") from exc
    except pvt.GeometryError as exc:
        raise ScenarioError(
            f"unusable geometry in the fix at t={st.t_rel:.3f} s: {exc}"
        ) from exc


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
# Each wake lists all of its sample instants up front and builds a sample
# at each after its last fix.
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

    def validate(self) -> None:
        numbers = list(vars(self).items())
        numbers += [("user_pos_ecef", v) for v in self.user_pos_ecef]
        numbers += [("user_vel_ecef", v) for v in self.user_vel_ecef]
        for name, value in numbers:
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite")
        for name in ("seed", "start_week", "n_sats"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ScenarioError(f"{name} must be an integer") from None
        for name in ("user_pos_ecef", "user_vel_ecef"):
            if len(getattr(self, name)) != 3:
                raise ScenarioError(f"{name} must have 3 components")
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
        # The estimate reads elapsed time in whole RTC ticks; a tick as long
        # as the margin can shift the predicted bit on its own, and the
        # gate, which budgets drift only, would accept it.
        if 1000.0 / self.rtc_nominal_hz >= self.bit_margin_ms:
            raise ScenarioError(
                "the RTC tick (1000 / rtc_nominal_hz ms) must be shorter than bit_margin_ms"
            )
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
        if not -90 <= self.min_elevation_deg <= 90:
            raise ScenarioError("min_elevation_deg must be in -90..90")
        if self.satellites is None and not 4 <= self.n_sats <= 32:
            raise ScenarioError("n_sats must be in 4..32")
        if self.satellites is not None and len(
            {e.sat_id for e in self.satellites}
        ) != len(self.satellites):
            raise ScenarioError("satellites repeat a sat_id")
        # Instants are whole ns: floats resolve them below ~2.1e6 s; a sample spans 1000+.
        for name in ("off_duration_s", "wake_run_s"):
            if getattr(self, name) > 1e6:
                raise ScenarioError(f"{name} must not exceed 1e+06 s")
        if self.sample_period_s < 1e-6:
            raise ScenarioError("sample_period_s must be at least 1e-06 s")


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
class _State:
    """Everything that evolves during one session. A wake starts a new one
    from session one's end state and leaves that state as it was; its
    fix times, truth and samples stay local to run_wake. It starts at true
    time t_start (0, or the wake time); ns is the instant it has reached,
    t_rel its true time and clock always _Engine.clock_at(t_rel).

    Channels are rows in sat_id order, the order of _Engine.sats; anchor
    is the row of the clock-offset anchor.

    A fix keeps only what it solved (solved); record_fixes turns those
    into FixRecords, with one pvt.enu_errors call on all of their rows. It
    runs as each truth table is done with and whenever fixes is read, so
    the solved fixes that wait for it are those of one table at most.
    """

    t_start: float
    clock: ReceiverClockState
    locks: list[rcv.LockState]
    # Set by session one's first label or an accepted estimate; a wake that
    # decodes its labels leaves it to its first fix.
    rco: object | None = None
    anchor: int | None = None
    rx_orbits: cst.Orbits | None = None
    last_known: np.ndarray | None = None
    # Per fix since record_fixes last ran: (t_since_wake, solved position,
    # true user position, PvtSolution).
    solved: list[tuple] = field(default_factory=list)
    records: list[FixRecord] = field(default_factory=list)
    # Frame labels are shifted by this much: an estimate's bit error.
    label_shift_s: float = 0.0
    # By the labeled rows (as bytes) above the mask at a fix: their rows of
    # rx_orbits.
    selections: dict[bytes, cst.Orbits] = field(default_factory=dict)
    # Session one's s1_* values, or a wake's {arm}_* ones.
    diagnostics: dict[str, float] = field(default_factory=dict)
    # Per channel row: frame-labeled yet, and the one-way delay the
    # receiver assumes (flat until a fix solves it).
    labeled: np.ndarray = field(init=False)
    assumed_delay_s: np.ndarray = field(init=False)
    ns: int = field(default=0, init=False)
    t_rel: float = field(init=False)

    def __post_init__(self) -> None:
        self.t_rel = self.t_start
        self.labeled = np.zeros(len(self.locks), bool)
        self.assumed_delay_s = np.full(len(self.locks), DEFAULT_PROPAGATION_DELAY_S)

    def record_fixes(self) -> None:
        """Turn the fixes solved since the last call into FixRecords."""
        if not self.solved:
            return
        t_since, positions, users, sols = zip(*self.solved)
        east, north, _ = pvt.enu_errors(np.array(positions), np.array(users))
        for t, e, n, sol in zip(t_since, east.tolist(), north.tolist(), sols):
            self.records.append(
                FixRecord(t, e, n, math.hypot(e, n), sol.b_u, sol.iterations, sol.converged)
            )
        self.solved.clear()

    @property
    def fixes(self) -> list[FixRecord]:
        self.record_fixes()
        return self.records


@dataclass(frozen=True)
class _Truth:
    """Truth at receive times (rows) for every true satellite (columns),
    with the pseudorange noise of a fix there, which depends on the time
    and the satellite alone too.

    Each row is bitwise equal to the same quantities computed at that one
    time. The true orbits have no validity window: only the receiver's
    decoded copy goes stale.
    """

    user: np.ndarray  # (m, 3) true user position
    elevation: np.ndarray  # (m, n) rad
    tx: np.ndarray  # (m, n) true transmit time, relative seconds
    noise: np.ndarray  # (m, n) pseudorange noise, metres


@dataclass(frozen=True)
class _Sky:
    """What a session's fixes read of one truth table, tabulated at once:
    per row and channel, the transmit time the receiver believes (the true
    one plus the session's label shift), where its decoded ephemeris puts
    the satellite then and whether that cell is stale, and whether the
    channel is above the mask. Each cell is bitwise equal to the per-fix
    computation."""

    truth: _Truth
    believed_tx: np.ndarray  # (m, n) relative seconds
    believed_pos: np.ndarray  # (m, n, 3)
    believed_stale: np.ndarray  # (m, n)
    visible: np.ndarray  # (m, n)


# Rows of truth a session evaluates at once: bounds the table's memory.
_TRUTH_ROWS = 1024

# SplitMix64's increments (the first two outputs of a stream) and finaliser.
_GAMMAS = np.array([0x9E3779B97F4A7C15, 2 * 0x9E3779B97F4A7C15 % 2**64], np.uint64)[:, None, None]
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, a bijection of uint64 arrays, as a new
    array; the products wrap, which numpy does silently only for arrays."""
    z = z ^ (z >> _S30)
    z *= _MUL1
    z ^= z >> _S27
    z *= _MUL2
    z ^= z >> _S31
    return z


def _standard_normals(words: np.ndarray, keys: np.ndarray, sat_ids: np.ndarray) -> np.ndarray:
    """(m, n) standard normals, cell (i, j) a function of the seed's two
    key words, keys[i] and sat_ids[j] alone: a counter-based draw (Salmon
    et al., SC 2011). keys are float64 integers and enter as their bits,
    which every key has, however large. The cell's hash seeds a SplitMix64
    stream whose first two outputs give two 53-bit uniforms, u1 in (0, 1]
    and u2 in [0, 1), and Box-Muller turns them into one normal."""
    row = _mix64(keys.view(np.uint64) ^ words[0])
    cell = _mix64(row[:, None] ^ _mix64(sat_ids.astype(np.uint64) ^ words[1]))
    bits = (_mix64(cell + _GAMMAS) >> _S11).astype(np.float64)
    u1 = (bits[0] + 1.0) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * np.pi * 2.0**-53) * bits[1])


class _Engine:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.t0_gps = GpsTime(config.start_week, config.start_tow_s)
        # The receiver's zero time: the start time plus its clock bias.
        self.zt = GpsTime(config.start_week, config.start_tow_s + config.clock_bias_s)
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
        # Rows follow sorted(sat_id): the true ephemerides of _State's rows.
        self.orbits = cst.Orbits.of(self.sats)
        self._mask = math.radians(config.min_elevation_deg)
        self._check_geometry(0.0)
        # The measurement noise's key material: two 64-bit words, which any
        # non-negative integer seed gives.
        self._noise_words = np.random.SeedSequence(config.seed).generate_state(2, np.uint64)

    # --- truth helpers ----------------------------------------------------

    def user_pos(self, t_rel: float) -> np.ndarray:
        return self.user0 + self.user_vel * t_rel

    def transmit_times(self, t_rel: float | np.ndarray) -> np.ndarray:
        """True transmit times (relative seconds) of the signals received at
        t_rel, for every satellite. t_rel broadcasts against the satellites
        as Orbits.evaluate's times do: a scalar or one time per satellite
        gives (n,), an (m, 1) column (m, n). Every cell is bitwise equal to
        the same time solved alone."""
        t = np.asarray(t_rel)
        user = self.user_pos(t[..., None])
        t_tx = t - DEFAULT_PROPAGATION_DELAY_S
        for _ in range(3):
            pos, _ = self.orbits.evaluate(self.t0_abs + t_tx)
            d = pos - user
            t_tx = t - np.sqrt(np.vecdot(d, d)) / SPEED_OF_LIGHT_M_S
        return t_tx

    def _truth(self, times: list[float]) -> _Truth:
        """Truth for every satellite at each receive time, in one array pass."""
        t = np.array(times)[:, None]
        user = self.user_pos(t)
        pos, _ = self.orbits.evaluate(self.t0_abs + t)
        elevation = cst.elevation_angle(pos, user[:, None, :])
        sigma = self.config.noise_sigma_m
        if sigma == 0:
            noise = np.zeros(elevation.shape)
        else:
            keys = self.epoch_keys(t[:, 0])
            noise = sigma * _standard_normals(self._noise_words, keys, self.orbits.sat_id)
        return _Truth(user, elevation, self.transmit_times(t), noise)

    def epoch_keys(self, t_rel: np.ndarray) -> np.ndarray:
        """The noise keys of fixes at t_rel: the receiver's elapsed time
        there in whole milliseconds, int(round(clock_at(t).elapsed_rx_s *
        1000)) as float64 integers; a time past float range keys as inf."""
        with np.errstate(over="ignore"):
            return np.rint(t_rel * self._scale() * 1000.0)

    def receive_times(self, s_rel: np.ndarray) -> np.ndarray:
        """True receive times (relative seconds) of the signals the
        satellites send at s_rel, one time per satellite. A user at up to
        1000 m/s shrinks the error about 3e-6-fold a pass, so three passes
        reach float noise."""
        sat, _ = self.orbits.evaluate(self.t0_abs + s_rel)
        t = s_rel + DEFAULT_PROPAGATION_DELAY_S
        for _ in range(3):
            d = sat - self.user_pos(t[:, None])
            t = s_rel + np.sqrt(np.vecdot(d, d)) / SPEED_OF_LIGHT_M_S
        return t

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
        sats, _ = self.orbits.evaluate(self.t0_abs + t_rel)
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

    def true_time(self, st: _State, ns: int | np.ndarray):
        """The true time of the session's instant ns (an int or int array):
        its start plus the time its clock takes to run ns nanoseconds."""
        return st.t_start + ns / 1e9 / self._scale()

    def clock_at(self, t_rel: float) -> ReceiverClockState:
        """The receiver clock at t_rel, advanced from zero time in one step,
        so its bits depend only on t_rel."""
        cfg = self.config
        clock = ReceiverClockState(
            self.zt, rtc_nominal_hz=cfg.rtc_nominal_hz, rtc_ppm_error=cfg.rtc_ppm
        )
        clock.advance(t_rel)
        return clock

    def advance_to(self, st: _State, ns: int) -> None:
        """Advance the session to its instant ns. Only a misordered session
        can ask for an earlier one, so that is a bug, not a scenario error."""
        if ns < st.ns:
            raise RuntimeError(f"instant {ns} ns is before the session's {st.ns} ns")
        if ns > st.ns:
            st.ns = ns
            st.t_rel = self.true_time(st, ns)
            st.clock = self.clock_at(st.t_rel)

    # --- steps both sessions take --------------------------------------------

    def _acquire(self, st: _State) -> int:
        """Lock code, carrier and bit on every channel, acquiring from now;
        returns the instant of bit lock, the sum of the rounded latencies."""
        ns = st.ns
        for stage in ("code", "carrier", "bit"):
            ns += round(getattr(self.config, f"{stage}_s") * 1e9)
            self.advance_to(st, ns)
            self._step_locks(st, stage)
        return ns

    def _step_locks(self, st: _State, stage: str) -> None:
        event = rcv.LockEvent(stage, st.clock.elapsed_rx_s)
        st.locks = [lock.step(event) for lock in st.locks]

    def _decoded_labels(self, st: _State) -> list[tuple[int, int, float]]:
        """Each channel's label when it has decoded a preamble and handover
        word, bit-locked now: (instant, row, wait in receiver seconds), in
        (instant, row) order."""
        labels = []
        for row, s in enumerate(self.transmit_times(st.t_rel).tolist()):
            _, _, word, bit, _ = self.decomp(s)
            wait = rcv.hotstart_frame_lock_delay(word, bit)
            labels.append((st.ns + round(wait * 1e9), row, wait))
        return sorted(labels)

    def _label(self, st: _State, ns: int, row: int) -> int:
        """Frame-lock one channel on its preamble at instant ns; returns how
        many are labeled. The first labeled becomes the clock-offset anchor."""
        self.advance_to(st, ns)
        st.locks[row] = st.locks[row].step(rcv.LockEvent("preamble", st.clock.elapsed_rx_s))
        st.labeled[row] = True
        n = int(np.count_nonzero(st.labeled))
        if n == 1:
            st.anchor = row
        return n

    # --- measurement and fixes ---------------------------------------------

    def _refine_rco(self, st: _State, s_bel: float) -> None:
        """Recompute the clock offset from the anchor channel's counters;
        s_bel is the anchor's believed transmit time now."""
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

    def _sky(self, st: _State, truth: _Truth) -> _Sky:
        """The session's _Sky of a truth table; st.rx_orbits has every
        channel by the first fix."""
        believed_tx = truth.tx + st.label_shift_s
        pos, stale = st.rx_orbits.evaluate(self.t0_abs + believed_tx)
        return _Sky(truth, believed_tx, pos, stale, truth.elevation >= self._mask)

    def _believed_pos(self, st: _State, sky: _Sky, row: int, idx: np.ndarray) -> np.ndarray:
        """Where channels idx are at their believed transmit times at the
        sky's row; raises as st.rx_orbits[idx].positions would there, for
        the first stale one."""
        bad = idx[sky.believed_stale[row, idx]]
        if len(bad):
            t_abs = self.t0_abs + sky.believed_tx[row, bad[0]]
            raise st.rx_orbits.stale_error(t_abs, bad[0])
        return sky.believed_pos[row, idx]

    def _fix(self, st: _State, t_since_wake: float, sky: _Sky, row: int) -> None:
        """Solve one fix now, with the truth at row of sky; the session's
        first uses the flat assumed delay. Only the steps that depend on
        the previous fix run here: clock offset, pseudoranges, satellite
        positions at the assumed delays, the solve, the new assumed delays
        and the refined offset. The rest is tabulated once per truth table
        (_sky), and the ENU errors wait for st.record_fixes."""
        # The anchor's believed transmit time now; the anchor need not be
        # among the channels the fix selects.
        s_anchor = float(sky.believed_tx[row, st.anchor])
        if st.rco is None:
            # A wake that decoded its labels takes its clock offset here.
            self._refine_rco(st, s_anchor)
        receive_gps = to_gps_time(st.clock.receiver_time(), st.rco)
        r_rel = receive_gps.diff(self.t0_gps)

        # Labeled channels above the mask; every channel has its ephemeris
        # by the first fix, so st.rx_orbits covers them all.
        idx = (st.labeled & sky.visible[row]).nonzero()[0]
        if len(idx) < 4:
            raise ScenarioError("fewer than 4 usable channels at a fix epoch")
        rx_orbits = st.selections.get(key := idx.tobytes())
        if rx_orbits is None:
            rx_orbits = st.selections[key] = st.rx_orbits[idx]

        believed_tx = sky.believed_tx[row, idx]
        rho = SPEED_OF_LIGHT_M_S * (r_rel - believed_tx) + sky.truth.noise[row, idx]
        # Where the receiver puts each satellite for the solve: its assumed
        # delay before the receive time. A stale cell here raises before
        # one at the believed transmit times.
        sat_pos = rx_orbits.positions(self.t0_abs + (r_rel - st.assumed_delay_s[idx]))
        believed_pos = self._believed_pos(st, sky, row, idx)

        sol = pvt.solve(rho, sat_pos, st.last_known)
        st.last_known = position = sol.position

        d = believed_pos - position
        st.assumed_delay_s[idx] = np.sqrt(np.vecdot(d, d)) / SPEED_OF_LIGHT_M_S
        self._refine_rco(st, s_anchor)
        st.solved.append((t_since_wake, position, sky.truth.user[row], sol))

    def _fixes(self, st: _State, instants: list[int], labels: list) -> Iterator[None]:
        """Fix at each of instants, each after the labels due at or before
        it, then run the labels after the last; yields after each fix, so
        the caller can read the session there. labels are _decoded_labels
        rows, which this takes off the list as it runs them. Truth comes in
        tables of up to _TRUTH_ROWS rows, each made when its first row is
        reached, and the fixes of one table become records before the next
        is made."""
        for start in range(0, len(instants), _TRUTH_ROWS):
            st.record_fixes()
            block = instants[start : start + _TRUTH_ROWS]
            sky = self._sky(st, self._truth(self.true_time(st, np.array(block))))
            for row, ns in enumerate(block):
                while labels and labels[0][0] <= ns:
                    ns_label, channel, _ = labels.pop(0)
                    self._label(st, ns_label, channel)
                self.advance_to(st, ns)
                self._fix(st, ns / 1e9, sky, row)
                yield
        # Labels after the last fix still move the clock rco_error_s reads.
        for ns_label, channel, _ in labels:
            self._label(st, ns_label, channel)

    # --- session one --------------------------------------------------------

    def run_session_one(self) -> tuple[_State, fs.PersistedSnapshot]:
        """Acquire; label each channel in time order (ties in row order),
        collecting its ephemeris there; fix at 1 Hz, each fix recording its
        receiver time since power-on; take the snapshot."""
        cfg = self.config
        st = _State(0.0, self.clock_at(0.0), locks=[rcv.LockState()] * len(self.sats))
        # Per channel row: (signal time its ephemeris ends, decoded ephemeris).
        collected = [None] * len(self.sats)
        with _simulating(st):
            self._acquire(st)
            labels = self._decoded_labels(st)
            # Each channel's transmit time at its label, the session's time
            # there, in one pass: the labels hold every row once.
            ns_label = np.empty(len(self.sats), np.int64)
            ns_label[[row for _, row, _ in labels]] = [ns for ns, _, _ in labels]
            s_label = self.transmit_times(self.true_time(st, ns_label)).tolist()
            for ns, row, _ in labels:
                n_labeled = self._label(st, ns, row)
                s = s_label[row]
                if n_labeled == 1:
                    # Session one labels from decoded words: no shift to add.
                    self._refine_rco(st, s)
                    st.diagnostics["s1_rco_first_err_s"] = self.rco_error_s(st)
                collected[row] = self._collect_ephemeris(self.sats[row], s)
            s_done, eph_rx = zip(*collected)
            st.rx_orbits = cst.Orbits.of(eph_rx)
            t_done = self.receive_times(np.array(s_done)).max().item()
            # 1 Hz fixes at whole receiver seconds from the next one after every
            # ephemeris is in; power-off comes session1_extra_s after the first.
            first = (math.floor(self.clock_at(t_done).elapsed_rx_s) + 1) * 10**9
            fixes = [first + j * 10**9 for j in range(max(1, math.ceil(cfg.session1_extra_s)))]
            rco_errors = [self.rco_error_s(st) for _ in self._fixes(st, fixes, [])]
            self.advance_to(st, first + round(cfg.session1_extra_s * 1e9))
            snapshot = self._take_snapshot(st)
        st.diagnostics["s1_rco_refined_err_s"] = self.rco_error_s(st)
        if len(rco_errors) >= 2:
            st.diagnostics["s1_rco_jitter_s"] = max(rco_errors) - min(rco_errors)
        return st, snapshot

    def _collect_ephemeris(
        self, eph: cst.EphemerisRecord, s_rel: float
    ) -> tuple[float, cst.EphemerisRecord]:
        """(signal time the last of them ends, ephemeris decoded) for the
        subframes 1-3 that a channel labeled on the signal sent at s_rel
        hears next in full, each built, encoded and decoded. Subframe k,
        counted from the start of week start_week, has ID k % 5 + 1. The one
        in progress at s_rel is heard only in part, so the first heard whole
        is b - 1 (the bias counts a label just before a boundary as on it),
        and IDs 1-3 all fall in b - 1 ... b + 3."""
        start = self.config.start_tow_s
        b = int((start + s_rel + 1e-6) // SUBFRAME_S) + 2
        ks = [k for k in range(b - 1, b + 4) if k % 5 < cst.EPHEMERIS_SUBFRAMES]
        s_done = (ks[-1] + 1) * SUBFRAME_S - start
        packed = cst.pack_ephemeris(eph)
        payloads = [b""] * cst.EPHEMERIS_SUBFRAMES
        for k in ks:
            # The TOW count wraps at the week end; count the wraps as weeks.
            week = self.config.start_week + (k + 1) // TOW_COUNT
            if week >= WEEK_COUNT:
                raise ScenarioError(
                    f"start_week {self.config.start_week}: session one reaches week "
                    f"{week}, past the 13-bit week number"
                )
            sfid = k % 5 + 1
            sf = nav.build_subframe(eph.sat_id, sfid, (k + 1) % TOW_COUNT, week, packed[k % 5])
            decoded = nav.decode_subframe(nav.subframe_bits(sf))
            payloads[decoded.subframe_id - 1] = decoded.payload
        return s_done, cst.unpack_ephemeris(decoded.sat_id, tuple(payloads))

    def _take_snapshot(self, st: _State) -> fs.PersistedSnapshot:
        eph = self.sats[st.anchor]
        t = st.t_rel
        s = float(self.transmit_times(t)[st.anchor]) + st.label_shift_s
        _, tow, word, bit, frac = self.decomp(s)
        sat = cst.propagate(eph, self.t0_abs + s)
        snapshot = fs.take_snapshot(
            st.clock,
            word,
            bit,
            tow,
            frac,
            st.rco,
            carrier_doppler_hz=cst.carrier_doppler(sat, self.user_pos(t), self.user_vel),
            code_phase_chips=cst.code_phase_chips(self.config.start_tow_s + s),
            ephemeris_ids=tuple(
                zip(st.rx_orbits.sat_id.tolist(), st.rx_orbits.epoch.tolist())
            ),
        )
        if self.config.snapshot_path:
            fs.save_snapshot(snapshot, self.config.snapshot_path)
        return snapshot

    # --- wake sessions --------------------------------------------------------

    def run_wake(
        self,
        base: _State,
        snapshot: fs.PersistedSnapshot,
        arm: str,
        off_duration_s: float,
    ) -> tuple[ArmReport, dict[str, float]]:
        """Sleep off_duration_s from session one's end state, then wake in
        one arm; returns its report and its diagnostics. base is left as it
        was, so any number of wakes can start from it."""
        cfg = self.config
        t_wake = base.t_rel + off_duration_s
        st = _State(
            t_start=t_wake,
            clock=self.clock_at(t_wake),
            # The receiver re-acquires every channel after the sleep.
            locks=[rcv.LockState()] * len(self.sats),
            anchor=base.anchor,
            rx_orbits=base.rx_orbits,
            # Rebound, never written in place, by each fix.
            last_known=base.last_known,
        )
        period = round(cfg.sample_period_s * 1e9)
        n_samples = int(round(cfg.wake_run_s / cfg.sample_period_s))
        labels = []
        used_estimate = False
        label_shift_bits = 0
        hotstart_delay: float | None = None
        with _simulating(st):
            bit = self._acquire(st)
            if arm == ARM_ESTIMATOR:
                used_estimate, label_shift_bits = self._try_estimate(st, snapshot)
            # The first fix: one epsilon after bit lock for an accepted
            # estimate, else at the fourth label.
            if used_estimate:
                first = bit + round(cfg.estimator_epsilon_s * 1e9)
            else:
                labels = self._decoded_labels(st)
                first, _, hotstart_delay = labels[3]
            if first > n_samples * period:
                raise ScenarioError("wake session produced no fix inside wake_run_s")
            # Then one fix at each later sample instant; sample k is the one
            # at or before the first fix.
            k = first // period
            instants = [first, *range((k + 1) * period, n_samples * period + 1, period)]
            for _ in self._fixes(st, instants, labels):
                pass
        # The samples before the first fix read session one's position, all
        # in one call on their rows; sample i from the first fix on reads
        # fix i - k, which fell on it (the first fix, if on sample k).
        n_before = -(-first // period)
        t_before = self.true_time(st, np.arange(n_before)[:, None] * period)
        east, north, _ = pvt.enu_errors(base.last_known, self.user_pos(t_before))
        fixes = st.fixes
        errors = [*zip(east.tolist(), north.tolist())]
        errors += [(f.err_east_m, f.err_north_m) for f in fixes[n_before - k :]]
        samples = [
            Sample(i * cfg.sample_period_s, i >= n_before, e, n, math.hypot(e, n))
            for i, (e, n) in enumerate(errors)
        ]
        ttff = first / 1e9
        report = ArmReport(
            arm=arm,
            time_to_first_fix_s=ttff,
            samples=samples,
            fixes=fixes,
            rms_2d_m=pvt.rms_2d(s.err_2d_m for s in samples if s.fix_valid),
            power_ratio=power_savings_ratio(off_duration_s, ttff + cfg.sample_period_s),
            used_estimate=used_estimate,
            hotstart_delay_s=hotstart_delay,
        )
        st.diagnostics[f"{arm}_label_shift_bits"] = float(label_shift_bits)
        st.diagnostics[f"{arm}_used_estimate"] = float(used_estimate)
        st.diagnostics[f"{arm}_rco_refined_err_s"] = self.rco_error_s(st)
        return report, st.diagnostics

    def _try_estimate(
        self, st: _State, snap: fs.PersistedSnapshot
    ) -> tuple[bool, int]:
        """Run the acceptance gate on the snapshot, reloaded from disk when
        persistence is configured (an unreadable file fails the gate), and,
        if it passes, label every channel."""
        cfg = self.config
        if cfg.snapshot_path:
            try:
                snap = fs.load_snapshot(cfg.snapshot_path)
            except (fs.SnapshotFormatError, OSError):
                return False, 0
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
        orbits = st.rx_orbits
        if (abs(believed.total_seconds() - orbits.epoch) > orbits.validity).any():
            return False, 0

        est = fs.estimate_frame_state(
            snap,
            rtc_now,
            cfg.rtc_nominal_hz,
            current_tic=st.clock.tic_value,
        )
        est_week_s = (
            (est.tow - 1) % TOW_COUNT * SUBFRAME_S
            + (est.word_index - 1) * WORD_S
            + est.bit_index * BIT_S
            + est.residual_ms / 1000.0
        )
        true_week_s = self.config.start_tow_s + float(self.transmit_times(st.t_rel)[st.anchor])
        # est_week_s wraps at the week end and true_week_s does not.
        err_s = est_week_s - true_week_s
        err_s -= WEEK_S * round(err_s / WEEK_S)
        n_err = round(err_s / BIT_S)
        shift = n_err * BIT_S
        self._step_locks(st, "estimate")
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
    # Every arm wakes at this instant.
    engine._check_geometry(base.t_rel + config.off_duration_s)

    arms = (
        (ARM_ESTIMATOR, ARM_HOTSTART)
        if config.arms == "both"
        else (config.arms,)
    )
    report = RunReport(arms={}, diagnostics=dict(base.diagnostics))
    for arm in arms:
        report.arms[arm], diagnostics = engine.run_wake(
            base, snapshot, arm, config.off_duration_s
        )
        report.diagnostics.update(diagnostics)
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
