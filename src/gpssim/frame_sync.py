"""Frame synchronization prediction from elapsed RTC counts.

While the receiver sleeps, only the RTC keeps counting. Given the message
position stored at power-off (word index, bit index, handover count, RTC
count), the position after wake follows from the elapsed RTC time alone:

    elapsed_ms = (rtc_now - rtc_then) / (rtc_hz / 1000)

decomposed into 600 ms words, 20 ms bits and a sub-bit remainder. Two modes
are provided:

* FIELDWISE applies that decomposition literally: the bit index advances
  mod 30 with a single carry into the word index (mod 10, a result of 0 read
  as word 10), and the handover count advances by int(elapsed_ms / 6000)
  independently of the word carry. The two are not mutually consistent in
  general; near subframe boundaries the handover count can trail the
  word/bit position by one subframe.
* EXACT converts the stored position to an absolute bit count, adds the
  elapsed whole bits, and converts back, so bit, word and handover count
  always agree with a tick-by-tick counter.

The usable sleep time is bounded by the RTC tolerance: a drift of rtc_ppm
parts per million misplaces the estimate by elapsed * ppm * 1e-6, so the
estimate stays within half a bit as long as

    elapsed_ms <= bit_margin_ms * 1e6 / rtc_ppm.
"""
from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .constants import (
    BIT_S,
    CODE_DOPPLER_RATIO,
    CODE_LENGTH_CHIPS,
    SUBFRAME_S,
    SUBFRAME_WORDS,
    TIC_S,
    TOW_COUNT,
    WEEK_S,
    WORD_BITS,
)
from .rx_clock import ClockBackwardsError, Rco, ReceiverClockState

_MS_PER_BIT = 20.0
_MS_PER_WORD = 600.0
_MS_PER_SUBFRAME = 6000.0


class EstimationMode(Enum):
    EXACT = "exact"
    FIELDWISE = "fieldwise"


class SnapshotFormatError(ValueError):
    """Persisted snapshot bytes are corrupt or of an unknown version."""


@dataclass(frozen=True)
class PersistedSnapshot:
    """Message position and tracking state stored across a power-off."""

    word_index: int
    bit_index: int
    tow: int
    rtc_count: int
    carrier_doppler_hz: float
    code_phase_chips: float
    rco: Rco
    ephemeris_ids: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.word_index <= SUBFRAME_WORDS:
            raise ValueError("word_index out of range")
        if not 0 <= self.bit_index < WORD_BITS:
            raise ValueError("bit_index out of range")
        if not 0 <= self.tow < TOW_COUNT:
            raise ValueError("tow out of range")
        if self.rtc_count < 0:
            raise ValueError("rtc_count must be non-negative")
        if not 0 <= self.code_phase_chips < CODE_LENGTH_CHIPS:
            raise ValueError("code_phase_chips out of range")
        if not math.isfinite(self.carrier_doppler_hz):
            raise ValueError("carrier_doppler_hz must be finite")
        # The offset's second is receiver minus GPS second-of-week, not
        # normalized: within a week of zero, plus the session's length.
        if not abs(self.rco.second) <= 2 * WEEK_S:
            raise ValueError("rco.second must be finite and within two weeks")


@dataclass(frozen=True)
class EstimatedFrameState:
    """Predicted message position after a sleep interval."""

    bit_index: int
    word_index: int
    tow: int
    sync_tic: float
    residual_ms: float


def take_snapshot(
    clock: ReceiverClockState,
    word_index: int,
    bit_index: int,
    tow: int,
    bit_fraction: float,
    rco: Rco,
    *,
    carrier_doppler_hz: float,
    code_phase_chips: float,
    ephemeris_ids: tuple[tuple[int, float], ...] = (),
) -> PersistedSnapshot:
    """Capture the state needed to predict frame sync after a power-off.

    The clock is bit_fraction of a bit past the leading edge of bit
    bit_index of word word_index. The stored RTC count is latched at that
    edge, so the stored counter pair is coherent; the live count would bias
    every estimate by up to one bit.
    """
    edge_rx_s = clock.elapsed_rx_s - bit_fraction * BIT_S * (
        1 + clock.rtc_ppm_error * 1e-6
    )
    rtc_count = math.floor(edge_rx_s * clock.rtc_nominal_hz + 1e-9)
    return PersistedSnapshot(
        word_index,
        bit_index,
        tow,
        rtc_count,
        carrier_doppler_hz,
        code_phase_chips,
        rco,
        ephemeris_ids,
    )


def elapsed_ms_from_rtc(rtc_now: int, rtc_then: int, rtc_hz: float) -> float:
    """Elapsed milliseconds implied by two RTC counts."""
    if rtc_hz <= 0:
        raise ValueError("rtc_hz must be positive")
    if rtc_now < rtc_then:
        raise ClockBackwardsError("RTC count decreased across the sleep")
    return (rtc_now - rtc_then) / (rtc_hz / 1000.0)


def estimate_frame_state(
    snapshot: PersistedSnapshot,
    rtc_now: int,
    rtc_hz: float,
    *,
    mode: EstimationMode = EstimationMode.EXACT,
    current_tic: float = 0.0,
) -> EstimatedFrameState:
    """Predict (bit, word, tow) at rtc_now from a stored snapshot.

    current_tic feeds the sync_tic output: the remaining portion of the
    subframe in flight, converted to TICs, is added to the current TIC so
    the caller can rebuild the receiver clock offset without decoding a
    handover word.
    """
    elapsed = elapsed_ms_from_rtc(rtc_now, snapshot.rtc_count, rtc_hz)

    if mode is EstimationMode.FIELDWISE:
        words = int(elapsed // _MS_PER_WORD)
        bits = int(elapsed % _MS_PER_WORD // _MS_PER_BIT)
        residual = elapsed - words * _MS_PER_WORD - bits * _MS_PER_BIT
        bit = (snapshot.bit_index + bits) % WORD_BITS
        carry = (snapshot.bit_index + bits) // WORD_BITS
        word = (snapshot.word_index + words + carry) % SUBFRAME_WORDS
        word = word or SUBFRAME_WORDS
        tow = (snapshot.tow + int(elapsed // _MS_PER_SUBFRAME)) % TOW_COUNT
    else:
        whole_bits = int(elapsed // _MS_PER_BIT)
        residual = elapsed - whole_bits * _MS_PER_BIT
        start = (
            (snapshot.tow - 1) % TOW_COUNT * (SUBFRAME_WORDS * WORD_BITS)
            + (snapshot.word_index - 1) * WORD_BITS
            + snapshot.bit_index
        )
        pos = start + whole_bits
        subframe, rem = divmod(pos, SUBFRAME_WORDS * WORD_BITS)
        tow = (subframe + 1) % TOW_COUNT
        word = rem // WORD_BITS + 1
        bit = rem % WORD_BITS

    into_subframe_s = ((word - 1) * WORD_BITS + bit) * _MS_PER_BIT / 1000.0
    into_subframe_s += residual / 1000.0
    sync_tic = current_tic + (SUBFRAME_S - into_subframe_s) / TIC_S
    return EstimatedFrameState(bit, word, tow, sync_tic, residual)


def tick_frame_state(
    word_index: int, bit_index: int, tow: int, elapsed_ms: float
) -> tuple[int, int, int]:
    """Brute-force oracle: advance one 20 ms bit at a time.

    Returns (bit_index, word_index, tow). Slow by design; exists so the
    closed-form estimator has an independent reference.
    """
    b, w, t = bit_index, word_index, tow
    for _ in range(int(elapsed_ms // _MS_PER_BIT)):
        b += 1
        if b == WORD_BITS:
            b = 0
            w += 1
            if w == SUBFRAME_WORDS + 1:
                w = 1
                t = (t + 1) % TOW_COUNT
    return b, w, t


def drift_budget(rtc_ppm: float, bit_margin_ms: float = 10.0) -> float:
    """Longest sleep (ms) that keeps RTC drift within the bit margin.

    The budget ignores the RTC tick: the elapsed count is whole ticks, so
    a coarse RTC adds up to one tick of error at any sleep. At 1 kHz the
    default scenario already reads a one-bit error (17.7 m);
    ScenarioConfig.validate rejects a tick not shorter than the margin.
    """
    # Written so that NaN fails too.
    if not 0 <= rtc_ppm < math.inf:
        raise ValueError("rtc_ppm must be non-negative and finite")
    if not 0 < bit_margin_ms < math.inf:
        raise ValueError("bit_margin_ms must be positive and finite")
    if rtc_ppm == 0:
        return float("inf")
    return bit_margin_ms * 1e6 / rtc_ppm


def code_doppler_from_carrier(carrier_doppler_hz: float) -> float:
    """Code-rate Doppler in Hz implied by a carrier Doppler."""
    return carrier_doppler_hz * CODE_DOPPLER_RATIO


# --- snapshot persistence ---------------------------------------------------
# Binary layout (big-endian), fields in declaration order:
#   magic 'FSNP' | version u16 | word u8 | bit u8 | tow u32 | rtc u64
#   | carrier_doppler f64 | code_phase f64 | rco_week i32 | rco_second f64
#   | n_ephemeris u16 | n * (sat_id u16, epoch f64) | crc32 u32
# The CRC covers every byte before it. dump_snapshot_text renders the
# fields as text for eyeballing (the CLI's snapshot-dump).

_SNAPSHOT_MAGIC = b"FSNP"
_SNAPSHOT_VERSION = 1
_HEAD = struct.Struct(">4sH")
_BODY = struct.Struct(">BBIQddid")
_EPH = struct.Struct(">Hd")
_CRC = struct.Struct(">I")


def dump_snapshot_text(snapshot: PersistedSnapshot) -> str:
    lines = [
        f"word_index: {snapshot.word_index}",
        f"bit_index: {snapshot.bit_index}",
        f"tow: {snapshot.tow}",
        f"rtc_count: {snapshot.rtc_count}",
        f"carrier_doppler_hz: {snapshot.carrier_doppler_hz!r}",
        f"code_phase_chips: {snapshot.code_phase_chips!r}",
        f"rco_week: {snapshot.rco.week}",
        f"rco_second: {snapshot.rco.second!r}",
        f"ephemeris_ids: {list(snapshot.ephemeris_ids)}",
    ]
    return "\n".join(lines) + "\n"


def save_snapshot(snapshot: PersistedSnapshot, path) -> None:
    """Write the checksummed binary record."""
    blob = _HEAD.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION)
    blob += _BODY.pack(
        snapshot.word_index,
        snapshot.bit_index,
        snapshot.tow,
        snapshot.rtc_count,
        snapshot.carrier_doppler_hz,
        snapshot.code_phase_chips,
        snapshot.rco.week,
        snapshot.rco.second,
    )
    blob += struct.pack(">H", len(snapshot.ephemeris_ids))
    for sat_id, epoch in snapshot.ephemeris_ids:
        blob += _EPH.pack(sat_id, epoch)
    blob += _CRC.pack(zlib.crc32(blob))
    Path(path).write_bytes(blob)


def load_snapshot(path) -> PersistedSnapshot:
    """Read a persisted snapshot; reject bad magic, version, checksum, or fields."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEAD.size + _BODY.size + 2 + _CRC.size:
        raise SnapshotFormatError("snapshot file truncated")
    magic, version = _HEAD.unpack_from(blob, 0)
    if magic != _SNAPSHOT_MAGIC:
        raise SnapshotFormatError("bad snapshot magic")
    if version != _SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    (crc,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
    if zlib.crc32(blob[: -_CRC.size]) != crc:
        raise SnapshotFormatError("snapshot checksum mismatch")

    word, bit, tow, rtc, doppler, code_phase, rco_week, rco_second = _BODY.unpack_from(
        blob, _HEAD.size
    )
    off = _HEAD.size + _BODY.size
    (n_eph,) = struct.unpack_from(">H", blob, off)
    off += 2
    expect = off + n_eph * _EPH.size + _CRC.size
    if len(blob) != expect:
        raise SnapshotFormatError("snapshot length disagrees with its header")
    eph = tuple(
        _EPH.unpack_from(blob, off + i * _EPH.size) for i in range(n_eph)
    )
    try:
        return PersistedSnapshot(
            word, bit, tow, rtc, doppler, code_phase, Rco(rco_week, rco_second), eph
        )
    except ValueError as exc:
        raise SnapshotFormatError(f"snapshot field {exc}") from exc
