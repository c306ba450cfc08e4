"""Frame-sync estimation tests.

tick_frame_state is the independent oracle: it walks the message position
one 20 ms bit at a time, so the closed-form estimator is never trusted on
its own arithmetic. The worked example (snapshot at word 6, bit 19, handover
2679, RTC 17362; wake at RTC 6731176 on a 32 kHz clock) is frozen here in
both estimation modes.
"""
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpssim import frame_sync as fs
from gpssim.constants import SUBFRAME_S, TIC_S, TOW_COUNT
from gpssim.nav_message import BitstreamCursor
from gpssim.rx_clock import ClockBackwardsError, Rco


def _resealed(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """Snapshot bytes with one field overwritten and the CRC recomputed."""
    body = bytearray(blob[:-4])
    struct.pack_into(fmt, body, offset, value)
    return bytes(body) + struct.pack(">I", zlib.crc32(body))


def _snapshot(word=6, bit=19, tow=2679, rtc=17362, doppler=0.0, phase=0.0, **kw):
    return fs.PersistedSnapshot(word, bit, tow, rtc, doppler, phase, Rco(0, 0.001), **kw)


def test_elapsed_ms_from_rtc_worked_example():
    assert fs.elapsed_ms_from_rtc(6731176, 17362, 32000.0) == 209806.6875


def test_elapsed_ms_rejects_backwards_and_bad_rate():
    with pytest.raises(ClockBackwardsError):
        fs.elapsed_ms_from_rtc(100, 200, 32000.0)
    with pytest.raises(ValueError):
        fs.elapsed_ms_from_rtc(200, 100, 0.0)


class TestWorkedExample:
    """209806.6875 ms after (word 6, bit 19, tow 2679)."""

    def test_fieldwise_mode(self):
        est = fs.estimate_frame_state(
            _snapshot(), 6731176, 32000.0, mode=fs.EstimationMode.FIELDWISE
        )
        assert (est.bit_index, est.word_index, est.tow) == (9, 6, 2713)
        assert est.residual_ms == pytest.approx(6.6875)

    def test_exact_mode(self):
        est = fs.estimate_frame_state(_snapshot(), 6731176, 32000.0)
        assert (est.bit_index, est.word_index, est.tow) == (9, 6, 2714)
        assert est.residual_ms == pytest.approx(6.6875)

    def test_tick_oracle_sides_with_exact_mode(self):
        bit, word, tow = fs.tick_frame_state(6, 19, 2679, 209806.6875)
        assert (bit, word, tow) == (9, 6, 2714)

    def test_modes_disagree_only_in_tow(self):
        # The word/bit walk crosses a subframe boundary that the
        # independent whole-subframe count does not see.
        fieldwise = fs.estimate_frame_state(
            _snapshot(), 6731176, 32000.0, mode=fs.EstimationMode.FIELDWISE
        )
        exact = fs.estimate_frame_state(_snapshot(), 6731176, 32000.0)
        assert (fieldwise.bit_index, fieldwise.word_index) == (
            exact.bit_index,
            exact.word_index,
        )
        assert exact.tow - fieldwise.tow == 1


def test_zero_elapsed_is_identity():
    est = fs.estimate_frame_state(_snapshot(), 17362, 32000.0)
    assert (est.bit_index, est.word_index, est.tow) == (19, 6, 2679)
    assert est.residual_ms == 0.0


def test_thirty_bits_later_lands_in_next_word():
    # 600 ms = one word: bit index unchanged, word advances, handover holds.
    rtc = 17362 + int(0.6 * 32000)
    est = fs.estimate_frame_state(_snapshot(), rtc, 32000.0)
    assert (est.bit_index, est.word_index, est.tow) == (19, 7, 2679)


def test_word_index_wraps_to_ten_not_zero():
    est = fs.estimate_frame_state(
        _snapshot(word=9, bit=29, tow=10), 17362 + 640, 32000.0,
        mode=fs.EstimationMode.FIELDWISE,
    )
    assert est.word_index == 10


def test_sync_tic_accounts_for_bits_and_residual():
    est = fs.estimate_frame_state(_snapshot(), 6731176, 32000.0, current_tic=50.0)
    into = ((est.word_index - 1) * 30 + est.bit_index) * 0.02 + est.residual_ms / 1000.0
    assert est.sync_tic == pytest.approx(50.0 + (SUBFRAME_S - into) / TIC_S)
    # The subframe in flight ends within the next six seconds.
    assert 50.0 < est.sync_tic <= 50.0 + SUBFRAME_S / TIC_S


@given(
    word=st.integers(1, 10),
    bit=st.integers(0, 29),
    tow=st.integers(0, TOW_COUNT - 1),
    ticks=st.integers(0, 32 * 3600 * 2),
)
@settings(max_examples=300, deadline=None)
def test_exact_mode_matches_tick_oracle(word, bit, tow, ticks):
    snap = _snapshot(word=word, bit=bit, tow=tow, rtc=1000)
    est = fs.estimate_frame_state(snap, 1000 + ticks, 32000.0)
    elapsed = ticks / 32.0
    assert (est.bit_index, est.word_index, est.tow) == fs.tick_frame_state(
        word, bit, tow, elapsed
    )
    assert 0.0 <= est.residual_ms < 20.0


# --- drift budget ----------------------------------------------------------------


def test_drift_budget_values():
    assert fs.drift_budget(10.0, 10.0) == 1_000_000.0
    assert fs.drift_budget(20.0, 10.0) == 500_000.0
    assert fs.drift_budget(0.0, 10.0) == float("inf")
    assert fs.drift_budget(10.0, 5.0) == 500_000.0


def test_drift_budget_validation():
    with pytest.raises(ValueError):
        fs.drift_budget(-1.0)
    with pytest.raises(ValueError):
        fs.drift_budget(10.0, 0.0)


# --- code Doppler ----------------------------------------------------------------


def test_code_doppler_scaling():
    assert fs.code_doppler_from_carrier(10_000.0) == pytest.approx(6.4935064935)
    assert fs.code_doppler_from_carrier(0.0) == 0.0
    assert fs.code_doppler_from_carrier(-10_000.0) == pytest.approx(-6.4935064935)


# --- snapshot capture ------------------------------------------------------------


def _tracking(bit_locked=True, have_fix=True, doppler=-1234.5, phase=511.0):
    return fs.TrackingStatus(bit_locked, doppler, phase, have_fix)


def test_snapshot_copies_live_counters():
    cursor = BitstreamCursor(6, 19, 2679)
    snap = fs.take_snapshot(cursor, _tracking(), Rco(0, 0.001), rtc_count=17362)
    assert (snap.word_index, snap.bit_index, snap.tow) == (6, 19, 2679)
    assert snap.rtc_count == 17362
    assert snap.rco == Rco(0, 0.001)
    assert snap.carrier_doppler_hz == -1234.5


def test_snapshot_honours_explicit_rtc_latch():
    """The latched count is required: no live counter stands in for it."""
    cursor = BitstreamCursor(1, 0, 7)
    snap = fs.take_snapshot(cursor, _tracking(), Rco(0, 0.0), rtc_count=63999)
    assert snap.rtc_count == 63999
    with pytest.raises(TypeError):
        fs.take_snapshot(cursor, _tracking(), Rco(0, 0.0))


def test_snapshot_requires_bit_lock_and_fix():
    cursor = BitstreamCursor(1, 0, 0)
    with pytest.raises(fs.SnapshotUnavailableError):
        fs.take_snapshot(cursor, _tracking(bit_locked=False), Rco(0, 0.0), rtc_count=0)
    with pytest.raises(fs.SnapshotUnavailableError):
        fs.take_snapshot(cursor, _tracking(have_fix=False), Rco(0, 0.0), rtc_count=0)
    with pytest.raises(fs.SnapshotUnavailableError):
        fs.take_snapshot(cursor, _tracking(), None, rtc_count=0)


def test_snapshot_field_validation():
    with pytest.raises(ValueError):
        _snapshot(word=0)
    with pytest.raises(ValueError):
        _snapshot(bit=30)
    with pytest.raises(ValueError):
        _snapshot(tow=TOW_COUNT)
    with pytest.raises(ValueError):
        _snapshot(rtc=-1)
    with pytest.raises(ValueError):
        _snapshot(phase=1023.0)
    with pytest.raises(ValueError, match="carrier_doppler_hz"):
        _snapshot(doppler=float("nan"))
    for second in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="rco.second"):
            fs.PersistedSnapshot(6, 19, 2679, 17362, 0.0, 0.0, Rco(0, second))


# --- persistence -----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    snap = _snapshot(
        doppler=-2345.678, phase=100.125,
        ephemeris_ids=((1, 60480000.0), (7, 60480010.5)),
    )
    path = tmp_path / "state.fsnp"
    fs.save_snapshot(snap, path)
    assert fs.load_snapshot(path) == snap
    # Saving is deterministic at the byte level.
    blob = path.read_bytes()
    fs.save_snapshot(snap, path)
    assert path.read_bytes() == blob


def test_save_writes_no_sidecar(tmp_path):
    """Saving writes the binary record only; the text form is rendered on
    demand (the CLI's snapshot-dump)."""
    snap = _snapshot()
    fs.save_snapshot(snap, tmp_path / "state.fsnp")
    assert [p.name for p in tmp_path.iterdir()] == ["state.fsnp"]
    text = fs.dump_snapshot_text(snap)
    assert "word_index: 6" in text
    assert "tow: 2679" in text


def test_load_rejects_corruption(tmp_path):
    path = tmp_path / "state.fsnp"
    fs.save_snapshot(_snapshot(), path)
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(fs.SnapshotFormatError):
        fs.load_snapshot(path)

    # A valid checksum does not make an out-of-range field loadable: word 0,
    # a non-finite carrier Doppler or a non-finite clock-offset second.
    fs.save_snapshot(_snapshot(), path)
    good = path.read_bytes()
    for offset, fmt, value, field in (
        (6, ">B", 0, "word_index"),
        (20, ">d", float("nan"), "carrier_doppler_hz"),
        (40, ">d", float("nan"), "rco.second"),
        (40, ">d", float("inf"), "rco.second"),
    ):
        path.write_bytes(_resealed(good, offset, fmt, value))
        with pytest.raises(fs.SnapshotFormatError, match=field):
            fs.load_snapshot(path)


def test_load_rejects_wrong_magic_version_and_truncation(tmp_path):
    path = tmp_path / "state.fsnp"
    fs.save_snapshot(_snapshot(), path)
    good = path.read_bytes()

    path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(fs.SnapshotFormatError):
        fs.load_snapshot(path)

    bumped = bytearray(good)
    bumped[5] = 99
    path.write_bytes(bytes(bumped))
    with pytest.raises(fs.SnapshotFormatError):
        fs.load_snapshot(path)

    path.write_bytes(good[:12])
    with pytest.raises(fs.SnapshotFormatError):
        fs.load_snapshot(path)


@given(
    word=st.integers(1, 10),
    bit=st.integers(0, 29),
    tow=st.integers(0, TOW_COUNT - 1),
    rtc=st.integers(0, 2**40),
    doppler=st.floats(-10_000.0, 10_000.0, allow_nan=False),
    phase=st.floats(0.0, 1023.0, exclude_max=True, allow_nan=False),
    rco_s=st.floats(-1.0, 1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_persistence_round_trip_property(word, bit, tow, rtc, doppler, phase, rco_s):
    snap = fs.PersistedSnapshot(word, bit, tow, rtc, doppler, phase, Rco(0, rco_s))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.fsnp"
        fs.save_snapshot(snap, path)
        assert fs.load_snapshot(path) == snap
