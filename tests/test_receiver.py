"""Lock progression and warm-restart delay model tests."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpssim import receiver as rcv


def _walk(kinds, start=0.0, spacing=0.1):
    state = rcv.LockState()
    t = start
    for kind in kinds:
        state = state.step(rcv.LockEvent(kind, t))
        t += spacing
    return state


def test_preamble_path_reaches_frame_lock():
    state = _walk(["code", "carrier", "bit", "preamble"])
    assert state.stage is rcv.LockStage.FRAME_LOCKED
    assert [e.kind for e in state.history] == ["code", "carrier", "bit", "preamble"]


def test_estimate_path_reaches_frame_lock():
    state = _walk(["code", "carrier", "bit", "estimate"])
    assert state.stage is rcv.LockStage.FRAME_LOCKED


def test_stage_entry_times_are_recorded():
    state = _walk(["code", "carrier", "bit"], start=1.0, spacing=0.5)
    assert state.time_of(rcv.LockStage.CODE_LOCKED) == 1.0
    assert state.time_of(rcv.LockStage.CARRIER_LOCKED) == 1.5
    assert state.time_of(rcv.LockStage.BIT_LOCKED) == 2.0
    with pytest.raises(ValueError):
        state.time_of(rcv.LockStage.FRAME_LOCKED)


def test_preamble_from_code_lock_is_a_protocol_error():
    state = _walk(["code"])
    with pytest.raises(rcv.ProtocolError):
        state.step(rcv.LockEvent("preamble", 1.0))


def test_skipping_a_stage_is_rejected():
    state = rcv.LockState()
    with pytest.raises(rcv.ProtocolError):
        state.step(rcv.LockEvent("carrier", 0.0))
    with pytest.raises(rcv.ProtocolError):
        _walk(["code", "carrier"]).step(rcv.LockEvent("code", 1.0))


def test_unknown_event_kind_rejected():
    with pytest.raises(rcv.ProtocolError):
        rcv.LockState().step(rcv.LockEvent("blink", 0.0))


def test_timestamps_must_not_decrease():
    state = _walk(["code", "carrier"], start=5.0)
    with pytest.raises(rcv.ProtocolError):
        state.step(rcv.LockEvent("bit", 4.9))
    # Equal timestamps are allowed: two events in one processing batch.
    state.step(rcv.LockEvent("bit", state.history[-1].t_rx_s))


def test_states_are_immutable_values():
    base = _walk(["code"])
    advanced = base.step(rcv.LockEvent("carrier", 1.0))
    assert base.stage is rcv.LockStage.CODE_LOCKED
    assert advanced.stage is rcv.LockStage.CARRIER_LOCKED
    assert len(base.history) == 1


class TestHotstartDelay:
    def test_subframe_start_pays_two_words(self):
        assert rcv.hotstart_frame_lock_delay(1, 0) == pytest.approx(1.2)

    def test_just_missed_preamble_pays_nearly_full_subframe(self):
        assert rcv.hotstart_frame_lock_delay(2, 0) == pytest.approx(6.0)

    def test_last_word_pays_two_words(self):
        assert rcv.hotstart_frame_lock_delay(10, 0) == pytest.approx(1.2)

    def test_linear_in_bit_offset(self):
        d0 = rcv.hotstart_frame_lock_delay(5, 0)
        d10 = rcv.hotstart_frame_lock_delay(5, 10)
        assert d0 - d10 == pytest.approx(10 * 0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            rcv.hotstart_frame_lock_delay(0, 0)
        with pytest.raises(ValueError):
            rcv.hotstart_frame_lock_delay(11, 0)
        with pytest.raises(ValueError):
            rcv.hotstart_frame_lock_delay(1, 30)

    @given(word=st.integers(1, 10), bit=st.integers(0, 29))
    def test_always_between_two_words_and_one_subframe(self, word, bit):
        d = rcv.hotstart_frame_lock_delay(word, bit)
        assert 1.2 <= d <= 6.0
