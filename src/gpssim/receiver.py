"""Channel lock progression and the conventional warm-restart timing model.

A channel walks idle -> code_locked -> carrier_locked -> bit_locked ->
frame_locked. Frame lock comes either from receiving a validated preamble
plus handover word, or from accepting a predicted frame position.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .constants import BIT_S, SUBFRAME_WORDS, WORD_BITS, WORD_S


class ProtocolError(RuntimeError):
    """A lock event arrived out of order or moved a timestamp backwards."""


class LockStage(Enum):
    IDLE = "idle"
    CODE_LOCKED = "code_locked"
    CARRIER_LOCKED = "carrier_locked"
    BIT_LOCKED = "bit_locked"
    FRAME_LOCKED = "frame_locked"


# Which stage each event may fire from, and where it leads.
_TRANSITIONS: dict[str, tuple[LockStage, LockStage]] = {
    "code": (LockStage.IDLE, LockStage.CODE_LOCKED),
    "carrier": (LockStage.CODE_LOCKED, LockStage.CARRIER_LOCKED),
    "bit": (LockStage.CARRIER_LOCKED, LockStage.BIT_LOCKED),
    "preamble": (LockStage.BIT_LOCKED, LockStage.FRAME_LOCKED),
    "estimate": (LockStage.BIT_LOCKED, LockStage.FRAME_LOCKED),
}


@dataclass(frozen=True)
class LockEvent:
    kind: str
    t_rx_s: float  # receiver time of the event, seconds since session start


@dataclass(frozen=True)
class LockState:
    """Current stage plus the receiver-time history of how it was reached."""

    stage: LockStage = LockStage.IDLE
    history: tuple[LockEvent, ...] = field(default=())

    def step(self, event: LockEvent) -> LockState:
        """Apply one event, returning the new state; bad orders raise."""
        if event.kind not in _TRANSITIONS:
            raise ProtocolError(f"unknown lock event {event.kind!r}")
        src, dst = _TRANSITIONS[event.kind]
        if self.stage is not src:
            raise ProtocolError(
                f"{event.kind!r} not valid from stage {self.stage.value}"
            )
        if self.history and event.t_rx_s < self.history[-1].t_rx_s:
            raise ProtocolError("lock event timestamps must not decrease")
        return replace(self, stage=dst, history=self.history + (event,))


def hotstart_frame_lock_delay(word_index: int, bit_index: int) -> float:
    """Seconds from bit lock to frame lock without a stored prediction.

    The conventional path must observe a subframe's first two words. A
    channel that reaches bit lock exactly at a subframe start pays only the
    two-word reception time (1.2 s); otherwise it pays the modeled wait

        (10 - word_index) * 0.6 - bit_index * 0.02 + 1.2

    clamped into [1.2, 6.0] s, linear in the bit offset between the word
    boundaries it interpolates.
    """
    if not 1 <= word_index <= SUBFRAME_WORDS:
        raise ValueError("word_index out of range")
    if not 0 <= bit_index < WORD_BITS:
        raise ValueError("bit_index out of range")
    if word_index == 1 and bit_index == 0:
        return 2 * WORD_S
    delay = (SUBFRAME_WORDS - word_index) * WORD_S - bit_index * BIT_S + 2 * WORD_S
    return min(max(delay, 1.2), 6.0)
