"""Navigation message words, subframes, parity, and bitstream handling.

Word layout follows the L1 legacy format: 30-bit words, 24 data bits followed
by 6 parity bits from the (32,26) extended Hamming code, parity chained
through the last two bits of the preceding word (D29*, D30*). Data bits are
transmitted XOR'd with D30*. The code has minimum distance 4, so every error
pattern of up to three bit flips inside one 32-bit span is detected.

Subframe field conventions used by this simulator (there is no spreading-code
layer, so the satellite identifies itself in the message):

====  ==========================================================
word  content (24 data bits each)
====  ==========================================================
1     preamble 10001011, sat_id (6 bits), 10 reserved zero bits
2     tow (17 bits, 6 s units), alert+antispoof zeros, subframe_id
      (3 bits), 2 bits solved so the word's D29 = D30 = 0
3     week_number (13 bits), 11 reserved zero bits
4..9  payload bytes 0..17
10    payload bytes 18..19, 6 reserved zero bits, 2 solved bits
====  ==========================================================

Words 2 and 10 zero their trailing parity bits the way the broadcast signal
does, which makes every subframe decodable with an assumed (0, 0) carry-in.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    PREAMBLE,
    PREAMBLE_BITS,
    SUBFRAME_BITS,
    SUBFRAME_WORDS,
    TOW_COUNT,
    WEEK_COUNT,
    WORD_BITS,
    WORD_DATA_BITS,
)

PAYLOAD_BYTES = 20

# Parity tap positions (1-based source-data indices d1..d24) for D25..D30.
_PARITY_TAPS = (
    (1, 2, 3, 5, 6, 10, 11, 12, 13, 14, 17, 18, 20, 23),
    (2, 3, 4, 6, 7, 11, 12, 13, 14, 15, 18, 19, 21, 24),
    (1, 3, 4, 5, 7, 8, 12, 13, 14, 15, 16, 19, 20, 22),
    (2, 4, 5, 6, 8, 9, 13, 14, 15, 16, 17, 20, 21, 23),
    (1, 3, 5, 6, 7, 9, 10, 14, 15, 16, 17, 18, 21, 22, 24),
    (3, 5, 6, 8, 9, 10, 11, 13, 15, 19, 22, 23, 24),
)
# Which carry bit seeds each parity equation: 0 -> D29*, 1 -> D30*.
_PARITY_CARRY = (0, 1, 0, 1, 1, 0)

_TAP_MASKS = tuple(
    sum(1 << (WORD_DATA_BITS - i) for i in taps) for taps in _PARITY_TAPS
)

# The parity bits are linear over GF(2) in the data and carry bits, so they
# are the XOR of what each data byte and the carry pair contribute alone.
# One table per data byte (high, middle, low), each indexed by the byte:
_BYTE_PARITY = tuple(
    tuple(
        sum((((v << shift) & mask).bit_count() & 1) << (5 - j)
            for j, mask in enumerate(_TAP_MASKS))
        for v in range(256)
    )
    for shift in (16, 8, 0)
)
_HI_PARITY, _MID_PARITY, _LO_PARITY = _BYTE_PARITY
# ...and one indexed by the carry pair as 2 * D29* + D30*.
_CARRY_PARITY = tuple(
    sum(((c >> (1 - k)) & 1) << (5 - j) for j, k in enumerate(_PARITY_CARRY))
    for c in range(4)
)
# Array copies of the same four tables, for `_parity_array`.
_PARITY_TABLES = tuple(
    np.array(t, dtype=np.int64) for t in (*_BYTE_PARITY, _CARRY_PARITY)
)

_DATA_MASK = (1 << WORD_DATA_BITS) - 1
_PARITY_MASK = (1 << 6) - 1
_WORD_MASK = (1 << WORD_BITS) - 1


class ParityError(ValueError):
    """A word failed its parity check."""


class DecodeError(ValueError):
    """A subframe's fields are structurally invalid."""


def parity_bits(data24: int, d29_prev: int, d30_prev: int) -> int:
    """Six parity bits for 24 source data bits and the previous word's tail.

    Only the low 24 bits of data24 and the low bit of each carry count.
    """
    return (
        _HI_PARITY[(data24 >> 16) & 0xFF]
        ^ _MID_PARITY[(data24 >> 8) & 0xFF]
        ^ _LO_PARITY[data24 & 0xFF]
        ^ _CARRY_PARITY[2 * (d29_prev & 1) + (d30_prev & 1)]
    )


def encode_word(data24: int, d29_prev: int = 0, d30_prev: int = 0) -> int:
    """Encode 24 source bits into a transmitted 30-bit word.

    Transmitted data bits are the source bits XOR D30* of the previous word;
    parity is computed over the source bits.
    """
    if not 0 <= data24 <= _DATA_MASK:
        raise ValueError(f"data24 out of range: {data24:#x}")
    tx24 = data24 ^ (_DATA_MASK if d30_prev & 1 else 0)
    return (tx24 << 6) | parity_bits(data24, d29_prev, d30_prev)


def check_word(word30: int, d29_prev: int = 0, d30_prev: int = 0) -> int:
    """Parity-check a received word and return its 24 source data bits.

    Raises ParityError when the recomputed parity disagrees. The check is
    invariant under full polarity inversion of the stream because the carry
    bits invert along with the word.
    """
    if not 0 <= word30 < (1 << WORD_BITS):
        raise ValueError(f"word out of range: {word30:#x}")
    data24 = (word30 >> 6) ^ (_DATA_MASK if d30_prev & 1 else 0)
    if parity_bits(data24, d29_prev, d30_prev) != word30 & _PARITY_MASK:
        raise ParityError("parity mismatch")
    return data24


# Tap masks with bits d23, d24 removed, used when solving the trailing bits.
_D29_PARTIAL = _TAP_MASKS[4] & ~0b11
_D30_PARTIAL = _TAP_MASKS[5] & ~0b11


def solve_trailing_bits(data22: int, d29_prev: int, d30_prev: int) -> int:
    """Pick d23, d24 so the encoded word ends with parity bits D29 = D30 = 0.

    data22 holds source bits d1..d22; the returned value is the full 24-bit
    data field.
    """
    if not 0 <= data22 < (1 << 22):
        raise ValueError(f"data22 out of range: {data22:#x}")
    top = data22 << 2
    d24 = ((top & _D29_PARTIAL).bit_count() + d30_prev) & 1
    d23 = ((top & _D30_PARTIAL).bit_count() + d29_prev + d24) & 1
    return top | (d23 << 1) | d24


_BIT_SHIFTS = np.arange(WORD_BITS - 1, -1, -1)
# Place values of a word's bits, first transmitted bit most significant.
_BIT_WEIGHTS = 1 << _BIT_SHIFTS


def word_to_bits(word30: int) -> np.ndarray:
    """30-bit word to a bit array, first transmitted bit at index 0.

    A column of words gives one row of bits per word.
    """
    return ((word30 >> _BIT_SHIFTS) & 1).astype(np.uint8)


def bits_to_word(bits: np.ndarray) -> int | list[int]:
    """30 bits to a word, first transmitted bit most significant.

    An (n, 30) array of rows gives the n words as a list.
    """
    bits = np.asarray(bits)
    if bits.ndim == 2:
        n, width = bits.shape
        if width != WORD_BITS:
            raise ValueError("expected rows of 30 bits")
        # One integer of n * 30 bits, first row most significant, padded
        # with zero bits up to whole bytes.
        pad = -n * WORD_BITS % 8
        packed = int.from_bytes(np.packbits(bits).tobytes(), "big") >> pad
        last = WORD_BITS * (n - 1)
        return [(packed >> k) & _WORD_MASK for k in range(last, -1, -WORD_BITS)]
    if len(bits) != WORD_BITS:
        raise ValueError("expected 30 bits")
    # 30 bits pack into 4 bytes with two zero pad bits at the end.
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> 2


@dataclass(frozen=True)
class Subframe:
    """One decoded or built 300-bit subframe.

    `words` carries the transmitted 30-bit integers (not compared for
    equality; two subframes with identical fields are the same subframe even
    if their parity chaining context differed).
    """

    sat_id: int
    subframe_id: int
    tow: int
    week_number: int
    payload: bytes = b""
    words: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.sat_id <= 32:
            raise DecodeError(f"sat_id out of range: {self.sat_id}")
        if not 1 <= self.subframe_id <= 5:
            raise DecodeError(f"subframe_id out of range: {self.subframe_id}")
        if not 0 <= self.tow < TOW_COUNT:
            raise DecodeError(f"tow out of range: {self.tow}")
        if not 0 <= self.week_number < WEEK_COUNT:
            raise DecodeError(f"week_number out of range: {self.week_number}")
        if len(self.payload) > PAYLOAD_BYTES:
            raise DecodeError("payload longer than 20 bytes")


def build_subframe(
    sat_id: int,
    subframe_id: int,
    tow: int,
    week_number: int,
    payload: bytes = b"",
    *,
    d29_prev: int = 0,
    d30_prev: int = 0,
) -> Subframe:
    """Assemble and encode one subframe; returns it with transmitted words."""
    sf = Subframe(sat_id, subframe_id, tow, week_number, payload)
    pay = payload.ljust(PAYLOAD_BYTES, b"\x00")

    words: list[int] = []
    d29, d30 = d29_prev, d30_prev

    def emit(data24: int) -> None:
        nonlocal d29, d30
        w = encode_word(data24, d29, d30)
        words.append(w)
        d29, d30 = (w >> 1) & 1, w & 1

    def emit_solved(data22: int) -> None:
        emit(solve_trailing_bits(data22, d29, d30))

    emit((PREAMBLE << 16) | (sat_id << 10))
    emit_solved((tow << 5) | subframe_id)  # tow(17) alert(1) as(1) id(3)
    emit(week_number << 11)
    for k in range(6):
        chunk = pay[3 * k : 3 * k + 3]
        emit((chunk[0] << 16) | (chunk[1] << 8) | chunk[2])
    emit_solved(((pay[18] << 8) | pay[19]) << 6)

    return Subframe(sat_id, subframe_id, tow, week_number, payload, tuple(words))


def subframe_bits(sf: Subframe) -> np.ndarray:
    """Transmitted bit array (300 bits) of a built subframe."""
    if len(sf.words) != SUBFRAME_WORDS:
        raise ValueError("subframe has no encoded words")
    return word_to_bits(np.array(sf.words)[:, None]).ravel()


def decode_subframe(
    bits: np.ndarray, *, d29_prev: int = 0, d30_prev: int = 0
) -> Subframe:
    """Decode 300 bits into a Subframe, verifying every word's parity."""
    if len(bits) != SUBFRAME_BITS:
        raise ValueError("expected 300 bits")
    words = bits_to_word(np.asarray(bits).reshape(SUBFRAME_WORDS, WORD_BITS))
    data: list[int] = []
    d29, d30 = d29_prev, d30_prev
    for i, w in enumerate(words):
        try:
            data.append(check_word(w, d29, d30))
        except ParityError as exc:
            raise ParityError(f"word {i + 1}: {exc}") from exc
        d29, d30 = (w >> 1) & 1, w & 1

    if data[0] >> 16 != PREAMBLE:
        raise DecodeError("missing preamble")
    sat_id = (data[0] >> 10) & 0x3F
    tow = data[1] >> 7
    subframe_id = (data[1] >> 2) & 0x7
    week_number = data[2] >> 11
    # Words 4..9 carry three payload bytes each, word 10 the last two.
    pay = b"".join([d.to_bytes(3, "big") for d in data[3:9]])
    pay += (data[9] >> 8).to_bytes(2, "big")
    return Subframe(sat_id, subframe_id, tow, week_number, pay, tuple(words))


@dataclass
class BitstreamCursor:
    """Receiver-side position in the message stream.

    word_index runs 1..10, bit_index 0..29. tow_current is the handover count
    of the subframe currently in flight (the count at its end).
    """

    word_index: int = 1
    bit_index: int = 0
    tow_current: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.word_index <= SUBFRAME_WORDS:
            raise ValueError("word_index out of range")
        if not 0 <= self.bit_index < WORD_BITS:
            raise ValueError("bit_index out of range")


@dataclass(frozen=True)
class PreambleHit:
    offset: int
    inverted: bool


def _parity_array(data24: np.ndarray, d29: np.ndarray, d30: np.ndarray) -> np.ndarray:
    """`parity_bits` applied elementwise to arrays of words and carry bits."""
    hi, mid, lo, carry = _PARITY_TABLES
    return (
        hi[(data24 >> 16) & 0xFF]
        ^ mid[(data24 >> 8) & 0xFF]
        ^ lo[data24 & 0xFF]
        ^ carry[2 * (d29 & 1) + (d30 & 1)]
    )


def find_subframe_boundaries(bits: np.ndarray) -> list[PreambleHit]:
    """All validated subframe boundaries in the stream, by offset.

    Every candidate is validated in one array pass. A candidate carries
    the preamble pattern in either polarity and leaves room for words 1
    and 2. Both words must pass parity, chained from the two bits before
    the candidate (taken as (0, 0) at offsets 0 and 1). Word 1 needs zero
    TLM reserved bits and a sat_id in 1..32, word 2 a plausible TOW and a
    subframe id in 1..5. A flipped candidate is read with every bit
    inverted, carry bits included.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n_offs = len(bits) - 2 * WORD_BITS + 1
    if n_offs <= 0:
        return []
    head = bits[:n_offs].copy()
    for k in range(1, PREAMBLE_BITS):
        head = (head << 1) | bits[k : k + n_offs]
    offs = np.flatnonzero((head == PREAMBLE) | (head == PREAMBLE ^ 0xFF))
    inverted = head[offs] != PREAMBLE

    flip = inverted.astype(np.int64)
    words = np.lib.stride_tricks.sliding_window_view(bits, WORD_BITS)
    w1 = (words[offs] @ _BIT_WEIGHTS) ^ (flip * _WORD_MASK)
    w2 = (words[offs + WORD_BITS] @ _BIT_WEIGHTS) ^ (flip * _WORD_MASK)
    has_carry = offs >= 2
    d29 = np.where(has_carry, bits[offs - 2] ^ flip, 0)
    d30 = np.where(has_carry, bits[offs - 1] ^ flip, 0)

    d1 = (w1 >> 6) ^ (d30 * _DATA_MASK)
    ok = _parity_array(d1, d29, d30) == w1 & _PARITY_MASK
    w1_d29, w1_d30 = (w1 >> 1) & 1, w1 & 1
    d2 = (w2 >> 6) ^ (w1_d30 * _DATA_MASK)
    ok &= _parity_array(d2, w1_d29, w1_d30) == w2 & _PARITY_MASK
    ok &= (d1 >> 16 == PREAMBLE) & (d1 & 0x3FF == 0)
    sat_id = (d1 >> 10) & 0x3F
    subframe_id = (d2 >> 2) & 0x7
    ok &= (sat_id >= 1) & (sat_id <= 32)
    ok &= (d2 >> 7 < TOW_COUNT) & (subframe_id >= 1) & (subframe_id <= 5)
    offs, inverted = offs[ok].tolist(), inverted[ok].tolist()
    return [PreambleHit(o, inv) for o, inv in zip(offs, inverted)]


# --- packed bitstream files ----------------------------------------------

_BITSTREAM_MAGIC = b"NAVB"
_BITSTREAM_VERSION = 1
# Version and bit count, after the magic.
_HEADER = struct.Struct(">HQ")


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a bit array MSB-first (first bit becomes bit 7 of byte 0)."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if len(bits) < n_bits:
        raise DecodeError("not enough data for the declared bit count")
    return bits[:n_bits]


def write_bitstream(path, bits: np.ndarray) -> None:
    """Write a packed stream: magic, version, big-endian bit count, bytes."""
    with open(path, "wb") as fh:
        fh.write(_BITSTREAM_MAGIC)
        fh.write(_HEADER.pack(_BITSTREAM_VERSION, len(bits)))
        fh.write(pack_bits(bits))


def read_bitstream(path) -> np.ndarray:
    """Read a stream written by `write_bitstream`; DecodeError if malformed."""
    with open(path, "rb") as fh:
        if fh.read(4) != _BITSTREAM_MAGIC:
            raise DecodeError("bad bitstream magic")
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DecodeError("truncated bitstream header")
        version, n = _HEADER.unpack(header)
        if version != _BITSTREAM_VERSION:
            raise DecodeError(f"unsupported bitstream version {version}")
        return unpack_bits(fh.read(), n)
