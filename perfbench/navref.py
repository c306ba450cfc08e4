"""Independent reference for the L1 navigation-message format.

The bitstream workload builds its input and its expected answers here, not
with the package under test, so a change to the package's encoder cannot
change the inputs it is measured on. Everything is vectorised over many
subframes at once because the generated streams hold thousands of them.

Format (IS-GPS-200 parity; field layout as documented in
``gpssim.nav_message``): 30-bit words of 24 data bits plus 6 parity bits,
chained through the previous word's last two bits D29*, D30*; transmitted
data bits are the source bits XOR D30*. Words 2 and 10 solve their bits 23
and 24 so that their own D29 = D30 = 0.
"""
from __future__ import annotations

import numpy as np

PREAMBLE = 0b10001011
WORD_BITS = 30
SUBFRAME_WORDS = 10
SUBFRAME_BITS = WORD_BITS * SUBFRAME_WORDS
TOW_COUNT = 100_800
PAYLOAD_BYTES = 20

_TAPS = (
    (1, 2, 3, 5, 6, 10, 11, 12, 13, 14, 17, 18, 20, 23),
    (2, 3, 4, 6, 7, 11, 12, 13, 14, 15, 18, 19, 21, 24),
    (1, 3, 4, 5, 7, 8, 12, 13, 14, 15, 16, 19, 20, 22),
    (2, 4, 5, 6, 8, 9, 13, 14, 15, 16, 17, 20, 21, 23),
    (1, 3, 5, 6, 7, 9, 10, 14, 15, 16, 17, 18, 21, 22, 24),
    (3, 5, 6, 8, 9, 10, 11, 13, 15, 19, 22, 23, 24),
)
# Carry bit added into each parity equation: 0 -> D29*, 1 -> D30*.
_CARRY = (0, 1, 0, 1, 1, 0)
_MASKS = tuple(sum(1 << (24 - i) for i in taps) for taps in _TAPS)
_DATA_MASK = (1 << 24) - 1
_BIT_WEIGHTS = 1 << np.arange(WORD_BITS - 1, -1, -1, dtype=np.int64)


def _odd(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64) & 1


def parity(data24: np.ndarray, d29: np.ndarray, d30: np.ndarray) -> np.ndarray:
    """Six parity bits of each source word under its carry bits."""
    carry = (d29, d30)
    out = np.zeros_like(data24)
    for mask, c in zip(_MASKS, _CARRY):
        out = (out << 1) | ((_odd(data24 & mask) + carry[c]) & 1)
    return out


def encode(data24: np.ndarray, d29: np.ndarray, d30: np.ndarray) -> np.ndarray:
    tx = data24 ^ np.where(d30 == 1, _DATA_MASK, 0)
    return (tx << 6) | parity(data24, d29, d30)


def _solve_trailing(data22: np.ndarray, d29: np.ndarray, d30: np.ndarray) -> np.ndarray:
    top = data22 << 2
    d24 = (_odd(top & (_MASKS[4] & ~0b11)) + d30) & 1
    d23 = (_odd(top & (_MASKS[5] & ~0b11)) + d29 + d24) & 1
    return top | (d23 << 1) | d24


def encode_subframes(
    sat: np.ndarray,
    sfid: np.ndarray,
    tow: np.ndarray,
    week: np.ndarray,
    payload: np.ndarray,
    d29: np.ndarray,
    d30: np.ndarray,
) -> np.ndarray:
    """Transmitted bits, shape (n, 300), of n subframes with given carry-in."""
    pay = payload.astype(np.int64)
    sources = [
        ("plain", (PREAMBLE << 16) | (sat << 10)),
        ("solved", (tow << 5) | sfid),
        ("plain", week << 11),
    ]
    for k in range(6):
        chunk = pay[:, 3 * k : 3 * k + 3]
        sources.append(("plain", (chunk[:, 0] << 16) | (chunk[:, 1] << 8) | chunk[:, 2]))
    sources.append(("solved", ((pay[:, 18] << 8) | pay[:, 19]) << 6))

    words = np.empty((len(sat), SUBFRAME_WORDS), dtype=np.int64)
    c29, c30 = d29.astype(np.int64), d30.astype(np.int64)
    for i, (kind, value) in enumerate(sources):
        data = _solve_trailing(value, c29, c30) if kind == "solved" else value
        w = encode(data, c29, c30)
        words[:, i] = w
        c29, c30 = (w >> 1) & 1, w & 1
    shifts = np.arange(WORD_BITS - 1, -1, -1, dtype=np.int64)
    bits = (words[:, :, None] >> shifts) & 1
    return bits.reshape(len(sat), SUBFRAME_BITS).astype(np.uint8)


def preamble_lookalikes(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets where the 8-bit preamble appears, upright and inverted."""
    code = np.zeros(len(bits) - 7, dtype=np.int64)
    for k in range(8):
        code = (code << 1) | bits[k : len(bits) - 7 + k]
    return np.flatnonzero(code == PREAMBLE), np.flatnonzero(code == PREAMBLE ^ 0xFF)


def _words_at(bits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    idx = offsets[:, None] + np.arange(WORD_BITS)
    return bits[idx].astype(np.int64) @ _BIT_WEIGHTS


def valid_boundaries(bits: np.ndarray) -> list[tuple[int, bool]]:
    """Every offset that passes the word-1/word-2 boundary test, either polarity.

    The test: preamble, parity of words 1 and 2 (carry from the two bits
    before the offset, or zero at the stream start), zero TLM reserved bits,
    sat id 1..32, TOW below the weekly count, subframe id 1..5.
    """
    found: list[tuple[int, bool]] = []
    upright, inverted = preamble_lookalikes(bits)
    for offs, inv in ((upright, False), (inverted, True)):
        offs = offs[offs + 2 * WORD_BITS <= len(bits)]
        if len(offs) == 0:
            continue
        w1 = _words_at(bits, offs)
        w2 = _words_at(bits, offs + WORD_BITS)
        lead = np.where(offs >= 2, offs - 2, 0)
        d29 = np.where(offs >= 2, bits[lead], 0).astype(np.int64)
        d30 = np.where(offs >= 2, bits[lead + 1], 0).astype(np.int64)
        if inv:
            flip = (1 << WORD_BITS) - 1
            w1, w2 = w1 ^ flip, w2 ^ flip
            d29 = np.where(offs >= 2, 1 - d29, 0)
            d30 = np.where(offs >= 2, 1 - d30, 0)
        data1 = (w1 >> 6) ^ np.where(d30 == 1, _DATA_MASK, 0)
        ok = parity(data1, d29, d30) == (w1 & 0x3F)
        e29, e30 = (w1 >> 1) & 1, w1 & 1
        data2 = (w2 >> 6) ^ np.where(e30 == 1, _DATA_MASK, 0)
        ok &= parity(data2, e29, e30) == (w2 & 0x3F)
        ok &= (data1 >> 16 == PREAMBLE) & (data1 & 0x3FF == 0)
        sat = (data1 >> 10) & 0x3F
        sfid = (data2 >> 2) & 0x7
        ok &= (sat >= 1) & (sat <= 32) & ((data2 >> 7) < TOW_COUNT)
        ok &= (sfid >= 1) & (sfid <= 5)
        found.extend((int(o), inv) for o in offs[ok])
    return sorted(found)
