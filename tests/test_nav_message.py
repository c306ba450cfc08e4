"""Message codec tests.

The parity reference below is an independent transcription of the (32,26)
extended Hamming equations, evaluated bit by bit over lists, so the fast
mask-based production code is checked against a second implementation.
The table-driven parity, the bit packing, the subframe decode and the
preamble scan are checked the same way, against the per-tap, per-bit,
per-word and per-candidate loops kept here as references.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpssim import nav_message as nav
from gpssim.constants import PREAMBLE, SUBFRAME_BITS, TOW_COUNT, WORD_BITS

# d-bit numbers (1..24) feeding each parity bit, plus which carry bit
# (D29* or D30*) seeds it. Transcribed independently of the module tables.
_REF_TAPS = {
    25: ("D29", [1, 2, 3, 5, 6, 10, 11, 12, 13, 14, 17, 18, 20, 23]),
    26: ("D30", [2, 3, 4, 6, 7, 11, 12, 13, 14, 15, 18, 19, 21, 24]),
    27: ("D29", [1, 3, 4, 5, 7, 8, 12, 13, 14, 15, 16, 19, 20, 22]),
    28: ("D30", [2, 4, 5, 6, 8, 9, 13, 14, 15, 16, 17, 20, 21, 23]),
    29: ("D30", [1, 3, 5, 6, 7, 9, 10, 14, 15, 16, 17, 18, 21, 22, 24]),
    30: ("D29", [3, 5, 6, 8, 9, 10, 11, 13, 15, 19, 22, 23, 24]),
}


def ref_parity(data24: int, d29: int, d30: int) -> int:
    bits = [(data24 >> (24 - i)) & 1 for i in range(1, 25)]
    out = 0
    for n in range(25, 31):
        carry_name, taps = _REF_TAPS[n]
        acc = d29 if carry_name == "D29" else d30
        for t in taps:
            acc ^= bits[t - 1]
        out = (out << 1) | acc
    return out


def ref_parity_bits(data24: int, d29_prev: int, d30_prev: int) -> int:
    """Parity as one masked bit count per tap equation."""
    carry = (d29_prev, d30_prev)
    out = 0
    for mask, c in zip(nav._TAP_MASKS, nav._PARITY_CARRY):
        out = (out << 1) | (((data24 & mask).bit_count() + carry[c]) & 1)
    return out


def ref_word_to_bits(word30: int) -> np.ndarray:
    return np.array(
        [(word30 >> (WORD_BITS - 1 - i)) & 1 for i in range(WORD_BITS)],
        dtype=np.uint8,
    )


def ref_bits_to_word(bits) -> int:
    word = 0
    for b in bits:
        word = (word << 1) | int(b)
    return word


def ref_subframe_bits(sf: nav.Subframe) -> np.ndarray:
    return np.concatenate([ref_word_to_bits(w) for w in sf.words])


def ref_decode_subframe(bits, *, d29_prev: int = 0, d30_prev: int = 0) -> nav.Subframe:
    """Decode word by word: pack each word on its own, then check it."""
    if len(bits) != SUBFRAME_BITS:
        raise ValueError("expected 300 bits")
    words = [ref_bits_to_word(bits[30 * i : 30 * i + 30]) for i in range(10)]
    data = []
    d29, d30 = d29_prev, d30_prev
    for i, w in enumerate(words):
        try:
            data.append(nav.check_word(w, d29, d30))
        except nav.ParityError as exc:
            raise nav.ParityError(f"word {i + 1}: {exc}") from exc
        d29, d30 = (w >> 1) & 1, w & 1
    if data[0] >> 16 != PREAMBLE:
        raise nav.DecodeError("missing preamble")
    pay = bytearray()
    for d in data[3:9]:
        pay += bytes(((d >> 16) & 0xFF, (d >> 8) & 0xFF, d & 0xFF))
    pay += bytes((data[9] >> 16, (data[9] >> 8) & 0xFF))
    return nav.Subframe(
        (data[0] >> 10) & 0x3F,
        (data[1] >> 2) & 0x7,
        data[1] >> 7,
        data[2] >> 11,
        bytes(pay),
        tuple(words),
    )


def ref_candidate_ok(bits: np.ndarray, off: int, inverted: bool) -> bool:
    """Validate one preamble candidate against the word-1/word-2 structure."""
    if off + 2 * WORD_BITS > len(bits):
        return False
    window = bits[max(off - 2, 0) : off + 2 * WORD_BITS]
    if inverted:
        window = 1 - window
    lead = off - max(off - 2, 0)
    d29, d30 = (0, 0) if lead < 2 else (int(window[0]), int(window[1]))
    w1 = ref_bits_to_word(window[lead : lead + WORD_BITS])
    w2 = ref_bits_to_word(window[lead + WORD_BITS : lead + 2 * WORD_BITS])
    try:
        d1 = nav.check_word(w1, d29, d30)
        d2 = nav.check_word(w2, (w1 >> 1) & 1, w1 & 1)
    except nav.ParityError:
        return False
    if d1 >> 16 != PREAMBLE or d1 & 0x3FF:
        return False
    if not 1 <= (d1 >> 10) & 0x3F <= 32:
        return False
    return (d2 >> 7) < TOW_COUNT and 1 <= (d2 >> 2) & 0x7 <= 5


def ref_boundaries(bits) -> list[nav.PreambleHit]:
    """Every offset carrying the preamble in either polarity, each checked
    on its own by `ref_candidate_ok`."""
    bits = np.asarray(bits, dtype=np.uint8)
    pattern = [(PREAMBLE >> (7 - i)) & 1 for i in range(8)]
    hits = []
    for off in range(len(bits) - 7):
        head = bits[off : off + 8].tolist()
        for inverted, want in ((False, pattern), (True, [1 - b for b in pattern])):
            if head == want and ref_candidate_ok(bits, off, inverted):
                hits.append(nav.PreambleHit(off, inverted))
    return hits


def test_zero_word_zero_carries_has_zero_parity():
    assert nav.parity_bits(0, 0, 0) == 0
    assert nav.encode_word(0, 0, 0) == 0


@pytest.mark.parametrize("d29,d30", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_parity_matches_reference_implementation(d29, d30):
    rng = np.random.default_rng(101)
    for _ in range(300):
        data = int(rng.integers(0, 1 << 24))
        assert nav.parity_bits(data, d29, d30) == ref_parity(data, d29, d30)


@pytest.mark.parametrize("d29,d30", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_array_parity_equals_scalar_parity(d29, d30):
    rng = np.random.default_rng(17)
    edges = [0, nav._DATA_MASK] + [1 << k for k in range(24)]
    data = np.concatenate([edges, rng.integers(0, 1 << 24, 4000)]).astype(np.int64)
    carry = np.ones_like(data)
    got = nav._parity_array(data, d29 * carry, d30 * carry)
    assert got.tolist() == [nav.parity_bits(int(d), d29, d30) for d in data]


@given(
    rows=st.lists(
        st.tuples(st.integers(0, (1 << 24) - 1), st.integers(0, 1), st.integers(0, 1)),
        min_size=1,
        max_size=40,
    )
)
def test_array_parity_with_mixed_carries(rows):
    data, d29, d30 = (np.array(col, dtype=np.int64) for col in zip(*rows))
    got = nav._parity_array(data, d29, d30)
    assert got.tolist() == [nav.parity_bits(*row) for row in rows]


_CARRIES = [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("shift", [16, 8, 0])
@pytest.mark.parametrize("d29,d30", _CARRIES)
def test_table_parity_equals_per_tap_loop_on_every_byte(shift, d29, d30):
    """Parity is linear over GF(2), so every byte value in every byte
    position with every carry pair covers all inputs."""
    data = [v << shift for v in range(256)]
    want = [ref_parity_bits(d, d29, d30) for d in data]
    assert [nav.parity_bits(d, d29, d30) for d in data] == want
    n = len(data)
    got = nav._parity_array(
        np.array(data, dtype=np.int64),
        np.full(n, d29, dtype=np.int64),
        np.full(n, d30, dtype=np.int64),
    )
    assert got.tolist() == want


@given(
    data=st.integers(0, (1 << 24) - 1) | st.integers(-(1 << 40), 1 << 40),
    d29=st.integers(0, 1) | st.integers(-3, 3),
    d30=st.integers(0, 1) | st.integers(-3, 3),
)
def test_table_parity_equals_per_tap_loop(data, d29, d30):
    """Also outside the domain: both read only the low 24 data bits and the
    low bit of each carry."""
    assert nav.parity_bits(data, d29, d30) == ref_parity_bits(data, d29, d30)


def test_encode_complements_data_when_d30_set():
    data = 0xABCDEF
    plain = nav.encode_word(data, 0, 0)
    flipped = nav.encode_word(data, 0, 1)
    assert (plain >> 6) & 0xFFFFFF == data
    assert (flipped >> 6) & 0xFFFFFF == data ^ 0xFFFFFF


def test_check_word_recovers_data_and_rejects_single_flips():
    rng = np.random.default_rng(7)
    for _ in range(50):
        data = int(rng.integers(0, 1 << 24))
        d29, d30 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        word = nav.encode_word(data, d29, d30)
        assert nav.check_word(word, d29, d30) == data
        for pos in range(30):
            with pytest.raises(nav.ParityError):
                nav.check_word(word ^ (1 << pos), d29, d30)


def test_double_flips_are_detected():
    # Minimum distance 4: any two flipped bits still fail the check.
    word = nav.encode_word(0x5A5A5A, 1, 0)
    for i in range(30):
        for j in range(i + 1, 30):
            with pytest.raises(nav.ParityError):
                nav.check_word(word ^ (1 << i) ^ (1 << j), 1, 0)


@given(
    data=st.integers(0, (1 << 24) - 1),
    d29=st.integers(0, 1),
    d30=st.integers(0, 1),
)
def test_encode_check_round_trip(data, d29, d30):
    assert nav.check_word(nav.encode_word(data, d29, d30), d29, d30) == data


@pytest.mark.parametrize("d29", [0, 1, 2, 3])
@pytest.mark.parametrize("d30", [2, 3])
def test_word_codec_reads_only_the_low_carry_bit(d29, d30):
    """Like parity_bits, encode_word and check_word read only bit 0 of each
    carry, so carries 2 and 3 act as 0 and 1."""
    rng = np.random.default_rng(d29 * 4 + d30)
    for data in [0, 0xFFFFFF, *rng.integers(0, 1 << 24, 200).tolist()]:
        word = nav.encode_word(data, d29, d30)
        assert word == nav.encode_word(data, d29 & 1, d30 & 1)
        assert nav.check_word(word, d29, d30) == data
        assert nav.check_word(word, d29 & 1, d30 & 1) == data


@given(
    data22=st.integers(0, (1 << 22) - 1),
    d29=st.integers(0, 1),
    d30=st.integers(0, 1),
)
def test_solved_trailing_bits_force_zero_carries(data22, d29, d30):
    data24 = nav.solve_trailing_bits(data22, d29, d30)
    assert data24 >> 2 == data22
    word = nav.encode_word(data24, d29, d30)
    assert word & 0b11 == 0  # D29 and D30 both zero


def test_inverted_stream_decodes_to_same_data():
    """Polarity ambiguity: inverting a word and its carry bits must still
    pass parity, and the complement convention recovers the original data."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        data = int(rng.integers(0, 1 << 24))
        word = nav.encode_word(data, 0, 0)
        inverted = word ^ ((1 << 30) - 1)
        assert nav.check_word(inverted, 1, 1) == data


@given(word=st.integers(0, (1 << WORD_BITS) - 1))
def test_word_bit_conversions_equal_reference_loops(word):
    bits = nav.word_to_bits(word)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, ref_word_to_bits(word))
    assert nav.bits_to_word(bits) == ref_bits_to_word(bits) == word
    assert nav.bits_to_word(bits.tolist()) == word
    assert nav.bits_to_word(bits.astype(bool)) == word


@pytest.mark.parametrize("n", [0, 29, 31, 60])
def test_bits_to_word_rejects_wrong_length(n):
    with pytest.raises(ValueError):
        nav.bits_to_word(np.zeros(n, dtype=np.uint8))


@pytest.mark.parametrize("n", range(1, 13))
def test_bits_to_word_rows_equal_row_by_row(n):
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 2, (n, WORD_BITS), dtype=np.uint8)
    rows[0] = 1  # an all-ones word and random ones
    want = [nav.bits_to_word(row) for row in rows]
    assert want == [ref_bits_to_word(row) for row in rows]
    got = nav.bits_to_word(rows)
    assert isinstance(got, list) and got == want
    assert nav.bits_to_word(rows.tolist()) == want
    assert nav.bits_to_word(rows.astype(bool)) == want


@pytest.mark.parametrize("width", [0, 29, 31, 60])
def test_bits_to_word_rejects_wrong_row_width(width):
    with pytest.raises(ValueError):
        nav.bits_to_word(np.zeros((3, width), dtype=np.uint8))


# --- subframes ----------------------------------------------------------------


def _subframe(tow=2679, sat_id=5, sfid=1, week=1234, payload=b"\x11" * 20):
    return nav.build_subframe(sat_id, sfid, tow, week, payload)


def test_subframe_is_exactly_300_bits():
    bits = nav.subframe_bits(_subframe())
    assert bits.shape == (SUBFRAME_BITS,)
    assert set(np.unique(bits)) <= {0, 1}


def test_subframe_round_trip_preserves_fields():
    sf = _subframe(tow=2679, sat_id=17, sfid=3, week=901, payload=bytes(range(20)))
    out = nav.decode_subframe(nav.subframe_bits(sf))
    assert (out.sat_id, out.subframe_id, out.tow, out.week_number) == (17, 3, 2679, 901)
    assert out.payload == bytes(range(20))


def test_handover_reports_built_tow():
    for tow in (2679, 0, TOW_COUNT - 1):
        assert nav.decode_subframe(nav.subframe_bits(_subframe(tow=tow))).tow == tow


def test_every_subframe_word_checks_with_zero_carryin():
    """Words 2 and 10 solve their trailing bits, so a decoder may assume
    zero carry bits at any subframe start."""
    sf = _subframe(tow=41, sfid=4, payload=b"\xff" * 20)
    bits = nav.subframe_bits(sf)
    words = [nav.bits_to_word(bits[i * 30 : (i + 1) * 30]) for i in range(10)]
    d29 = d30 = 0
    for w in words:
        nav.check_word(w, d29, d30)
        d29, d30 = (w >> 1) & 1, w & 1
    assert (words[1] & 0b11, words[9] & 0b11) == (0, 0)


@given(
    sat_id=st.integers(1, 32),
    sfid=st.integers(1, 5),
    tow=st.integers(0, TOW_COUNT - 1),
    week=st.integers(0, 8191),
    payload=st.binary(min_size=0, max_size=20),
)
@settings(max_examples=200)
def test_build_decode_round_trip_property(sat_id, sfid, tow, week, payload):
    sf = nav.build_subframe(sat_id, sfid, tow, week, payload)
    out = nav.decode_subframe(nav.subframe_bits(sf))
    assert out.sat_id == sat_id
    assert out.subframe_id == sfid
    assert out.tow == tow
    assert out.week_number == week
    assert out.payload == payload.ljust(20, b"\x00")


@given(
    sat_id=st.integers(1, 32),
    sfid=st.integers(1, 5),
    tow=st.integers(0, TOW_COUNT - 1),
    week=st.integers(0, 8191),
    payload=st.binary(min_size=0, max_size=20),
    d29=st.integers(0, 1),
    d30=st.integers(0, 1),
)
def test_subframe_bits_equal_reference_loop(sat_id, sfid, tow, week, payload, d29, d30):
    sf = nav.build_subframe(sat_id, sfid, tow, week, payload, d29_prev=d29, d30_prev=d30)
    bits = nav.subframe_bits(sf)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, ref_subframe_bits(sf))


def _decode_outcome(decode, bits, d29, d30):
    """Fields and words of a decode, or its exception's type and message."""
    try:
        sf = decode(bits, d29_prev=d29, d30_prev=d30)
    except ValueError as exc:
        return type(exc), str(exc)
    return sf, sf.words


@pytest.mark.parametrize("d29,d30", _CARRIES)
def test_decode_equals_per_word_reference_for_every_bit_flip(d29, d30):
    sf = nav.build_subframe(
        17, 3, 2679, 901, bytes(range(20)), d29_prev=d29, d30_prev=d30
    )
    bits = nav.subframe_bits(sf)
    assert _decode_outcome(nav.decode_subframe, bits, d29, d30) == (sf, sf.words)
    for k in range(SUBFRAME_BITS):
        flipped = bits.copy()
        flipped[k] ^= 1
        want = _decode_outcome(ref_decode_subframe, flipped, d29, d30)
        assert want[0] is nav.ParityError
        assert _decode_outcome(nav.decode_subframe, flipped, d29, d30) == want


@given(
    data=st.lists(st.integers(0, (1 << 24) - 1), min_size=10, max_size=10),
    preamble=st.booleans(),
    d29=st.integers(0, 1),
    d30=st.integers(0, 1),
    as_list=st.booleans(),
)
@settings(max_examples=200)
def test_decode_equals_per_word_reference_on_arbitrary_words(data, preamble, d29, d30, as_list):
    """Words with valid parity but arbitrary fields reach every DecodeError."""
    if preamble:
        data[0] = (PREAMBLE << 16) | (data[0] & 0xFFFF)
    words, c29, c30 = [], d29, d30
    for d in data:
        words.append(nav.encode_word(d, c29, c30))
        c29, c30 = (words[-1] >> 1) & 1, words[-1] & 1
    bits = np.concatenate([ref_word_to_bits(w) for w in words])
    if as_list:
        bits = bits.tolist()
    want = _decode_outcome(ref_decode_subframe, bits, d29, d30)
    assert _decode_outcome(nav.decode_subframe, bits, d29, d30) == want


def test_build_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        nav.build_subframe(0, 1, 0, 0, b"")
    with pytest.raises(ValueError):
        nav.build_subframe(1, 6, 0, 0, b"")
    with pytest.raises(ValueError):
        nav.build_subframe(1, 1, TOW_COUNT, 0, b"")
    with pytest.raises(ValueError):
        nav.build_subframe(1, 1, 0, 0, b"\x00" * 21)


def test_tow_increments_across_generated_run():
    towgen = 500
    previous = None
    for k in range(25):
        sf = nav.build_subframe(9, k % 5 + 1, towgen + k, 100, b"")
        tow = nav.decode_subframe(nav.subframe_bits(sf)).tow
        if previous is not None:
            assert tow == previous + 1
        previous = tow


# --- preamble scanning --------------------------------------------------------


def _stream(n_subframes=4, start_tow=2679, sat_id=8, invert=False):
    chunks = []
    for k in range(n_subframes):
        sf = nav.build_subframe(sat_id, k % 5 + 1, start_tow + k, 55, b"\x3c" * 20)
        chunks.append(nav.subframe_bits(sf))
    bits = np.concatenate(chunks)
    return (1 - bits) if invert else bits


def test_scanner_finds_constructed_offset():
    prefix = np.array([0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0], dtype=np.uint8)
    stream = np.concatenate([prefix, _stream()])
    hits = nav.find_subframe_boundaries(stream)
    assert hits[:1] == [nav.PreambleHit(len(prefix), False)]


def test_scanner_flags_inverted_stream():
    hits = nav.find_subframe_boundaries(_stream(invert=True))
    assert hits[:1] == [nav.PreambleHit(0, True)]


def test_scanner_rejects_pattern_with_bad_handover():
    """An 8-bit preamble match alone must not count as frame lock."""
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 5000).astype(np.uint8)
    pattern = [(PREAMBLE >> (7 - i)) & 1 for i in range(8)]
    bits[100:108] = pattern
    # Scribble over the rest of word 1 and word 2 so validation cannot pass.
    bits[108:160] = rng.integers(0, 2, 52).astype(np.uint8)
    assert nav.find_subframe_boundaries(bits) == []


def test_boundary_listing_reports_every_subframe():
    stream = _stream(n_subframes=6)
    hits = nav.find_subframe_boundaries(stream)
    assert [h.offset for h in hits] == [300 * k for k in range(6)]
    assert all(not h.inverted for h in hits)


def test_scanner_handles_short_streams():
    assert nav.find_subframe_boundaries(np.array([], dtype=np.uint8)) == []
    assert nav.find_subframe_boundaries(np.array([1, 0, 0], dtype=np.uint8)) == []
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 8, 59, 60, 61):
        for bits in (
            np.zeros(n, np.uint8),
            rng.integers(0, 2, n, dtype=np.uint8),
            _stream(n_subframes=1)[:n],
        ):
            want = ref_boundaries(bits)
            assert nav.find_subframe_boundaries(bits) == want
            assert nav.find_subframe_boundaries(list(bits)) == want


def _embed(segments, rng):
    """Junk bits with subframes embedded in either polarity. Each subframe
    chains its parity from the two stream bits before it, as read in its
    own polarity, so most embedded subframes are real boundaries."""
    out = np.empty(0, dtype=np.uint8)
    for junk, sat_id, sfid, tow, invert, truncate in segments:
        out = np.concatenate([out, rng.integers(0, 2, junk, dtype=np.uint8)])
        prev = out[-2:].tolist() if len(out) >= 2 else [0, 0]
        if invert:
            prev = [1 - b for b in prev]
        sf = nav.build_subframe(
            sat_id, sfid, tow, 77, b"\x5a" * 20, d29_prev=prev[0], d30_prev=prev[1]
        )
        bits = nav.subframe_bits(sf)
        if invert:
            bits = 1 - bits
        out = np.concatenate([out, bits[: SUBFRAME_BITS - truncate]])
    return out


_segments = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 3), st.integers(0, 400)),  # junk before it
        st.integers(1, 32),
        st.integers(1, 5),
        st.integers(0, TOW_COUNT - 1),
        st.booleans(),  # inverted
        st.one_of(st.just(0), st.integers(200, 300)),  # bits cut from its end
    ),
    max_size=6,
)


@given(segments=_segments, tail=st.integers(0, 200), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_scanners_equal_per_candidate_reference(segments, tail, seed):
    rng = np.random.default_rng(seed)
    bits = _embed(segments, rng)
    bits = np.concatenate([bits, rng.integers(0, 2, tail, dtype=np.uint8)])
    want = ref_boundaries(bits)
    assert nav.find_subframe_boundaries(bits) == want
    assert nav.find_subframe_boundaries(bits.tolist()) == want


@pytest.mark.parametrize("lead", [0, 1, 2])
@pytest.mark.parametrize("invert", [False, True])
def test_scanners_equal_reference_at_stream_start(lead, invert):
    """Offsets 0 and 1 chain from an assumed (0, 0) carry; from offset 2 on
    the carry is the two stream bits before the candidate."""
    for carry in ((0, 0), (0, 1), (1, 0), (1, 1)):
        sf = nav.build_subframe(3, 2, 900, 77, b"", d29_prev=carry[0], d30_prev=carry[1])
        prefix = np.array(carry[2 - lead :], dtype=np.uint8)
        bits = np.concatenate([prefix, nav.subframe_bits(sf)])
        if invert:
            bits = 1 - bits
        want = ref_boundaries(bits)
        assert nav.find_subframe_boundaries(bits) == want
        if lead == 2 or carry == (0, 0):
            assert want[0] == nav.PreambleHit(lead, invert ^ carry[1])


@pytest.mark.parametrize(
    "sat_id,reserved,tow,sfid,valid",
    [
        (1, 0, 0, 1, True),
        (32, 0, TOW_COUNT - 1, 5, True),
        (0, 0, 0, 1, False),
        (33, 0, 0, 1, False),
        (5, 1, 0, 1, False),
        (5, 0x200, 0, 1, False),
        (5, 0, TOW_COUNT, 1, False),
        (5, 0, (1 << 17) - 1, 1, False),
        (5, 0, 0, 0, False),
        (5, 0, 0, 6, False),
    ],
)
def test_scanners_check_word_one_and_two_fields(sat_id, reserved, tow, sfid, valid):
    """Words 1 and 2 that pass parity still need plausible fields."""
    w1 = nav.encode_word((PREAMBLE << 16) | (sat_id << 10) | reserved, 1, 1)
    w2 = nav.encode_word((tow << 7) | (sfid << 2), (w1 >> 1) & 1, w1 & 1)
    body = np.concatenate([[1, 1], nav.word_to_bits(w1), nav.word_to_bits(w2)])
    for bits in (body, 1 - body):
        want = ref_boundaries(bits)
        assert [h.offset for h in want] == ([2] if valid else [])
        assert nav.find_subframe_boundaries(bits) == want


@pytest.mark.parametrize("cut", [0, 1, 2, 30, 59, 60, 61, 240])
def test_scanners_drop_candidates_running_past_the_end(cut):
    stream = _stream(n_subframes=2)[: 300 + 60 + 60 - cut]
    want = ref_boundaries(stream)
    assert [h.offset for h in want] == ([0, 300] if cut <= 60 else [0])
    assert nav.find_subframe_boundaries(stream) == want


# --- bitstream files ----------------------------------------------------------


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 301).astype(np.uint8)
    assert np.array_equal(nav.unpack_bits(nav.pack_bits(bits), len(bits)), bits)


def test_bitstream_file_round_trip(tmp_path):
    bits = _stream(n_subframes=2)
    path = tmp_path / "capture.navb"
    nav.write_bitstream(path, bits)
    assert np.array_equal(nav.read_bitstream(path), bits)


def test_bitstream_rejects_foreign_file(tmp_path):
    path = tmp_path / "noise.bin"
    for blob in (
        b"\x00" * 64,
        b"NAVB\x00\x01",  # shorter than its 14-byte header
        b"NAVB\x00\x01" + (1000).to_bytes(8, "big") + b"\xff" * 2,  # short payload
    ):
        path.write_bytes(blob)
        with pytest.raises(nav.DecodeError):
            nav.read_bitstream(path)
