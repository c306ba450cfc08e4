"""Message codec tests.

The parity reference below is an independent transcription of the (32,26)
extended Hamming equations, evaluated bit by bit over lists, so the fast
mask-based production code is checked against a second implementation.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpssim import nav_message as nav
from gpssim.constants import PREAMBLE, SUBFRAME_BITS, TOW_COUNT

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


def test_zero_word_zero_carries_has_zero_parity():
    assert nav.parity_bits(0, 0, 0) == 0
    assert nav.encode_word(0, 0, 0) == 0


@pytest.mark.parametrize("d29,d30", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_parity_matches_reference_implementation(d29, d30):
    rng = np.random.default_rng(101)
    for _ in range(300):
        data = int(rng.integers(0, 1 << 24))
        assert nav.parity_bits(data, d29, d30) == ref_parity(data, d29, d30)


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
    assert nav.extract_handover(_subframe(tow=2679))[0] == 2679
    assert nav.extract_handover(_subframe(tow=0))[0] == 0


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
        tow, _ = nav.extract_handover(sf)
        if previous is not None:
            assert tow == previous + 1
        previous = tow


# --- cursor -------------------------------------------------------------------


def test_cursor_advances_through_word_and_subframe_boundaries():
    c = nav.BitstreamCursor(10, 29, 77)
    c.advance_bits(1)
    assert (c.word_index, c.bit_index, c.tow_current) == (1, 0, 78)
    c.advance_bits(300)
    assert (c.word_index, c.bit_index, c.tow_current) == (1, 0, 79)
    c.advance_bits(31)
    assert (c.word_index, c.bit_index, c.tow_current) == (2, 1, 79)


def test_cursor_tow_wraps_at_week():
    c = nav.BitstreamCursor(10, 29, TOW_COUNT - 1)
    c.advance_bits(1)
    assert c.tow_current == 0


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
    hit = nav.scan_for_preamble(stream)
    assert hit is not None
    assert hit.offset == len(prefix)
    assert not hit.inverted


def test_scanner_flags_inverted_stream():
    hit = nav.scan_for_preamble(_stream(invert=True))
    assert hit == nav.PreambleHit(0, True)


def test_scanner_rejects_pattern_with_bad_handover():
    """An 8-bit preamble match alone must not count as frame lock."""
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 5000).astype(np.uint8)
    pattern = [(PREAMBLE >> (7 - i)) & 1 for i in range(8)]
    bits[100:108] = pattern
    # Scribble over the rest of word 1 and word 2 so validation cannot pass.
    bits[108:160] = rng.integers(0, 2, 52).astype(np.uint8)
    assert nav.scan_for_preamble(bits) is None


def test_boundary_listing_reports_every_subframe():
    stream = _stream(n_subframes=6)
    hits = nav.find_subframe_boundaries(stream)
    assert [h.offset for h in hits] == [300 * k for k in range(6)]
    assert all(not h.inverted for h in hits)


def test_scanner_handles_short_streams():
    assert nav.scan_for_preamble(np.array([], dtype=np.uint8)) is None
    assert nav.scan_for_preamble(np.array([1, 0, 0], dtype=np.uint8)) is None


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
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(nav.DecodeError):
        nav.read_bitstream(path)
