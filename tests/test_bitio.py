"""Bit-level writer/reader pair: frozen bytes, edge reads, roundtrips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsc.bitio import BitReader, BitWriter
from swsc.errors import CorruptStreamError


def test_single_nibble_pads_high_bits_first():
    w = BitWriter()
    w.write_bits(0b1110, 4)
    assert w.bit_length == 4
    assert w.finish() == b"\xe0"


def test_flag_then_value_packs_msb_first():
    w = BitWriter()
    w.write_bits(1, 1)
    w.write_bits(0b0101, 4)
    assert w.bit_length == 5
    assert w.finish() == b"\xa8"


def test_multibyte_value_splits_across_bytes():
    w = BitWriter()
    w.write_bits(0xABCD, 16)
    assert w.finish() == b"\xab\xcd"


def test_zero_count_write_is_a_noop():
    w = BitWriter()
    w.write_bits(0, 0)
    assert w.bit_length == 0
    assert w.finish() == b""


def test_finish_is_idempotent():
    w = BitWriter()
    w.write_bits(0b101, 3)
    assert w.finish() == w.finish() == b"\xa0"


def test_output_length_is_ceil_of_bits():
    for nbits in range(0, 25):
        w = BitWriter()
        for _ in range(nbits):
            w.write_bits(1, 1)
        assert len(w.finish()) == (nbits + 7) // 8


@pytest.mark.parametrize("value,count", [
    (-1, 4), (16, 4), (1, 0), (0, -1), (0, 65), (1 << 64, 64),
])
def test_writer_rejects_out_of_range(value, count):
    with pytest.raises(ValueError):
        BitWriter().write_bits(value, count)


def test_reader_peek_and_consume():
    data = b"\xa8"
    r = BitReader(data)
    assert r.position == 0
    assert r.peek_bits(5) == 0b10101
    r.consume(5)
    assert r.position == 5
    assert 8 * len(data) - r.position == 3
    assert r.peek_bits(3) == 0  # the padding bits


def test_peek_zero_fills_past_the_end():
    r = BitReader(b"\xff")
    r.consume(4)
    assert r.peek_bits(8) == 0b11110000
    assert r.peek_bits(12) == 0b111100000000


def test_peek_on_empty_data_is_all_zeros():
    data = b""
    r = BitReader(data)
    assert r.peek_bits(17) == 0
    assert 8 * len(data) - r.position == 0


def test_peek_single_bit_at_byte_boundary():
    r = BitReader(b"\x01")
    r.consume(7)
    assert r.peek_bits(1) == 1


def test_peek_zero_bits_is_zero():
    assert BitReader(b"\x5a").peek_bits(0) == 0


def test_consume_past_end_is_corrupt():
    r = BitReader(b"\xa8")
    r.consume(8)
    with pytest.raises(CorruptStreamError):
        r.consume(1)


def test_consume_rejects_negative():
    with pytest.raises(ValueError):
        BitReader(b"\x00").consume(-1)


def test_consume_checks_the_limit_before_advancing():
    r = BitReader(b"\xf0")
    assert r.peek_bits(4) == 0xF
    r.consume(4)
    with pytest.raises(CorruptStreamError):
        r.consume(5)
    assert r.position == 4  # unchanged by the failed read


def test_peek_count_out_of_range():
    with pytest.raises(ValueError):
        BitReader(b"\x00").peek_bits(65)
    with pytest.raises(ValueError):
        BitReader(b"\x00").peek_bits(-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 64).flatmap(
    lambda c: st.tuples(st.integers(0, (1 << c) - 1), st.just(c))),
    max_size=60))
def test_roundtrip_chunks(chunks):
    w = BitWriter()
    for value, count in chunks:
        w.write_bits(value, count)
    total = sum(c for _, c in chunks)
    assert w.bit_length == total
    payload = w.finish()
    assert len(payload) == (total + 7) // 8
    r = BitReader(payload)
    for value, count in chunks:
        assert r.peek_bits(count) == value
        r.consume(count)
    # whatever padding remains must read as zeros
    assert r.peek_bits(8 * len(payload) - r.position) == 0


_WRITE = st.integers(0, 64).flatmap(
    lambda c: st.tuples(st.integers(0, (1 << c) - 1), st.just(c)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_WRITE, _WRITE, _WRITE, st.sampled_from(["take", "bit_length"])),
                min_size=48, max_size=300))
def test_held_bits_survive_any_interleaving_of_take(ops):
    # writes of ~1,000 to 7,000 bits cross the writer's flush point several
    # times; one big integer of every bit written is the reference
    w, takes = BitWriter(), []
    big = total = 0
    for op in ops:
        if op == "take":  # hands over every whole byte written so far
            takes.append(bytes(w.take()))
            assert 8 * sum(map(len, takes)) == total - total % 8
        elif op == "bit_length":
            assert w.bit_length == total
        else:
            value, count = op
            w.write_bits(value, count)
            big, total = (big << count) | value, total + count
    assert w.bit_length == total
    pad = -total % 8
    assert b"".join(takes) + w.finish() == (big << pad).to_bytes((total + pad) // 8, "big")
    assert w.bit_length == total + pad


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40), st.integers(0, 200), st.integers(0, 64))
def test_peek_matches_big_integer_view(data, skip, count):
    # the zero-extended payload read as one big integer is the reference
    total = 8 * len(data)
    skip = min(skip, total)
    big = int.from_bytes(data, "big")
    tail = total - skip
    if count <= tail:
        want = (big >> (tail - count)) & ((1 << count) - 1)
    else:
        want = (big & ((1 << tail) - 1)) << (count - tail)
    r = BitReader(data)
    r.consume(skip)
    assert r.peek_bits(count) == want
