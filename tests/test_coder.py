"""Stream coder: frozen bytes, lockstep state, corruption handling."""

import contextlib
import hashlib
import io
import os
import random
import re
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsc import coder, vector
from swsc.analysis import oracle_state
from swsc.bitio import BitReader, BitWriter
from swsc.codebook import Codebook, codeword_length
from swsc.coder import (HEADER_BYTES, CoderReport, CoderState, Decoder, Encoder,
                        decode_stream, encode_stream, encode_to_bytes, read_header,
                        read_symbol_chunks, write_header, write_symbols)
from swsc.corpus import generate
from swsc.dictionary import CodeRecord, TrieDictionary, choose_backend
from swsc.errors import (CorruptStreamError, InternalInconsistencyError, ParameterError,
                         SwscError)
from swsc.params import CoderParams, derive_params
from test_dictionary import _recount_trie

TINY_STREAM_HEX = (
    "53575343010002000000020000000100000001010300000000000000"
    "000000000000f03f0100000028"
)
LITERAL_STREAM_HEX = (
    "53575343010000010000000500005000000004080100000000000000"
    "00000000000000400a0000002080"
)


def test_tiny_stream_frozen_bytes():
    p = derive_params(2, 1.0, 1)
    blob, report = encode_to_bytes(p, [0, 0, 0])
    assert blob.hex() == TINY_STREAM_HEX
    assert report.payload_bits == 5
    assert report.payload_bytes == 1
    assert report.literal_count == 1
    assert report.coded_count == 2
    out, dreport = decode_stream(blob)
    assert out == [0, 0, 0]
    assert dreport.payload_bits == 5


def test_literal_stream_frozen_bytes():
    # flag 0 then the 8-bit index 0x41; independent of any window state
    out, report = decode_stream(bytes.fromhex(LITERAL_STREAM_HEX))
    assert out == [65]
    assert report.payload_bits == 9
    assert report.literal_count == 1
    p = derive_params(256, 2.0, 10)
    blob, _ = encode_to_bytes(p, [65])
    assert blob.hex() == LITERAL_STREAM_HEX


# reports frozen from the per-symbol coder the chunk loop replaced, which
# did the touch and Kraft bookkeeping on every step
@pytest.mark.parametrize("knobs,digest,enc,dec", [
    ((64, 2.0, 2, 1.0), "549c86426078f4ed",
     (18754, 2345, 2285, 715, 3, 1789, 7, 5044), (2605, 9)),
    ((256, 1.0, 1, 1.2), "96a8bd218dc760c3",
     (20624, 2578, 839, 2161, 34, 4088, 11, 13912), (8454, 14)),
])
def test_reports_frozen(knobs, digest, enc, dec):
    sigma, lam, c, s = knobs
    syms = generate("zipf", sigma=sigma, n=3000, seed=21, s=s).tolist()
    blob, ereport = encode_to_bytes(derive_params(sigma, lam, c), syms)
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
    bits, nbytes, literals, coded, size, touches, step, cost = enc
    assert ereport == CoderReport(3000, bits, nbytes, literals, coded, size,
                                  touches, step, cost)
    out, dreport = decode_stream(blob)
    assert out == syms
    assert dreport == CoderReport(3000, bits, nbytes, literals, coded, size,
                                  *dec, cost)


# v1 conformance: per sigma, 8 hex digits for each stream of CONFORMANCE_STREAMS
# in order. A change of format on purpose updates them and says why.
CONFORMANCE_DIGESTS = {
    3: "fa3f0b846c3b15883ec8088e717f653f285c8eef1073b869090cd1cc39ba2fc1d712a823",
    256: "d35d503bf4d675ba9c84cb83acd63f9b46b340b080d58da980e14afd45cf788a0fbbb39b",
    4096: "485c57795e2408f3f6dd904c490df6bf18c4c52585ba56e9c8e9491231241634e6a2948d",
    65536: "f04d5074c923dd8f9d1bec64a7cdab3a8799660b3231c71c72422db4cacf94fda1758ffe",
    70000: "c3495d44ced3b53f47beca7520dcefdc51e1020026654966ff28a421ba7cdbde2c70ca96",
    2**24: "32c3ea123e1747d60ffcf1e35fbc5ce5b9564408d7ba2d64cdc0b8de111598a3e230fae8",
}
CONFORMANCE_STREAMS = [(dist, lam) for dist in ("uniform", "zipf", "markov")
                       for lam in (1.0, 2.0, 3.0)]


def _conformance_digits(monkeypatch, p, symbols):
    """8 hex digits over a stream's bytes, reports and decode outcomes.

    They hash the block encoder's bytes and report, the loop's report after
    each 7-symbol encode_chunk, and the Decoder outcome of the stream
    whole, with each of three payload bit flips and cut at 2/3 of its
    payload, at _CHUNK 7 and at the default. The block encoder at _CHUNK 7
    and the decoders with numpy hidden must give the same.
    """
    h = hashlib.sha256()
    blob, report = encode_to_bytes(p, symbols)  # numpy is loaded: the block encoder
    h.update(blob + repr(report).encode())
    with monkeypatch.context() as m:
        m.setattr(coder, "_CHUNK", 7)
        assert encode_to_bytes(p, symbols) == (blob, report), "the block encoder at _CHUNK 7"
    state, writer = CoderState(p), BitWriter()
    for lo in range(0, len(symbols), 7):
        h.update(repr(state.encode_chunk(symbols[lo:lo + 7], writer)).encode())
    payload = len(blob) - HEADER_BYTES
    streams = {"whole": blob, "cut": blob[:HEADER_BYTES + 2 * payload // 3]}
    for k in (1, 2, 3):
        bit = 8 * HEADER_BYTES + k * 8 * payload // 4
        flipped = bytearray(blob)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        streams[f"flip {k}"] = bytes(flipped)
    for name, stream in streams.items():
        for chunk in (7, coder._CHUNK):
            with monkeypatch.context() as m:
                m.setattr(coder, "_CHUNK", chunk)
                got = _outcome(stream)
                with _numpy_hidden():
                    assert _outcome(stream) == got, f"{name} at _CHUNK {chunk}, numpy hidden"
            h.update(repr(got).encode())
    return h.hexdigest()[:8]


@pytest.mark.parametrize("sigma", sorted(CONFORMANCE_DIGESTS))
def test_v1_conformance_digest(monkeypatch, sigma):
    # sigma x {uniform, zipf, markov with min(sigma, 8) states} x lambda {1, 2, 3},
    # c 1, 1,500 symbols from seed sigma mod 97
    digits = []
    for dist, lam in CONFORMANCE_STREAMS:
        kw = {"states": min(sigma, 8)} if dist == "markov" else {}
        symbols = generate(dist, sigma=sigma, n=1500, seed=sigma % 97, **kw).tolist()
        digits.append(_conformance_digits(monkeypatch, derive_params(sigma, lam, 1), symbols))
    want = CONFORMANCE_DIGESTS[sigma]
    for i, (dist, lam) in enumerate(CONFORMANCE_STREAMS):
        assert digits[i] == want[8 * i:8 * i + 8], (
            f"first differing stream: {dist} lambda {lam:g}; digest {''.join(digits)}")


def test_distinct_literals_cost_width_plus_flag():
    p = derive_params(256, 2.0, 10)
    blob, report = encode_to_bytes(p, [10, 20, 30, 40, 50])
    assert report.payload_bits == 45  # 5 * (1 + 8)
    assert report.payload_bytes == 6
    assert report.literal_count == 5
    assert report.coded_count == 0
    assert report.max_code_size == 0


def test_stepped_symbols_count_in_a_later_report():
    p = derive_params(256, 2.0, 10)
    state = CoderState(p)
    for a in (10, 20, 30):
        state.step_update(a)
    report = state.encode_chunk([40, 50], BitWriter())
    assert (report.literal_count, report.coded_count) == (5, 0)
    assert (report.payload_bits, report.cost_units) == (45, 5)


def test_mid_stream_decode_reports_the_bytes_read_so_far():
    p = derive_params(256, 2.0, 10)
    syms = generate("zipf", sigma=256, n=1000, seed=5).tolist()
    blob, _ = encode_to_bytes(p, syms)
    _, dreport = CoderState(p).decode_chunk(BitReader(blob[HEADER_BYTES:]), 10)
    ereport = CoderState(p).encode_chunk(syms[:10], BitWriter())
    assert dreport == ereport
    assert dreport.payload_bytes == (dreport.payload_bits + 7) // 8


def test_empty_input_roundtrips():
    p = derive_params(256, 2.0, 10)
    blob, report = encode_to_bytes(p, [])
    assert report.payload_bits == 0
    assert len(blob) == HEADER_BYTES
    out, dreport = decode_stream(blob)
    assert out == []
    assert dreport.n == 0


def test_header_roundtrip():
    p = derive_params(4096, 1.5, 2)
    buf = io.BytesIO()
    write_header(buf, p, 12345)
    q, n = read_header(buf.getvalue())
    assert q == p
    assert buf.getvalue()[5] == 0  # sigma 4096 selects the trie
    assert n == 12345


def test_header_holds_the_largest_sigma():
    p = derive_params(2**32 - 1, 2.0, 10)
    buf = io.BytesIO()
    write_header(buf, p, 0)
    assert read_header(buf.getvalue()) == (p, 0)
    assert buf.getvalue()[5] == 1  # sigma above 2^16 selects the hashed table


@pytest.mark.parametrize("mangle,message", [
    (lambda b: b"XWSC" + b[4:], "bad magic"),
    (lambda b: b[:4] + b"\x02" + b[5:], "unsupported version"),
    (lambda b: b[:5] + b"\x07" + b[6:], "unknown backend"),
    (lambda b: b[:10], "header truncated"),
    (lambda b: b"", "header truncated"),
    # zero the threshold field (bytes 14..17)
    (lambda b: b[:14] + b"\x00\x00\x00\x00" + b[18:], "inconsistent header"),
])
def test_header_corruption_detected(mangle, message):
    p = derive_params(256, 2.0, 10)
    blob, _ = encode_to_bytes(p, [1, 2, 3])
    with pytest.raises(CorruptStreamError, match=message):
        decode_stream(mangle(blob))


def test_truncated_payload_names_the_failing_symbol():
    p = derive_params(256, 2.0, 10)
    syms = generate("uniform", sigma=256, n=200, seed=1).tolist()
    blob, _ = encode_to_bytes(p, syms)
    with pytest.raises(CorruptStreamError, match="symbol"):
        decode_stream(blob[:HEADER_BYTES + 40])


def test_a_huge_window_header_allocates_no_window_up_front():
    # consistent header fields with a 2**24-symbol window, one symbol and a
    # one-byte payload: the window may cost O(symbols decoded), not O(ell)
    p = CoderParams(sigma=256, lam=1.0, c=1, ell=2**24,
                    threshold=2**16, l_max=8, width=8)
    out = io.BytesIO()
    write_header(out, p, 1)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="truncated"):
            decode_stream(out.getvalue() + b"\x00")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_count_above_the_payload_bits_fails_before_any_chunk():
    # every symbol costs at least its flag bit, so n may not pass the payload's bits
    p = derive_params(256, 2.0, 1)
    syms = generate("zipf", sigma=256, n=20000, seed=2).tolist()
    blob, _ = encode_to_bytes(p, syms)
    payload = blob[HEADER_BYTES:]
    bits = 8 * len(payload)

    def with_count(n):
        out = io.BytesIO()
        write_header(out, p, n)
        return iter(Decoder(out.getvalue() + payload))

    with pytest.raises(CorruptStreamError, match=f"{bits + 1} symbols cannot fit"):
        next(with_count(bits + 1))
    chunks = with_count(bits)  # a count that fits decodes until the payload runs out
    assert next(chunks)[0] == syms[:coder._CHUNK]
    with pytest.raises(CorruptStreamError, match="truncated"):
        list(chunks)


# one stream per dictionary and width regime, each 3,000 symbols at c 1
FUZZ_STREAMS = [
    encode_to_bytes(derive_params(sigma, lam, 1),
                    generate(dist, sigma=sigma, n=3000, seed=seed, **kw).tolist())[0]
    for sigma, lam, dist, seed, kw in [
        (3, 1.0, "uniform", 0, {}), (256, 1.0, "zipf", 1, {}),
        (4096, 2.0, "markov", 2, {}), (65536, 2.0, "uniform", 3, {}),
        (70000, 3.0, "zipf", 4, {}), (2**32 - 1, 4.0, "uniform", 5, {}),
        # 8 states code none of their symbols; 1024 code 65, so the block
        # decoder hands a markov stream to the loop
        (4096, 2.0, "markov", 2, {"states": 1024})]
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_stream_decodes_or_raises_only_swsc_errors(data):
    # both dictionaries give the same symbols and report, or the same error
    blob = bytearray(data.draw(st.sampled_from(FUZZ_STREAMS)))
    mutation = data.draw(st.sampled_from(
        ["payload bit", "header byte", "header word", "truncate", "insert"]))
    if mutation == "payload bit":
        bit = data.draw(st.integers(8 * HEADER_BYTES, 8 * len(blob) - 1))
        blob[bit >> 3] ^= 0x80 >> (bit & 7)
    elif mutation == "header byte":
        blob[data.draw(st.integers(0, HEADER_BYTES - 1))] = data.draw(st.integers(0, 255))
    elif mutation == "header word":
        at = data.draw(st.integers(0, HEADER_BYTES - 4))
        blob[at:at + 4] = data.draw(st.binary(min_size=4, max_size=4))
    elif mutation == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        blob.insert(data.draw(st.integers(0, len(blob))), data.draw(st.integers(0, 255)))
    # the block decoder under both dictionaries, the pure-Python literal
    # prefix, then the loop alone
    outcomes = [_outcome(bytes(blob), backend) for backend in (None, "hashed")]
    with _numpy_hidden():
        outcomes.append(_outcome(bytes(blob)))
    outcomes.append(_loop_outcome(bytes(blob)))
    assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]


@contextlib.contextmanager
def _numpy_hidden():
    """numpy out of sys.modules, so the coders take the pure-Python paths."""
    saved = sys.modules.pop("numpy")
    try:
        yield
    finally:
        sys.modules["numpy"] = saved


def _outcome(blob, backend=None):
    """A Decoder's (symbols, report) pairs, or the SwscError's type and message."""
    try:
        pairs = list(Decoder(blob, backend=backend))
    except SwscError as exc:  # any other exception fails the test
        return type(exc), str(exc)
    assert all(isinstance(symbols, list) for symbols, _ in pairs)
    return pairs


def _loop_outcome(blob):
    """_outcome of CoderState.decode_chunk alone, chunked and checked as a Decoder does."""
    try:
        p, n = read_header(blob)
        reader, state, pairs = BitReader(blob[HEADER_BYTES:]), CoderState(p), []
        if n > reader.limit:
            raise CorruptStreamError(f"{n} symbols cannot fit in {reader.limit} payload bits")
        for lo in range(0, n or 1, coder._CHUNK):
            pairs.append(state.decode_chunk(reader, min(coder._CHUNK, n - lo)))
        reader.finish()
    except SwscError as exc:
        return type(exc), str(exc)
    return pairs


def _loop_stream(p, symbols, cuts=()):
    """The stream CoderState.encode_chunk alone writes, fed at cuts, and its reports."""
    out, state, writer = io.BytesIO(), CoderState(p), BitWriter()
    write_header(out, p, len(symbols))
    reports = [state.encode_chunk(symbols[lo:hi], writer)
               for lo, hi in zip([0, *cuts], [*cuts, len(symbols)])]
    return out.getvalue() + writer.finish(), reports


def _first_insert(p, symbols):
    """The first step whose incoming symbol reaches the threshold in the window."""
    counts = Counter()
    for i, a in enumerate(symbols):
        if i >= p.ell:
            counts[symbols[i - p.ell]] -= 1
        counts[a] += 1
        if counts[a] >= p.threshold:
            return i
    return None


@pytest.mark.parametrize("sigma, lam, c, dist, kw, insert", [
    (256, 1.0, 1, "zipf", {}, 59),
    (4096, 2.0, 1, "markov", {"states": 1024}, 213),
    (70000, 3.0, 1, "zipf", {}, 229),
    (2, 1.0, 1, "uniform", {}, 0),  # threshold 1: the very first step inserts
])
@pytest.mark.parametrize("chunk", [7, 100, None, "insert"])
def test_the_block_decoder_hands_off_to_the_loop_exactly(monkeypatch, sigma, lam, c,
                                                         dist, kw, insert, chunk):
    # every (symbols, report) pair, or the error, is the loop's, when the
    # first insert falls inside a chunk, on a chunk boundary or at step 0,
    # and when the payload ends inside the literal prefix; and the loop
    # takes over at a chunk's first symbol and decodes that whole chunk
    p = derive_params(sigma, lam, c)
    symbols = generate(dist, sigma=sigma, n=3000, seed=2, **kw).tolist()
    assert _first_insert(p, symbols) == insert
    if chunk == "insert":  # the insert starts a chunk
        chunk = max(insert, 1)
    if chunk is not None:
        monkeypatch.setattr(coder, "_CHUNK", chunk)
    calls = []  # (state.position, count) of each CoderState._steps call
    steps = CoderState._steps

    def recorded_steps(self, symbols, count, writer=None, reader=None):
        calls.append((self.position, count))
        return steps(self, symbols, count, writer=writer, reader=reader)

    monkeypatch.setattr(CoderState, "_steps", recorded_steps)

    def same_as_the_loop(stream):
        calls.clear()
        block = _outcome(stream)
        at, count = calls[0]
        assert at % coder._CHUNK == 0
        assert count == min(coder._CHUNK, read_header(stream)[1] - at)
        with _numpy_hidden():
            assert block == _outcome(stream)
        assert block == _loop_outcome(stream)
        return block

    blob, _ = encode_to_bytes(p, symbols)
    same_as_the_loop(blob)
    if insert:  # the payload ends inside a literal of the prefix; n is the most it allows
        w1 = p.width + 1
        cut = (insert * w1 - 1) // 8
        out = io.BytesIO()
        write_header(out, p, 8 * cut)
        out.write(blob[HEADER_BYTES:HEADER_BYTES + cut])
        assert same_as_the_loop(out.getvalue()) == (
            CorruptStreamError, f"symbol {8 * cut // w1}: bit stream truncated")


def _first_loop_calls(p, symbols, numpy_loaded):
    """Where the stepping coder takes over in encode_to_bytes and in a
    Decoder, with numpy loaded or hidden; None where it never runs. It is
    the first CoderState._steps call, or with numpy loaded the encoder's one
    BlockEncoder.resume_after_literals call, and the encoder then never
    steps. Either way the stream and the decode outcome must be the loop's."""
    blob, _ = _loop_stream(p, symbols)
    calls, resumed = [], []
    steps, resume = CoderState._steps, vector.BlockEncoder.resume_after_literals

    def recorded_steps(self, symbols, count, writer=None, reader=None):
        calls.append(self.position)
        return steps(self, symbols, count, writer=writer, reader=reader)

    def recorded_resume(self, position, window):
        resumed.append(position)
        return resume(self, position, window)

    with mock.patch.object(CoderState, "_steps", recorded_steps), \
            mock.patch.object(vector.BlockEncoder, "resume_after_literals", recorded_resume), \
            (contextlib.nullcontext() if numpy_loaded else _numpy_hidden()):
        assert encode_to_bytes(p, symbols)[0] == blob
        assert not (numpy_loaded and calls) and len(resumed) <= 1
        encoded = resumed if numpy_loaded else calls
        first = [encoded[0] if encoded else None]
        calls.clear()
        got = _outcome(blob)
        first.append(calls[0] if calls else None)
    assert got == _loop_outcome(blob)
    return first


HAND_OFF_STREAMS = [(256, 1.0, 1, "zipf", {}, 59), (4096, 2.0, 1, "markov", {"states": 1024}, 213),
                    (70000, 3.0, 1, "zipf", {}, 229), (2, 1.0, 1, "uniform", {}, 0)]


def _check_hand_off(monkeypatch, numpy_loaded, sigma, lam, c, dist, kw, insert, chunk):
    # both kernels code the chunks before the first insert as fixed fields,
    # at any bit offset, and the stepping coder starts at that chunk
    p = derive_params(sigma, lam, c)
    symbols = generate(dist, sigma=sigma, n=3000, seed=2, **kw).tolist()
    if chunk == "insert":
        chunk = max(insert, 1)
    if chunk is not None:
        monkeypatch.setattr(coder, "_CHUNK", chunk)
    at = (insert // coder._CHUNK) * coder._CHUNK
    assert _first_loop_calls(p, symbols, numpy_loaded) == [at, at]


@pytest.mark.parametrize("sigma, lam, c, dist, kw, insert", HAND_OFF_STREAMS)
@pytest.mark.parametrize("chunk", [7, 100, None, "insert"])
def test_the_block_decoder_hands_off_at_the_chunk_of_the_first_insert(monkeypatch, sigma, lam,
                                                                     c, dist, kw, insert,
                                                                     chunk):
    _check_hand_off(monkeypatch, True, sigma, lam, c, dist, kw, insert, chunk)


@pytest.mark.parametrize("sigma, lam, c, dist, kw, insert", HAND_OFF_STREAMS)
@pytest.mark.parametrize("chunk", [7, 100, None, "insert"])
def test_the_literal_prefix_hands_off_at_the_chunk_of_the_first_insert(monkeypatch, sigma, lam,
                                                                      c, dist, kw, insert,
                                                                      chunk):
    _check_hand_off(monkeypatch, False, sigma, lam, c, dist, kw, insert, chunk)


def _fifteen_of_sixteen(p):
    """Symbol 0 every 274 steps: 15 of them in every full 4,096-step window, never 16."""
    assert (p.ell, p.threshold) == (4096, 16)
    rng = random.Random(11)
    symbols = [0 if i % 274 == 0 else rng.randrange(1, p.sigma) for i in range(70000)]
    assert _first_insert(p, symbols) is None
    return symbols


@pytest.mark.parametrize("chunk", [100, None])
def test_the_block_decoder_counts_a_window_held_one_below_the_threshold(monkeypatch, chunk):
    # nothing is coded, but once the window is full a chunk holding a 0 may
    # insert by its window and chunk counts: both kernels hand the same
    # chunk to the loop
    p = derive_params(65536, 2.0, 1)
    symbols = _fifteen_of_sixteen(p)
    if chunk is not None:
        monkeypatch.setattr(coder, "_CHUNK", chunk)
    blob, _ = encode_to_bytes(p, symbols)
    block = _outcome(blob)
    assert [a for chunk_symbols, _ in block for a in chunk_symbols] == symbols
    with _numpy_hidden():
        assert block == _outcome(blob)
    loaded, hidden = (_first_loop_calls(p, symbols, numpy_loaded) for numpy_loaded in (True, False))
    assert loaded == hidden and hidden[0] == hidden[1] is not None
    assert hidden[1] % coder._CHUNK == 0


def _literals_then_coded(p, seed):
    """A uniform run that codes nothing for over two windows, then zipf symbols that code."""
    head = generate("uniform", sigma=p.sigma, n=2 * p.ell + 300, seed=seed).tolist()
    assert _first_insert(p, head) is None
    tail = generate("zipf", sigma=p.sigma, n=1500, seed=seed).tolist()
    return head + tail


@pytest.mark.parametrize("sigma", [256, 4096, 70000])
@pytest.mark.parametrize("chunk", [7, 100, None])
def test_both_kernels_hand_a_literal_run_to_the_loop_at_the_same_chunk(monkeypatch, sigma,
                                                                       chunk):
    p = derive_params(sigma, 2.0, 1)
    symbols = _literals_then_coded(p, seed=sigma % 13)
    if chunk is not None:
        monkeypatch.setattr(coder, "_CHUNK", chunk)
    loaded, hidden = (_first_loop_calls(p, symbols, numpy_loaded) for numpy_loaded in (True, False))
    assert loaded == hidden and hidden[0] == hidden[1] is not None
    assert hidden[1] <= _first_insert(p, symbols) < hidden[1] + coder._CHUNK


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_any_split_of_a_literal_prefix_gives_the_loops_bytes_and_reports(data):
    p = derive_params(data.draw(st.sampled_from([256, 4096, 70000])), 2.0, 1)
    symbols = _literals_then_coded(p, seed=p.sigma % 13)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(symbols)), max_size=4)))
    chunk = data.draw(st.sampled_from([7, 100, 333, coder._CHUNK]))
    blob, reports = _loop_stream(p, symbols, cuts)
    with mock.patch.object(coder, "_CHUNK", chunk), _numpy_hidden():
        out = io.BytesIO()
        encoder = Encoder(p, out, len(symbols))
        got = [encoder.feed(symbols[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, len(symbols)])]
        assert got == reports
        assert encoder.finish() == reports[-1]
        assert out.getvalue() == blob
        assert _outcome(blob) == _loop_outcome(blob)


@pytest.mark.parametrize("chunk", [100, None])
def test_the_literal_prefix_hands_a_window_held_one_below_the_threshold_to_the_loop(
        monkeypatch, chunk):
    # the block decoder's case: the literal rule cannot prove these chunks
    # literals, so the pure-Python prefix gives them to the loop
    p = derive_params(65536, 2.0, 1)
    symbols = _fifteen_of_sixteen(p)
    if chunk is not None:
        monkeypatch.setattr(coder, "_CHUNK", chunk)
    blob, _ = _loop_stream(p, symbols)
    with _numpy_hidden():
        assert encode_to_bytes(p, symbols)[0] == blob
        assert _outcome(blob) == _loop_outcome(blob)


@pytest.mark.parametrize("chunk", [7, 100, 333, None])
def test_a_payload_cut_inside_the_literal_prefix_fails_at_the_loops_symbol(monkeypatch, chunk):
    p = derive_params(4096, 2.0, 1)
    symbols = generate("uniform", sigma=4096, n=3000, seed=6).tolist()
    assert _first_insert(p, symbols) is None
    if chunk is not None:
        monkeypatch.setattr(coder, "_CHUNK", chunk)
    blob, _ = encode_to_bytes(p, symbols)
    w1 = p.width + 1
    cut = 2 * (len(blob) - HEADER_BYTES) // 3 - 1
    assert 8 * cut % w1  # the payload ends inside a literal
    want = (CorruptStreamError, f"symbol {8 * cut // w1}: bit stream truncated")
    with _numpy_hidden():
        assert _outcome(blob[:HEADER_BYTES + cut]) == want
    assert _loop_outcome(blob[:HEADER_BYTES + cut]) == want


def test_resume_after_literals_takes_the_loops_state():
    # a uniform prefix that codes nothing, then one symbol until it is coded:
    # a state resumed inside the prefix, its ring empty, part full or full,
    # decodes the rest as the loop does
    p = derive_params(4096, 2.0, 1)
    symbols = generate("uniform", sigma=4096, n=p.ell + 500, seed=4).tolist()
    assert _first_insert(p, symbols) is None
    symbols += [7] * (p.threshold + 1)
    payload = encode_to_bytes(p, symbols)[0][HEADER_BYTES:]
    for at in (0, 59, p.ell + 100):
        loop, resumed = CoderState(p), CoderState(p)
        reader = BitReader(payload)
        loop.decode_chunk(reader, at)
        resumed.resume_after_literals(at, symbols[max(0, at - p.ell):at])
        assert resumed.window_contents() == loop.window_contents()
        other = BitReader(payload)
        other.position = reader.position
        rest = len(symbols) - at
        assert resumed.decode_chunk(other, rest) == loop.decode_chunk(reader, rest)


def test_resume_after_literals_rejects_a_state_it_cannot_take():
    p = derive_params(4096, 2.0, 1)
    with pytest.raises(ParameterError, match="last 3 of 3"):
        CoderState(p).resume_after_literals(3, [1, 2])
    with pytest.raises(ParameterError, match="reaches the threshold"):
        CoderState(p).resume_after_literals(p.threshold, [5] * p.threshold)
    with pytest.raises(ParameterError, match="out of range"):
        CoderState(p).resume_after_literals(2, [1, 4096])
    state = CoderState(p)
    state.resume_after_literals(2, [1, 2])
    with pytest.raises(ParameterError, match="new state"):
        state.resume_after_literals(2, [1, 2])


@pytest.mark.parametrize("numpy_loaded", [True, False])
def test_a_count_0_decode_inside_the_literal_prefix_reports_the_symbols_so_far(numpy_loaded):
    # a call that decodes nothing partway through the prefix reports the
    # symbols decoded so far, as the loop does
    p = derive_params(65536, 2.0, 1)
    symbols = generate("uniform", sigma=65536, n=2000, seed=5).tolist()
    assert _first_insert(p, symbols) is None
    payload = encode_to_bytes(p, symbols)[0][HEADER_BYTES:]
    with contextlib.nullcontext() if numpy_loaded else _numpy_hidden():
        kernel = vector.block_literals(p) if numpy_loaded else ()
        loop, prefix = CoderState(p), coder.LiteralPrefix(CoderState(p), *kernel)
        loop_reader, reader = BitReader(payload), BitReader(payload)
        for count in (1000, 0, 1000):
            assert prefix.decode_chunk(reader, count) == loop.decode_chunk(loop_reader, count)
            assert reader.position == loop_reader.position
    assert prefix.position == len(symbols)


def _stream_with_partial_last_byte():
    p = derive_params(256, 2.0, 10)
    blob, report = encode_to_bytes(p, [5, 7, 5])  # three 9-bit literals
    assert report.payload_bits % 8 == 3
    return blob


def test_trailing_bytes_after_the_payload_are_corrupt():
    blob = _stream_with_partial_last_byte()
    assert decode_stream(blob)[0] == [5, 7, 5]
    with pytest.raises(CorruptStreamError, match="8 trailing bytes"):
        decode_stream(blob + bytes(8))


def test_nonzero_pad_bit_is_corrupt():
    blob = _stream_with_partial_last_byte()
    with pytest.raises(CorruptStreamError, match="pad bits"):
        decode_stream(blob[:-1] + bytes([blob[-1] | 1]))


def test_coded_flag_with_empty_codebook_is_corrupt():
    p = derive_params(256, 2.0, 10)
    buf = io.BytesIO()
    write_header(buf, p, 1)
    buf.write(b"\x80")  # flag 1, but no symbol has ever been coded
    for numpy_state in (contextlib.nullcontext(), _numpy_hidden()):
        with numpy_state, pytest.raises(CorruptStreamError, match="symbol 0"):
            decode_stream(buf.getvalue())


def test_literal_outside_alphabet_is_corrupt():
    p = derive_params(3, 2.0, 10)  # width 2
    buf = io.BytesIO()
    write_header(buf, p, 1)
    buf.write(b"\x60")  # flag 0, literal 0b11 = 3 >= sigma
    for numpy_state in (contextlib.nullcontext(), _numpy_hidden()):
        with numpy_state, pytest.raises(CorruptStreamError, match="literal 3"):
            decode_stream(buf.getvalue())


def test_encode_rejects_out_of_range_symbol_with_position():
    p = derive_params(2, 1.0, 1)
    with pytest.raises(ParameterError, match="position 1"):
        encode_to_bytes(p, [0, 2])
    with pytest.raises(ParameterError, match="position 0"):
        encode_to_bytes(p, [-1])


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("bad", [-1, 256, 10**6])
def test_encode_chunk_rejects_out_of_range_symbol_mid_chunk(as_array, bad):
    p = derive_params(256, 2.0, 10)
    state = CoderState(p)
    writer = BitWriter()
    state.encode_chunk([1, 2, 3, 4, 5], writer)
    chunk = [6, 7, bad, 8]
    if as_array:
        chunk = np.array(chunk, dtype=np.int64)
    with pytest.raises(ParameterError, match=f"symbol {bad} at position 7"):
        state.encode_chunk(chunk, writer)
    # the chunk is rejected before any of it is coded
    assert state.position == 5
    assert writer.bit_length == 45
    assert state.window_contents() == [1, 2, 3, 4, 5]


def snapshot(state):
    """Everything a coder state carries from one chunk to the next.

    Also checks that the ring and the dictionary agree: the ring holds at
    most ell records, each slot holds its symbol's live record, and a
    record's frequency is the number of slots holding it.
    """
    assert len(state._buf) <= state.params.ell
    slots = Counter(map(id, state._buf))
    for rec in state._buf:
        assert state.dictionary.lookup(rec.sym) is rec
        assert rec.freq == slots[id(rec)]
    assert len(state.dictionary) == len(slots)
    cb = state.codebook
    return (state.position, state.window_contents(), sorted(state.dictionary.items()),
            cb.lists, cb.kraft_total, cb.kraft.touches)


def split(seq, sizes):
    """seq cut into pieces of the given sizes, the rest in one last piece."""
    pieces, lo = [], 0
    for size in sizes:
        pieces.append(seq[lo:lo + size])
        lo += size
    return pieces + [seq[lo:]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chunk_splits_match_one_call(data):
    sigma = data.draw(st.sampled_from([2, 5, 64, 300]), label="sigma")
    p = derive_params(sigma, data.draw(st.sampled_from([1.0, 2.0])), 1)
    syms = data.draw(st.lists(st.integers(0, sigma - 1), max_size=400), label="syms")
    sizes = st.lists(st.one_of(st.just(1), st.integers(0, 60)), max_size=40)
    blobs = {}
    for backend in ("trie", "hashed"):
        blob, report = encode_to_bytes(p, syms, backend=backend)
        blobs[backend] = blob
        one = CoderState(p, backend=backend)
        one.encode_chunk(syms, BitWriter())
        state = CoderState(p, backend=backend)
        writer = BitWriter()
        for piece in split(syms, data.draw(sizes, label="encode sizes")):
            if data.draw(st.booleans(), label="as array"):
                piece = np.array(piece, dtype=np.int64)
            chunked = state.encode_chunk(piece, writer)
        assert writer.finish() == blob[HEADER_BYTES:]
        assert chunked == report
        assert snapshot(state) == snapshot(one)

        want, want_report = decode_stream(blob)
        one = CoderState(p, backend=backend)
        one.decode_chunk(BitReader(blob[HEADER_BYTES:]), len(syms))
        state = CoderState(p, backend=backend)
        reader = BitReader(blob[HEADER_BYTES:])
        got = []
        for piece in split(range(len(syms)), data.draw(sizes, label="decode sizes")):
            out, chunked = state.decode_chunk(reader, len(piece))
            got += out
        assert got == want == syms
        assert chunked == want_report
        assert snapshot(state) == snapshot(one)
    # the header records the dictionary sigma selects, not the one that ran
    assert blobs["trie"] == blobs["hashed"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=300), st.sampled_from([1.0, 1.5]))
def test_worst_step_touches_match_a_per_step_count(syms, lam):
    p = derive_params(6, lam, 1)
    _, report = encode_to_bytes(p, syms)
    state = CoderState(p)
    writer = BitWriter()
    worst = 0
    for a in syms:
        before = state.codebook.kraft.touches
        state.encode_chunk([a], writer)
        worst = max(worst, state.codebook.kraft.touches - before)
    assert report.ps_touches_max_step == worst


def test_per_symbol_bits_match_window_recount():
    # every emitted length must follow from the frequency in the previous
    # ell-symbol window: flagged Shannon codeword above threshold, literal below
    p = derive_params(64, 2.0, 2)  # ell 96, threshold 12, width 6
    syms = generate("zipf", sigma=64, n=3000, seed=11, s=1.5).tolist()
    state = CoderState(p)
    writer = BitWriter()
    for i, a in enumerate(syms):
        window = syms[max(0, i - p.ell):i]
        f = window.count(a)
        want = 1 + (codeword_length(p.ell, f) if f >= p.threshold else p.width)
        before = writer.bit_length
        state.encode_chunk([a], writer)
        assert writer.bit_length - before == want, f"step {i}"


def test_encoder_and_decoder_states_stay_in_lockstep():
    p = derive_params(64, 2.0, 2)
    syms = generate("markov", sigma=64, n=800, seed=4, states=8,
                    stickiness=0.9).tolist()
    enc = CoderState(p, backend="trie")
    dec = CoderState(p, backend="hashed")
    writer = BitWriter()
    for i, a in enumerate(syms):
        enc.encode_chunk([a], writer)
    reader = BitReader(writer.finish())
    for a in syms:
        assert dec.decode_chunk(reader, 1)[0] == [a]
    assert enc.window_contents() == dec.window_contents()
    assert len(enc.window_contents()) == len(dec.window_contents()) == min(len(syms), p.ell)
    assert sorted(enc.dictionary.items()) == sorted(dec.dictionary.items())
    assert enc.codebook.counts() == dec.codebook.counts()
    assert enc.codebook.lists == dec.codebook.lists
    enc.codebook.check(enc.dictionary)
    dec.codebook.check(dec.dictionary)


@pytest.mark.parametrize("p, source, n, piece", [
    (derive_params(65536, 2.0, 10), "uniform", 2 * 40960 + 5000, 1 << 14),
    # threshold 1 codes every window symbol, and child tables of 16 slots often empty
    (CoderParams(sigma=256, lam=1.0, c=1, ell=64, threshold=1, l_max=6, width=8),
     "uniform", 3000, 97),
])
def test_the_loops_trie_edits_match_a_recount_of_its_tables(p, source, n, piece):
    # the loop edits the trie's tables in place; what the trie reports is
    # recounted from them, so both must agree with a walk of the tables
    syms = generate(source, p.sigma, n, seed=3).tolist()
    assert n >= 2 * p.ell  # the window churns

    def check(state):
        d = state.dictionary
        tables, slots, records = _recount_trie(d)
        assert (len(d), d.table_count, d.report_memory()) == (records, tables,
                                                               slots * 8 + records * 7)
        assert {a for a, rec in d.items() if rec.sym == a} == set(state.window_contents())

    enc, dec, writer = CoderState(p, backend="trie"), CoderState(p, backend="trie"), BitWriter()
    for lo in range(0, n, piece):
        enc.encode_chunk(syms[lo:lo + piece], writer)
        check(enc)
    reader, got = BitReader(writer.finish()), []
    for lo in range(0, n, piece):
        got += dec.decode_chunk(reader, min(piece, n - lo))[0]
        check(dec)
    assert got == syms


def counted_records(monkeypatch):
    """A list that grows by one for each CodeRecord the loop coder makes."""
    made = []

    class Counted(CodeRecord):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(coder, "CodeRecord", Counted)
    return made


def test_the_loop_makes_a_record_only_when_none_was_dropped(monkeypatch):
    # the loop reuses the records the window drops, so it makes no more than
    # the window ever held at once; one per put made about 118k here
    p = derive_params(65536, 2.0, 10)
    syms = generate("uniform", 65536, 5 * p.ell, seed=7).tolist()
    made = counted_records(monkeypatch)
    state, writer = CoderState(p), BitWriter()
    for lo in range(0, len(syms), 1 << 14):
        state.encode_chunk(syms[lo:lo + (1 << 14)], writer)
    window, peak = Counter(), 0
    for i, a in enumerate(syms):  # the most distinct symbols one window held
        if i >= p.ell:
            old = syms[i - p.ell]
            window[old] -= 1
            if not window[old]:
                del window[old]
        window[a] += 1
        peak = max(peak, len(window))
    assert len(made) <= peak + 1


@pytest.mark.parametrize("backend", ["trie", "hashed"])
def test_a_coded_record_dropped_and_removed_in_one_step_is_reused(monkeypatch, backend):
    # threshold 1 codes every window symbol, so each drop is also a remove.
    # Step 4 drops 1's record and hands it to 5; step 5 drops 2's and hands
    # it straight back to 2, as the evicted symbol is the incoming one
    p = CoderParams(sigma=256, lam=1.0, c=1, ell=4, threshold=1, l_max=2, width=8)
    rng = random.Random(5)
    syms = [1, 2, 3, 4, 5, 2, 3, 4, 2, 1] + [rng.randrange(8) for _ in range(600)]
    blob = encode_to_bytes(p, syms)[0]
    report = decode_stream(blob)[1]
    made = counted_records(monkeypatch)
    state, reader, got = CoderState(p, backend=backend), BitReader(blob[HEADER_BYTES:]), []
    while len(got) < len(syms):
        out, chunked = state.decode_chunk(reader, min(rng.randint(1, 3), len(syms) - len(got)))
        got += out
        state.codebook.check(state.dictionary)
    assert got == syms and chunked == report
    assert len(made) <= p.ell + 1


def test_a_codebook_check_between_chunks_leaves_the_report_alone():
    # check reads the Fenwick total; an audit must not count as coding work
    p = derive_params(256, 1.0, 1)
    syms = generate("zipf", sigma=256, n=3000, seed=1).tolist()
    want = CoderState(p).encode_chunk(syms, BitWriter())
    state, writer = CoderState(p), BitWriter()
    state.encode_chunk(syms[:1500], writer)
    state.codebook.check(state.dictionary)
    assert state.encode_chunk(syms[1500:], writer) == want


def test_coding_loop_stops_when_an_insert_overfills_the_code():
    # the codebook's own Kraft check is the loop's only one
    p = derive_params(16, 1.0, 1)  # ell 64, threshold 4
    state = CoderState(p)
    writer = BitWriter()
    state.encode_chunk([1] * p.threshold + [2] * (p.threshold - 1), writer)
    cb = state.codebook
    assert cb.size == 1 and cb.kraft_total > 0
    cb.capacity = cb.kraft_total
    with pytest.raises(InternalInconsistencyError, match="exceeds capacity"):
        state.encode_chunk([2], writer)  # symbol 2 reaches the threshold


@pytest.mark.parametrize("numpy_loaded", [True, False])
def test_max_code_size_is_the_largest_size_seen(monkeypatch, numpy_loaded):
    sizes = []

    class LoggedCodebook(Codebook):
        def insert(self, rec, j):
            super().insert(rec, j)
            sizes.append(self.size)

        def remove(self, rec):
            super().remove(rec)
            sizes.append(self.size)

        def move(self, rec, j_to):
            super().move(rec, j_to)
            sizes.append(self.size)

    p = derive_params(256, 1.0, 1)
    syms = generate("zipf", sigma=256, n=6000, seed=11).tolist()
    monkeypatch.setattr(coder, "Codebook", LoggedCodebook)
    monkeypatch.setattr(vector, "Codebook", LoggedCodebook)
    if not numpy_loaded:  # encode_stream then runs the loop encoder
        monkeypatch.delitem(sys.modules, "numpy")
    blob, ereport = encode_to_bytes(p, syms)
    assert sizes[-1] < max(sizes) == ereport.max_code_size  # a peak, not the final size
    sizes.clear()
    _, dreport = decode_stream(blob)
    assert max(sizes) == dreport.max_code_size == ereport.max_code_size


@pytest.mark.parametrize("numpy_loaded", [True, False])
@pytest.mark.parametrize("fault", ["params", "float", "backend"])
def test_a_rejected_encode_writes_nothing(monkeypatch, numpy_loaded, fault):
    p = derive_params(256, 2.0, 1)
    syms, backend = list(range(256)) * 4, None
    if fault == "params":  # bad params cannot even be built
        with pytest.raises(ParameterError):
            p._replace(threshold=p.ell + 1)
        return
    elif fault == "float":
        syms[-1] = 1.5  # in the last chunk, after the others coded
    else:
        backend = "btree"

        def no_coding():
            raise AssertionError("coding started")

        monkeypatch.setattr(coder, "BitWriter", no_coding)
    monkeypatch.setattr(coder, "_CHUNK", 100)
    if not numpy_loaded:  # encode_stream then runs the loop encoder
        monkeypatch.delitem(sys.modules, "numpy")
    out = io.BytesIO()
    with pytest.raises(ParameterError):
        encode_stream(p, syms, out, backend=backend)
    assert out.getvalue() == b""


@pytest.mark.parametrize("sigma, lam, c", [(65536, 2.0, 1), (2**32 - 1, 4.0, 10)])
def test_block_encoder_memory_is_bounded_by_the_window_and_one_block(sigma, lam, c):
    # a tracemalloc peak above the start, which numpy's buffers count in;
    # only the payload may grow with n, and the writer may over-allocate it 2x
    p = derive_params(sigma, lam, c)
    slots = p.ell + coder._CHUNK
    peaks, payloads = [], []
    for blocks in (3, 9):
        symbols = generate("uniform", sigma=sigma, n=p.ell + blocks * 65536, seed=blocks)
        with open(os.devnull, "wb") as out:  # one feed: the payload is written at its end
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                encoder = Encoder(p, out, len(symbols))
                encoder.feed(symbols)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
            payloads.append(encoder.finish().payload_bytes)
        # measured at 36-133 B per slot, the payload in it
        assert peaks[-1] < 300 * slots + 2 * payloads[-1]
    assert peaks[1] - peaks[0] <= 2 * (payloads[1] - payloads[0]) + (1 << 20)


def test_the_window_count_orders_u4_events_as_numpys_stable_argsort():
    # u4 symbols sort by two 16-bit radix passes, low half then high; int64
    # ones still take np.argsort(kind="stable"), so both give the same counts
    rng = random.Random(3)
    pool = [0, 1, 0xFFFF, 0x10000, 0x1FFFF, 0xFFFF0000, 0xFFFF0001, 2**32 - 1]
    pool += [rng.randrange(2**32) for _ in range(8)]
    wsyms = np.array(sorted(pool[::2]), np.uint32)
    wcounts = np.array([rng.randrange(1, 5) for _ in wsyms], np.int64)
    ev = np.array([rng.choice(pool) for _ in range(5000)], np.uint32)
    delta = np.array([rng.choice((-1, 0, 1)) for _ in ev], np.int64)
    got = vector._count(wsyms, wcounts, ev, delta)
    want = vector._count(wsyms.astype(np.int64), wcounts, ev.astype(np.int64), delta)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _assert_decoder_memory_is_bounded(sigma, lam, numpy_loaded, tmp_path=None, coded=False):
    # a tracemalloc peak above the start while the chunks are drained, the
    # stream already in memory, or, given tmp_path, in a file the Decoder
    # reads; it must not grow with n. A coded stream's first threshold
    # symbols are one symbol, so the loop decodes it from its first chunk.
    p = derive_params(sigma, lam, 1)
    slots = p.ell + coder._CHUNK
    peaks = []
    for chunks in (2, 6):
        symbols = generate("uniform", sigma=sigma, n=p.ell + chunks * coder._CHUNK, seed=chunks)
        if coded:
            symbols[:p.threshold] = 0
        blob, _ = encode_to_bytes(p, symbols)
        if tmp_path is not None:
            path = tmp_path / f"{chunks}.swsc"
            path.write_bytes(blob)
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if numpy_loaded else _numpy_hidden():
                start = tracemalloc.get_traced_memory()[0]
                if tmp_path is None:
                    for _ in Decoder(blob):
                        pass
                else:
                    with open(path, "rb") as source:
                        for _ in Decoder(source):
                            pass
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        # measured at 88-111 B per slot, and 101-125 when coded
        assert peaks[-1] < 300 * slots
    assert peaks[1] - peaks[0] <= 1 << 20


@pytest.mark.parametrize("sigma, lam", [(65536, 2.0), (2**32 - 1, 4.0)])
def test_decoder_memory_is_bounded_by_the_window_and_one_chunk(sigma, lam):
    # with numpy loaded the block decoder decodes these literal streams
    _assert_decoder_memory_is_bounded(sigma, lam, numpy_loaded=True)


@pytest.mark.parametrize("sigma, lam", [(65536, 2.0), (2**32 - 1, 4.0)])
def test_loop_decoder_memory_is_bounded_by_the_window_and_one_chunk(sigma, lam):
    # the pure-Python literal prefix decodes these literal streams
    _assert_decoder_memory_is_bounded(sigma, lam, numpy_loaded=False)


@pytest.mark.parametrize("sigma, lam", [(65536, 2.0), (2**32 - 1, 4.0)])
def test_loop_decoder_memory_is_bounded_when_it_codes_from_the_first_chunk(sigma, lam):
    _assert_decoder_memory_is_bounded(sigma, lam, numpy_loaded=False, coded=True)


@pytest.mark.parametrize("numpy_loaded", [True, False])
@pytest.mark.parametrize("sigma, lam", [(65536, 2.0), (2**32 - 1, 4.0)])
def test_a_decoder_over_a_file_holds_the_window_and_one_chunk(tmp_path, sigma, lam,
                                                             numpy_loaded):
    _assert_decoder_memory_is_bounded(sigma, lam, numpy_loaded, tmp_path)


def test_a_decoder_of_bytes_does_not_copy_them():
    # a 4.25 MB stream, well above the pins' budget: the tracemalloc peak
    # stays below its length, so the Decoder's io.BytesIO shares the bytes
    p = derive_params(65536, 2.0, 1)
    symbols = generate("uniform", sigma=65536, n=2_000_000, seed=4)
    blob, _ = encode_to_bytes(p, symbols)
    del symbols
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in Decoder(blob):
            pass
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < len(blob)


def test_intermediate_states_match_stepwise():
    p = derive_params(16, 1.0, 1)  # tiny window so evictions happen early
    syms = generate("uniform", sigma=16, n=300, seed=8).tolist()
    enc = CoderState(p)
    dec = CoderState(p)
    writer = BitWriter()
    done = []
    for a in syms:
        enc.encode_chunk([a], writer)
        done.append(writer.bit_length)
    reader = BitReader(writer.finish())
    for i, a in enumerate(syms):
        assert dec.decode_chunk(reader, 1)[0] == [a]
        assert reader.position == done[i]
        assert dec.window_contents() == enc_window_after(p, syms, i)


def enc_window_after(params, syms, i):
    lo = max(0, i + 1 - params.ell)
    return syms[lo:i + 1]


def test_window_oracle_tracks_the_live_state():
    p = derive_params(64, 2.0, 2)
    syms = generate("zipf", sigma=64, n=1200, seed=3, s=1.2).tolist()
    state = CoderState(p)
    writer = BitWriter()
    for i, a in enumerate(syms):
        state.encode_chunk([a], writer)
        if i % 97 == 0:
            oracle = oracle_state(state.window_contents(), p)
            live = dict(state.dictionary.items())
            assert {a_: r.freq for a_, r in live.items()} == oracle.frequencies
            assert {a_ for a_, r in live.items()
                    if r.length is not None} == oracle.frequent
            assert {a_: r.length for a_, r in live.items()
                    if r.length is not None} == oracle.lengths


@pytest.mark.parametrize("sigma,dist,kw", [
    (2, "uniform", {}),
    (3, "uniform", {}),
    (256, "zipf", {"s": 1.3}),
    (4096, "markov", {"states": 8, "stickiness": 0.9}),
])
def test_roundtrip(sigma, dist, kw):
    p = derive_params(sigma, 2.0, 2)
    syms = generate(dist, sigma=sigma, n=2500, seed=6, **kw).tolist()
    for backend in ("trie", "hashed"):
        blob, ereport = encode_to_bytes(p, syms, backend=backend)
        out, dreport = decode_stream(blob)
        assert out == syms
        assert ereport.payload_bits == dreport.payload_bits
        assert ereport.literal_count == dreport.literal_count
        assert ereport.coded_count == dreport.coded_count
        assert ereport.max_code_size == dreport.max_code_size
        assert ereport.cost_units == dreport.cost_units


def test_payload_is_backend_and_seed_independent():
    p = derive_params(256, 2.0, 2)
    syms = generate("zipf", sigma=256, n=3000, seed=5, s=1.2).tolist()
    blobs = set()
    for backend, seed in (("trie", 0), ("hashed", 0), ("hashed", 123)):
        blob, _ = encode_to_bytes(p, syms, backend=backend, seed=seed)
        blobs.add(blob)
    assert len(blobs) == 1  # the header byte included


def test_decode_backend_override_matches_header_backend():
    p = derive_params(256, 2.0, 2)
    syms = generate("uniform", sigma=256, n=1500, seed=2).tolist()
    blob, _ = encode_to_bytes(p, syms, backend="trie")
    for backend in (None, "trie", "hashed"):
        out, _ = decode_stream(blob, backend=backend)
        assert out == syms


def test_unknown_backend_names_raise_parameter_error():
    p = derive_params(256, 2.0, 2)
    blob, _ = encode_to_bytes(p, [1, 2, 1])
    for call in (lambda: CoderState(p, backend="x"),
                 lambda: encode_to_bytes(p, [1], backend="x"),
                 lambda: encode_stream(p, [], io.BytesIO(), backend="btree"),
                 lambda: decode_stream(blob, backend="x"),
                 lambda: next(iter(Decoder(blob, backend="")))):
        with pytest.raises(ParameterError, match="unknown dictionary backend"):
            call()


@pytest.mark.parametrize("sigma, lam, chosen", [
    (2, 1.0, "trie"), (256, 2.0, "trie"), (65536, 2.0, "trie"),
    (65537, 2.0, "hashed"), (2**32 - 1, 4.0, "hashed"),
])
def test_default_backend_follows_sigma_not_the_header(sigma, lam, chosen):
    # the trie up to 16-bit symbols, where each of its tables has at most
    # 2^8 + 1 slots; above that the hashed table, whose size follows the window
    p = derive_params(sigma, lam, 10)
    syms = [0, sigma - 1, 0, sigma // 3] * 50
    blob, _ = encode_to_bytes(p, syms)
    assert blob[5] == {"trie": 0, "hashed": 1}[chosen]
    other = "hashed" if chosen == "trie" else "trie"
    if other == "hashed":
        assert encode_to_bytes(p, syms, backend=other)[0] == blob
    else:  # the trie is refused where its tables would grow with sigma
        with pytest.raises(ParameterError, match="the trie takes sigma up to"):
            encode_to_bytes(p, syms, backend=other)
    # an older stream may carry the other byte; decode accepts it
    flipped = blob[:5] + bytes([1 - blob[5]]) + blob[6:]
    # neither header byte makes decode build the other dictionary
    spurned = {"trie": "TrieDictionary", "hashed": "HashedDictionary"}[other]
    with mock.patch(f"swsc.dictionary.{spurned}", side_effect=AssertionError(other)):
        for stream in (blob, flipped):
            assert decode_stream(stream)[0] == syms


def symbols_over(sigma, n=3000, seed=4):
    """n zipf symbols over 40 values spread across [0, sigma), so some get coded."""
    pool = [sigma - 1 - (sigma // 40) * k for k in range(40)]
    return [pool[i] for i in generate("zipf", sigma=40, n=n, seed=seed).tolist()]


# one coded zipf stream per width regime, each 2,000 symbols at c 1
SPLIT_CASES = {}
for _sigma, _lam in ((3, 1.0), (256, 1.0), (65537, 2.0), (2**32 - 1, 4.0)):
    _p = derive_params(_sigma, _lam, 1)
    _symbols = symbols_over(_sigma, n=2000, seed=_sigma % 89)
    SPLIT_CASES[_sigma] = (_p, _symbols) + encode_to_bytes(_p, _symbols)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_any_split_into_feeds_writes_encode_to_bytes_bytes(data):
    sigma = data.draw(st.sampled_from(sorted(SPLIT_CASES)))
    p, symbols, blob, report = SPLIT_CASES[sigma]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(symbols)), max_size=5)))
    with _numpy_hidden() if data.draw(st.booleans()) else contextlib.nullcontext():
        out = io.BytesIO()
        encoder = Encoder(p, out, len(symbols))
        for lo, hi in zip([0] + cuts, cuts + [len(symbols)]):
            encoder.feed(symbols[lo:hi])
            assert out.getvalue()[:HEADER_BYTES] == blob[:HEADER_BYTES]  # the header first
        assert encoder.finish() == report
    assert out.getvalue() == blob


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_decoder_of_any_source_yields_the_same_outcome(data):
    # every source is read one chunk span at a time, a bytes-like one
    # through an io.BytesIO: all give the same chunks, reports and errors,
    # on these streams and the mutation fuzz's
    streams = [case[2] for _, case in sorted(SPLIT_CASES.items())] + FUZZ_STREAMS
    blob = bytearray(data.draw(st.sampled_from(streams)))
    mutation = data.draw(st.sampled_from(["none", "payload bit", "header byte", "cut",
                                          "insert"]))
    if mutation == "payload bit":
        bit = data.draw(st.integers(8 * HEADER_BYTES, 8 * len(blob) - 1))
        blob[bit >> 3] ^= 0x80 >> (bit & 7)
    elif mutation == "header byte":
        blob[data.draw(st.integers(0, HEADER_BYTES - 1))] = data.draw(st.integers(0, 255))
    elif mutation == "cut":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif mutation == "insert":
        blob.insert(data.draw(st.integers(0, len(blob))), data.draw(st.integers(0, 255)))
    blob = bytes(blob)
    chunk = data.draw(st.sampled_from([1, 7, 333, coder._CHUNK]))
    with (mock.patch.object(coder, "_CHUNK", chunk),
          _numpy_hidden() if data.draw(st.booleans()) else contextlib.nullcontext()):
        want = _outcome(blob)
        for source in (io.BytesIO(blob), blob, bytearray(blob), memoryview(blob)):
            try:
                got = list(Decoder(source))
            except SwscError as exc:
                got = type(exc), str(exc)
            assert got == want, type(source)


def test_a_file_cut_while_it_decodes_fails_as_a_cut_stream(tmp_path):
    # the Decoder takes the payload's size from the file when it is built; a
    # file cut after that ends the stream where its bytes end
    blob = SPLIT_CASES[256][2]
    cut = blob[:HEADER_BYTES + (len(blob) - HEADER_BYTES) // 2]
    kind, message = _outcome(cut)
    assert kind is CorruptStreamError and message.endswith("truncated")
    path = tmp_path / "cut.swsc"
    path.write_bytes(blob)
    with open(path, "rb") as source:
        decoder = Decoder(source)
        os.truncate(path, len(cut))
        with pytest.raises(CorruptStreamError, match=f"^{re.escape(message)}$"):
            list(decoder)


@pytest.mark.parametrize("numpy_loaded", [True, False])
def test_a_decoder_is_iterated_once(numpy_loaded):
    # a second iteration would start mid-payload with a new state
    p = derive_params(65536, 2.0, 10)
    symbols = generate("uniform", sigma=65536, n=50000, seed=3).tolist()
    blob, _ = encode_to_bytes(p, symbols)
    with contextlib.nullcontext() if numpy_loaded else _numpy_hidden():
        decoder = Decoder(blob)
        assert next(iter(decoder))[0] == symbols[:coder._CHUNK]
        with pytest.raises(ParameterError, match="a Decoder is iterated once"):
            next(iter(decoder))
        drained = Decoder(blob)
        assert [a for chunk, _ in drained for a in chunk] == symbols
        with pytest.raises(ParameterError, match="a Decoder is iterated once"):
            list(drained)


@pytest.mark.parametrize("numpy_loaded", [True, False])
def test_a_feed_total_other_than_n_raises(monkeypatch, numpy_loaded):
    p = derive_params(256, 2.0, 1)
    if not numpy_loaded:
        monkeypatch.delitem(sys.modules, "numpy")
    out = io.BytesIO()
    encoder = Encoder(p, out, 5)
    encoder.feed([1, 2, 3])
    written = out.getvalue()
    with pytest.raises(ParameterError, match="6 symbols fed to a stream of 5"):
        encoder.feed([4, 5, 6])
    assert out.getvalue() == written  # a rejected feed writes nothing
    with pytest.raises(ParameterError, match="3 symbols fed to a stream of 5"):
        encoder.finish()
    encoder.feed([4, 5])
    assert encoder.finish() == encode_to_bytes(p, [1, 2, 3, 4, 5])[1]
    assert out.getvalue() == encode_to_bytes(p, [1, 2, 3, 4, 5])[0]
    for n in (-1, 2.0):
        with pytest.raises(ParameterError, match="count of symbols"):
            Encoder(p, io.BytesIO(), n)
    # a feed that fails while it codes, here on its last symbol, ends the stream
    out = io.BytesIO()
    encoder = Encoder(p, out, 2 * coder._CHUNK)
    with pytest.raises(ParameterError, match=f"symbol 256 at position {2 * coder._CHUNK - 1}"):
        encoder.feed([1] * (2 * coder._CHUNK - 1) + [256])
    assert out.getvalue() == b""
    for call in (lambda: encoder.feed([]), encoder.finish):
        with pytest.raises(ParameterError, match="a feed failed"):
            call()


@pytest.mark.parametrize("numpy_loaded", [True, False])
def test_finish_ends_the_stream(monkeypatch, numpy_loaded):
    p = derive_params(256, 2.0, 10)
    if not numpy_loaded:
        monkeypatch.delitem(sys.modules, "numpy")
    out = io.BytesIO()
    encoder = Encoder(p, out, 3)
    encoder.feed([5, 7, 5])
    report = encoder.finish()
    assert len(out.getvalue()) == 44
    for call in (encoder.finish, lambda: encoder.feed([])):
        with pytest.raises(ParameterError, match="the stream is finished"):
            call()
    assert out.getvalue() == encode_to_bytes(p, [5, 7, 5])[0]  # nothing more written
    assert decode_stream(out.getvalue()) == ([5, 7, 5], report)


@pytest.mark.parametrize("numpy_loaded", [True, False])
@pytest.mark.parametrize("sigma", [256, 65536, 65537, 2**32 - 1])
def test_an_explicit_backend_never_changes_the_stream(monkeypatch, numpy_loaded, sigma):
    p = derive_params(sigma, 4.0, 1)
    syms = symbols_over(sigma)
    if not numpy_loaded:  # encode_stream then runs the loop encoder
        monkeypatch.delitem(sys.modules, "numpy")
    blob, report = encode_to_bytes(p, syms)
    assert report.coded_count > 0
    allowed = ("trie", "hashed") if sigma <= 1 << 16 else ("hashed",)
    for backend in allowed:
        assert encode_to_bytes(p, syms, backend=backend) == (blob, report)


@pytest.mark.parametrize("numpy_loaded", [True, False])
@pytest.mark.parametrize("sigma", [65537, 70000, 2**32 - 1])
def test_the_trie_is_refused_above_16_bit_symbols(monkeypatch, numpy_loaded, sigma):
    p = derive_params(sigma, 4.0, 1)
    blob, _ = encode_to_bytes(p, [0, sigma - 1, 0])

    def no_coding():
        raise AssertionError("coding started")

    monkeypatch.setattr(coder, "BitWriter", no_coding)
    if not numpy_loaded:  # encode_stream then runs the loop encoder
        monkeypatch.delitem(sys.modules, "numpy")
    out = io.BytesIO()
    for call in (lambda: choose_backend("trie", sigma),
                 lambda: TrieDictionary(sigma),
                 lambda: CoderState(p, backend="trie"),
                 lambda: encode_stream(p, [0, sigma - 1, 0], out, backend="trie"),
                 lambda: decode_stream(blob, backend="trie")):
        with pytest.raises(ParameterError, match=f"the trie takes sigma up to 65536, "
                                                 f"not {sigma}"):
            call()
    assert out.getvalue() == b""


def test_a_negative_decode_count_changes_nothing():
    p = derive_params(256, 2.0, 10)
    blob, _ = encode_to_bytes(p, [1, 2, 3])
    state = CoderState(p)
    reader = BitReader(blob[HEADER_BYTES:])
    with pytest.raises(ParameterError, match="cannot decode -3 symbols"):
        state.decode_chunk(reader, -3)
    assert (state.position, reader.position) == (0, 0)
    assert state.decode_chunk(reader, 3) == ([1, 2, 3], decode_stream(blob)[1])


def test_all_same_symbol_compresses_to_flags():
    p = derive_params(256, 2.0, 10)  # ell 1280, threshold 80
    n = 5000
    blob, report = encode_to_bytes(p, [7] * n)
    # 80 literal steps of 9 bits while the count climbs to the threshold,
    # then codeword lengths 4, 3, 2, 1 as the count doubles toward ell,
    # then a lone flag bit once the window is saturated:
    # 80*9 + 80*5 + 160*4 + 320*3 + 640*2 + 3720*1
    assert report.payload_bits == 7720
    assert report.literal_count == 80
    assert report.coded_count == n - 80
    out, _ = decode_stream(blob)
    assert out == [7] * n


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40).flatmap(
    lambda sigma: st.tuples(st.just(sigma),
                            st.lists(st.integers(0, sigma - 1), max_size=300))))
def test_roundtrip_any_sequence(case):
    sigma, syms = case
    p = derive_params(sigma, 1.0, 1)  # smallest windows stress eviction
    blob, _ = encode_to_bytes(p, syms)
    out, _ = decode_stream(blob)
    assert out == syms


def _read_raw(data, sigma, sym_bytes=None):
    """The one chunk read_symbol_chunks reads from the raw symbol file data."""
    n, chunks = read_symbol_chunks(io.BytesIO(data), sigma, sym_bytes)
    [arr] = chunks
    assert len(arr) == n
    return arr


def test_raw_symbol_file_roundtrip():
    for sigma, width in ((200, 1), (4096, 2), (70000, 4)):
        syms = generate("uniform", sigma=sigma, n=400, seed=1).tolist()
        data = write_symbols(syms, sigma)
        arr = _read_raw(data, sigma)
        assert arr.itemsize == width  # the smallest fit, as written
        assert arr.tolist() == syms


def test_raw_symbol_file_length_must_divide():
    with pytest.raises(ParameterError):
        _read_raw(b"\x00\x01\x02", 4096)  # 2-byte symbols


@pytest.mark.parametrize("sigma, syms, want", [
    (256, [0, 1, 127, 255], "00017fff"),
    (65536, [0, 1, 0x1234, 65535], "0000" "0100" "3412" "ffff"),
    (2**32 - 1, [0, 65536, 0x12345678, 2**32 - 2],
     "00000000" "00000100" "78563412" "feffffff"),
])
def test_raw_symbol_bytes_frozen(sigma, syms, want):
    # little-endian, 1, 2 and 4 bytes per symbol, whatever the host
    data = write_symbols(syms, sigma)
    assert data.hex() == want
    arr = _read_raw(data, sigma)
    assert arr.itemsize == {256: 1, 65536: 2, 2**32 - 1: 4}[sigma]
    assert arr.tolist() == syms


@pytest.mark.parametrize("sigma, syms, bad", [
    (256, [256], 256), (256, [-1], -1), (300, [300], 300),
    (300, [5, -2, 7], -2), (2**32 - 1, [0, 2**32 - 1], 2**32 - 1),
    (256, [1.5], 1.5), (256, ["a"], "'a'"), (256, [1, np.int64(3)], repr(np.int64(3))),
])
def test_write_symbols_rejects_symbols_outside_the_alphabet(sigma, syms, bad):
    with pytest.raises(ParameterError, match=re.escape(f"symbol {bad} at position ")):
        write_symbols(syms, sigma)


def test_raw_symbol_width_must_hold_the_alphabet():
    for sym_bytes in (0, 1, 3):  # 0 is a width, not "the smallest fit"
        with pytest.raises(ParameterError, match="symbol width"):
            write_symbols([299], 300, sym_bytes)
        with pytest.raises(ParameterError, match="symbol width"):
            _read_raw(b"\x00" * 12, 300, sym_bytes)
    # a wider forced width is kept, not narrowed to the smallest fit
    arr = _read_raw(b"\x2b\x01\x00\x00" * 3, 300, 4)
    assert arr.itemsize == 4 and arr.tolist() == [299] * 3
