"""Differential tests: both backends and the block encoder against a naive reference.

The reference keeps the window in a Counter, the codebook as per-length lists
of symbols with swap-remove, and sums every codeword from scratch. It shares
no code with the coder except codeword_length, and it writes its bits as a
string of '0'/'1'. The block encoder (swsc.vector, behind encode_stream when
numpy is loaded) must also equal CoderState's loop report for report,
partial-sums touches included.
"""

import enum
import io
import random
import re
from array import array
from collections import Counter, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsc import coder, vector
from swsc.bitio import BitReader, BitWriter
from swsc.codebook import codeword_length
from swsc.coder import HEADER_BYTES, CoderState, encode_stream, write_symbols
from swsc.corpus import generate
from swsc.dictionary import TRIE_MAX_SIGMA
from swsc.errors import ParameterError
from swsc.params import MAX_SIGMA, derive_params
from test_acceptance import LAMBDAS, SCALES, SIGMAS, SOURCES


def reference_encode(p, symbols):
    """Payload bytes and report fields of symbols, one naive step at a time."""
    window, freq = deque(), Counter()
    lists = [[] for _ in range(p.l_max + 1)]
    where = {}  # coded symbol -> its length class
    bits, literals, max_size = [], 0, 0

    def unlink(a):
        lst = lists[where.pop(a)]
        k = lst.index(a)
        lst[k] = lst[-1]  # swap the last symbol into the hole
        lst.pop()

    def link(a, j):
        lists[j].append(a)
        where[a] = j

    for a in symbols:
        if a in where:
            j = where[a]
            v = sum(len(lists[h]) << (p.l_max - h) for h in range(j))
            v += lists[j].index(a) << (p.l_max - j)
            bits.append("1" + (format(v >> (p.l_max - j), "b").zfill(j) if j else ""))
        else:
            bits.append("0" + format(a, "b").zfill(p.width))
            literals += 1
        window.append(a)
        if len(window) > p.ell:  # the evicted symbol, then the incoming one
            e = window.popleft()
            freq[e] -= 1
            if e in where:
                if freq[e] < p.threshold:
                    unlink(e)
                elif codeword_length(p.ell, freq[e]) != where[e]:
                    unlink(e)
                    link(e, codeword_length(p.ell, freq[e]))
        freq[a] += 1
        if freq[a] >= p.threshold:
            j = codeword_length(p.ell, freq[a])
            if a not in where:
                link(a, j)
            elif j != where[a]:
                unlink(a)
                link(a, j)
        max_size = max(max_size, len(where))
    s = "".join(bits)
    payload = int(s + "0" * (-len(s) % 8) or "0", 2).to_bytes((len(s) + 7) // 8, "big")
    n = len(symbols)
    report = dict(n=n, payload_bits=len(s), payload_bytes=(len(s) + 7) // 8,
                  literal_count=literals, coded_count=n - literals,
                  max_code_size=max_size, cost_units=len(s) - literals * p.width)
    return payload, report


def chunks(seq, cuts):
    """seq cut at the sorted positions cuts."""
    bounds = [0, *sorted(c % (len(seq) + 1) for c in cuts), len(seq)]
    return [seq[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def fields(report):
    d = dict(vars(report))
    del d["ps_touches"], d["ps_touches_max_step"]  # the naive lists have no tree
    return d


def check_against_reference(sigma, lam, symbols, cuts):
    p = derive_params(sigma, lam, 1)
    payload, expected = reference_encode(p, symbols)
    # the trie refuses wider symbols; 300 keeps an odd width (9 bits) on it
    for backend in ("trie", "hashed") if sigma <= TRIE_MAX_SIGMA else ("hashed",):
        enc, writer = CoderState(p, backend=backend), BitWriter()
        for piece in chunks(symbols, cuts):
            enc_report = enc.encode_chunk(piece, writer)
        assert writer.finish() == payload, backend
        dec, reader, out = CoderState(p, backend=backend), BitReader(payload), []
        for piece in chunks(symbols, cuts):
            got, dec_report = dec.decode_chunk(reader, len(piece))
            out += got
        reader.finish()
        assert out == symbols, backend
        assert fields(enc_report) == expected == fields(dec_report), backend


@settings(max_examples=60, deadline=None)
@given(sigma=st.sampled_from([2, 3, 256, 300, 4096, 65536, 70000]),
       lam=st.sampled_from([1.0, 2.0]),
       n=st.integers(1, 3000),
       pool=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.integers(0, 3000), max_size=6))
def test_backends_equal_the_reference_coder(sigma, lam, n, pool, seed, cuts):
    rng = random.Random(seed)
    hot = [rng.randrange(sigma) for _ in range(pool)]  # frequent enough to code
    symbols = [rng.choice(hot) if rng.random() < 0.8 else rng.randrange(sigma)
               for _ in range(n)]
    check_against_reference(sigma, lam, symbols, cuts)


def loop_encode(p, symbols):
    """Payload and report of CoderState's loop, one encode_chunk per 1,000 symbols."""
    state, writer = CoderState(p), BitWriter()
    report = state.encode_chunk([], writer)
    for lo in range(0, len(symbols), 1000):
        report = state.encode_chunk(symbols[lo:lo + 1000], writer)
    return writer.finish(), report


def block_encode(p, symbols, block=None):
    """Payload and report of encode_stream's block encoder, _CHUNK set to block."""
    out = io.BytesIO()
    with mock.patch.object(coder, "_CHUNK", block or coder._CHUNK):
        report = encode_stream(p, symbols, out)
    return out.getvalue()[HEADER_BYTES:], report


def check_block_encoder(p, symbols, block=None, reference=True):
    want = loop_encode(p, symbols)
    assert block_encode(p, symbols, block) == want
    if reference:
        payload, fields_want = reference_encode(p, symbols)
        assert want[0] == payload and fields(want[1]) == fields_want


@settings(max_examples=80, deadline=None)
@given(knobs=st.sampled_from([(3, 1.0, 1), (2, 1.0, 1), (16, 1.0, 1), (256, 2.0, 1),
                              (4096, 1.0, 1), (70000, 2.0, 1), (MAX_SIGMA, 4.0, 1)]),
       n=st.integers(0, 2500),
       pool=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 2, 7, 64, 1000, None]))
def test_block_encoder_equals_the_loop_and_the_reference(knobs, n, pool, seed, block):
    # sigma 3 at lambda 1, c 1 has ell 5 and threshold 2, so the evicted
    # symbol is often the incoming one right at a threshold or class crossing
    p = derive_params(*knobs)
    rng = random.Random(seed)
    hot = [rng.randrange(p.sigma) for _ in range(pool)]
    symbols = [rng.choice(hot) if rng.random() < 0.9 else rng.randrange(p.sigma)
               for _ in range(n)]
    check_block_encoder(p, symbols, block)


class _Sym(enum.IntEnum):
    A = 0
    B = 7


def test_block_encoder_short_and_empty_inputs():
    # check_symbols accepts more than lists of plain ints: bools, int
    # subclasses, array.array and memoryview come out as the loop's bytes too
    p = derive_params(MAX_SIGMA, 4.0, 1)  # ell 8192
    for symbols in ([], [0], [MAX_SIGMA - 1] * 3, list(range(0, 2**32 - 1, 2**22)),
                    [True, 1, 0, True, True], [_Sym.B, _Sym.A, _Sym.B, _Sym.B],
                    array("H", [65535, 3, 3, 0, 3]),
                    memoryview(array("I", [MAX_SIGMA - 1, 9, 9, 2**31]))):
        assert len(symbols) < p.ell
        check_block_encoder(p, symbols, block=7)


def _skips_expected(p, symbols, block):
    """Per block, whether every symbol's count in the window at its start plus
    its count in the block stays below the threshold."""
    counts, out = Counter(), []
    for lo in range(0, len(symbols), block):
        blk = symbols[lo:lo + block]
        out.append(max((counts + Counter(blk)).values()) < p.threshold)
        for i in range(lo, lo + len(blk)):
            if i >= p.ell:
                gone = symbols[i - p.ell]
                counts[gone] -= 1
                if not counts[gone]:
                    del counts[gone]
            counts[symbols[i]] += 1
    return out


@pytest.mark.parametrize("knobs", [(256, 2.0, 1), (65536, 3.0, 1), (MAX_SIGMA, 8.0, 1)])
@pytest.mark.parametrize("block", [1, 7, 1000, None])
def test_literal_blocks_skip_the_window_count(knobs, block):
    # literals, then a hot symbol that enters the codebook, then literals
    # until it has left the window and the codebook is empty again: each
    # block skips _slide exactly when no symbol's window count plus its
    # count in the block reaches the threshold, and the bytes and report
    # stay the loop's
    p = derive_params(*knobs)  # u1, u2 and u4 symbols
    assert p.ell < p.sigma and p.ell < 1000
    hot = p.sigma - 1
    head, tail = p.ell + 1500, 2 * p.ell + 2500
    fresh = [i % p.sigma for i in range(head + tail)]  # never threshold in a window
    symbols = fresh[:head] + [hot] * (p.threshold + 3) + fresh[head:]
    decided = []  # per block: True when _skip took it, False when _slide counted it
    skip, slide = vector._skip, vector._slide

    def spied_skip(*args):
        window = skip(*args)
        if window is not None:
            decided.append(True)
        return window

    def spied_slide(*args):
        decided.append(False)
        return slide(*args)

    with mock.patch.object(vector, "_skip", spied_skip), \
            mock.patch.object(vector, "_slide", spied_slide):
        check_block_encoder(p, symbols, block)
    assert decided == _skips_expected(p, symbols, block or coder._CHUNK)
    if block:  # the first blocks skip, the hot ones count, and the skip resumes
        assert decided[0] and decided[-1] and not all(decided)


@pytest.mark.parametrize("dtype, top", [("u1", 2**8), ("u2", 2**16), ("u4", 2**32)])
@pytest.mark.parametrize("n", [0, 1, 2, 50, 3000])
def test_most_counts_the_commonest_value(dtype, top, n):
    rng = random.Random(n)
    pool = [0, top - 1] + [rng.randrange(top) for _ in range(5)]
    for values in ([rng.choice(pool) for _ in range(n)], [rng.randrange(top) for _ in range(n)]):
        want = max(Counter(values).values(), default=0)
        assert vector._most(np.array(values, dtype)) == want


@pytest.mark.parametrize("n", [10**3, 10**5])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_block_encoder_over_the_acceptance_grid(sigma, n):
    seed = 0
    for lam in LAMBDAS:
        for c in SCALES:
            p = derive_params(sigma, lam, c)
            for dist, kw in SOURCES:
                seed += 1
                symbols = generate(dist, sigma=sigma, n=n, seed=seed, **kw).tolist()
                check_block_encoder(p, symbols, reference=n <= 10**3)


@pytest.mark.parametrize("sigma, bad", [
    (256, [0, 5, 256]), (256, [3, -1, 2]), (256, [2**70]), (256, [-2**70]),
    (256, [2**63]), (256, [1, 1.5]), (256, [2.0]), (256, [float("nan")]),
    (256, ["a", 1]), (256, [1, np.int64(3)]), (256, np.array([4, 1.0])),
    (256, np.array([9, 300], np.uint16)), (256, np.array([7, -3], np.int8)),
    (MAX_SIGMA, [MAX_SIGMA]), (MAX_SIGMA, np.array([2**63 - 1], np.int64)),
])
@pytest.mark.parametrize("at", [0, 11])
def test_block_encoder_rejects_what_the_loop_rejects(sigma, bad, at):
    p = derive_params(sigma, 2.0, 1)
    if isinstance(bad, np.ndarray):
        symbols = np.concatenate((np.ones(at, bad.dtype), bad))
    else:
        symbols = [1] * at + bad
    with pytest.raises(ParameterError) as loop_error:
        CoderState(p).encode_chunk(symbols, BitWriter())
    with mock.patch.object(coder, "_CHUNK", 7):
        with pytest.raises(ParameterError) as block_error:
            encode_stream(p, symbols, io.BytesIO())
    assert str(block_error.value) == str(loop_error.value)
    with pytest.raises(ParameterError) as raw_error:
        write_symbols(symbols, sigma)
    assert str(raw_error.value) == str(loop_error.value)
    # the error names the first symbol that is not an int in range
    seq = symbols.tolist() if isinstance(symbols, np.ndarray) else symbols
    first = next(i for i, a in enumerate(seq) if type(a) is not int or not 0 <= a < sigma)
    assert f"at position {first} " in str(loop_error.value)


class _FakeSum:
    """Not an int, but its sum with ints is one, so it passes the sum test."""

    def __radd__(self, other):
        return 0

    def __repr__(self):
        return "_FakeSum()"


@pytest.mark.parametrize("at", [0, 1])
def test_a_symbol_that_fakes_an_int_sum_is_rejected_as_the_loop_rejects_it(at):
    p = derive_params(256, 2.0, 1)
    symbols = [1] * at + [_FakeSum()]
    want = f"symbol _FakeSum() at position {at} is not an integer"
    with pytest.raises(ParameterError, match=re.escape(want)):
        CoderState(p).encode_chunk(symbols, BitWriter())
    with pytest.raises(ParameterError, match=re.escape(want)):
        encode_stream(p, symbols, io.BytesIO())
