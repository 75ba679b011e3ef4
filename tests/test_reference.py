"""Differential test: both backends against a deliberately naive reference coder.

The reference keeps the window in a Counter, the codebook as per-length lists
of symbols with swap-remove, and sums every codeword from scratch. It shares
no code with the coder except codeword_length, and it writes its bits as a
string of '0'/'1'.
"""

import random
from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from swsc.bitio import BitReader, BitWriter
from swsc.codebook import codeword_length
from swsc.coder import CoderState
from swsc.params import derive_params


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
    for backend in ("trie", "hashed"):
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
@given(sigma=st.sampled_from([2, 3, 256, 4096, 65536, 70000]),
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
