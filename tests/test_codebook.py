"""Canonical codebook: length rule, worked codewords, decode, mutation fuzz."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsc.codebook import NO_ANSWER, Codebook, codeword_length, length_bounds
from swsc.dictionary import CodeRecord
from swsc.errors import CorruptStreamError, InternalInconsistencyError, ParameterError
from swsc.params import CoderParams, derive_params


@pytest.mark.parametrize("ell,f,expected", [
    (1280, 1280, 0),
    (1280, 640, 1),
    (1280, 321, 2),
    (1280, 320, 2),
    (1280, 160, 3),
    (1280, 159, 4),
    (1280, 80, 4),
    (2, 1, 1),
    (2, 2, 0),
    (96, 12, 3),
    (96, 96, 0),
    (1, 1, 0),
])
def test_codeword_length_frozen(ell, f, expected):
    assert codeword_length(ell, f) == expected


@settings(max_examples=300, deadline=None)
@given(ell=st.integers(1, 10**6), f=st.integers(1, 10**6))
def test_codeword_length_is_smallest_covering_exponent(ell, f):
    f = min(f, ell)
    j = codeword_length(ell, f)
    assert f * (1 << j) >= ell
    assert j == 0 or f * (1 << (j - 1)) < ell


@pytest.mark.parametrize("ell,f", [(0, 1), (1, 0), (-1, 1), (1, -1)])
def test_codeword_length_rejects_nonpositive(ell, f):
    with pytest.raises(ValueError):
        codeword_length(ell, f)


def _smallest_threshold_header():
    # ceil(1000 / 2**3) = 125 is the least threshold that codes in l_max = 3 bits
    p = CoderParams(sigma=256, lam=2.0, c=1, ell=1000, threshold=125, l_max=3, width=8)
    with pytest.raises(ParameterError, match="longer than l_max"):
        CoderParams(sigma=256, lam=2.0, c=1, ell=1000, threshold=124, l_max=3, width=8)
    return p


def test_length_bounds_mark_every_class_crossing():
    grid = [derive_params(sigma, lam, c) for sigma in (3, 256, 4096, 65536, 70000)
            for lam in (1.0, 1.5, 2.0, 3.0) for c in (1, 10)]
    for p in grid + [_smallest_threshold_header()]:
        ell, l_max = p.ell, p.l_max
        down, up = length_bounds(ell, l_max)
        assert len(down) == len(up) == l_max + 1
        # every f in [threshold, ell], in blocks; codeword_length's formula is
        # vectorized here (bit_length is frexp's exponent), and checked
        # against codeword_length itself at each block's ends and every bound
        for lo in range(p.threshold, ell + 1, 1 << 20):
            f = np.arange(lo, min(lo + (1 << 20), ell + 1), dtype=np.int64)
            lengths = np.frexp((ell + f - 1) // f - 1)[1]
            edges = [x for b in down + up for x in (b - 1, b)
                     if f[0] <= x <= f[-1]] + [f[0], f[-1]]
            for x in edges:
                assert lengths[x - f[0]] == codeword_length(ell, int(x))
            for j in range(l_max + 1):
                assert np.array_equal(f >= up[j], lengths < j), (p, j)
                assert np.array_equal(f < down[j], lengths > j), (p, j)


def rec_of(a):
    """A fresh literal record of symbol a."""
    return CodeRecord(1, a)


def build_example():
    """Codebook with counts [0, 1, 1, 0, 4] at l_max 4, records by symbol."""
    cb = Codebook(4)
    d = {}
    for a, j in [(10, 1), (20, 2), (30, 4), (40, 4), (50, 4), (60, 4)]:
        d[a] = rec_of(a)
        cb.insert(d[a], j)
    return cb, d


def syms(lst):
    return [rec.sym for rec in lst]


def test_counts_and_kraft_of_example():
    cb, d = build_example()
    assert cb.counts() == [0, 1, 1, 0, 4]
    assert cb.kraft_total == 16 == cb.capacity
    assert cb.size == 6
    cb.check(d)


def test_codewords_of_example():
    cb, d = build_example()
    assert cb.codeword(d[10]) == 0b0 and d[10].length == 1
    assert cb.codeword(d[20]) == 0b10 and d[20].length == 2
    assert cb.codeword(d[30]) == 0b1100 and d[30].length == 4
    assert cb.codeword(d[50]) == 0b1110 and d[50].length == 4
    assert cb.codeword(d[60]) == 0b1111 and d[60].length == 4


def test_decode_of_example():
    cb, d = build_example()
    for b, a, j in [(0, 10, 1), (7, 10, 1), (8, 20, 2), (11, 20, 2),
                    (12, 30, 4), (14, 50, 4), (15, 60, 4)]:
        got = cb.decode(b)
        assert got is d[a] and got.length == j


def test_every_pad_completion_decodes_to_its_symbol():
    cb, d = build_example()
    seen = set()
    for rec in d.values():
        value, j = cb.codeword(rec), rec.length
        for pad in range(1 << (cb.l_max - j)):
            b = (value << (cb.l_max - j)) | pad
            assert cb.decode(b) is rec
            seen.add(b)
    assert seen == set(range(16))  # the example saturates the code space


def test_decode_past_the_coded_range_is_corrupt():
    cb = Codebook(4)
    rec = rec_of(7)
    cb.insert(rec, 1)  # counts [0, 1, 0, 0, 0]
    for b in range(8):
        assert cb.decode(b) is rec
    for b in range(8, 16):
        with pytest.raises(CorruptStreamError, match="outside the coded range"):
            cb.decode(b)


def test_decode_on_empty_codebook_is_corrupt():
    cb = Codebook(3)
    for b in range(8):
        with pytest.raises(CorruptStreamError, match="coded flag with no matching codeword"):
            cb.decode(b)


def test_decode_validates_peek_range():
    cb, _ = build_example()
    with pytest.raises(ValueError):
        cb.decode(16)
    with pytest.raises(ValueError):
        cb.decode(-1)


def test_codeword_validates_arguments():
    cb, d = build_example()
    cb.remove(d[30])
    for rec in (d[30], rec_of(70)):  # removed, and never inserted
        with pytest.raises(InternalInconsistencyError, match="is not coded"):
            cb.codeword(rec)


def test_coded_counts_answered_queries_only():
    cb = Codebook(4)
    rec = rec_of(7)
    cb.insert(rec, 1)  # counts [0, 1, 0, 0, 0]; an update is no query
    assert cb.coded == 0
    assert cb.decode(3) is rec and cb.codeword(rec) == 0
    assert cb.coded == 2
    with pytest.raises(CorruptStreamError):
        cb.decode(8)  # past the coded range
    with pytest.raises(ValueError):
        cb.decode(16)
    with pytest.raises(InternalInconsistencyError):
        cb.codeword(rec_of(9))  # never inserted
    assert cb.coded == 2
    touches = cb.kraft.touches
    cb.credit(3, 5)  # three queries answered from the tables, at 5 touches in all
    assert (cb.coded, cb.kraft.touches) == (5, touches + 5)


def test_end_step_keeps_the_most_touches_of_any_step():
    cb, d = Codebook(4), {a: rec_of(a) for a in (1, 2)}
    steps = []
    for update in (lambda: cb.insert(d[1], 4),
                   lambda: (cb.insert(d[2], 2), cb.codeword(d[1])),
                   lambda: cb.codeword(d[2])):
        before = cb.kraft.touches
        update()
        cb.end_step()
        steps.append(cb.kraft.touches - before)
        assert cb.max_step == max(steps)
    assert steps == [1, 3, 1]
    cb.end_step()  # a step with no touches
    assert cb.max_step == 3
    cb.codeword(d[1])
    cb.end_step()  # measured from the last step's end, not from the empty one
    assert cb.max_step == 3
    cb.credit(2, 40)  # answers billed to closed steps: no step of its own
    cb.end_step()
    assert cb.max_step == 3
    cb.credit(2, 4, 2)  # the last 2 touches are the open step's
    cb.remove(d[2])  # 2 touches of the step's own
    cb.end_step()
    assert cb.max_step == 4


def answered(entry, cb):
    """What a coder takes from a bases or peeks entry: its answer if current, else None."""
    epoch, answer, _ = entry
    return answer if epoch == cb.epoch else None


def test_an_answer_holds_until_the_next_insert_move_or_remove():
    cb, d = build_example()  # A[1] [10], A[2] [20], A[4] [30, 40, 50, 60]
    for event, b, before, after in [
            (lambda: cb.remove(d[30]), 12, 30, 60),  # 60 swaps into 30's slot
            (lambda: cb.move(d[20], 3), 10, 20, 60),  # A[4] now starts at 10
            (lambda: cb.insert(d.setdefault(70, rec_of(70)), 3), 10, 60, 70)]:
        t = cb.kraft.touches
        assert cb.decode(b) is d[before]
        assert cb.peeks[b] == (cb.epoch, d[before], cb.kraft.touches - t)  # what it cost
        t = cb.kraft.touches
        assert cb.codeword(d[10]) == 0
        assert cb.bases[1] == (cb.epoch, 0, cb.kraft.touches - t)
        assert answered(cb.peeks.get(b, NO_ANSWER), cb) is d[before]
        assert answered(cb.bases[1], cb) == 0
        event()
        assert answered(cb.peeks.get(b, NO_ANSWER), cb) is None
        assert answered(cb.bases[1], cb) is None  # A[1]'s base held, yet the epoch moved
        assert cb.decode(b) is d[after] and answered(cb.peeks.get(b, NO_ANSWER), cb) is d[after]
    assert answered(cb.peeks.get(3, NO_ANSWER), cb) is None  # never asked


def test_insert_guards():
    cb = Codebook(2)
    rec = rec_of(5)
    cb.insert(rec, 1)
    with pytest.raises(InternalInconsistencyError):
        cb.insert(rec, 1)  # already coded
    with pytest.raises(InternalInconsistencyError):
        cb.insert(rec_of(6), 3)  # length out of range
    with pytest.raises(ValueError, match="l_max must be >= 1"):
        Codebook(0)


def test_insert_past_kraft_capacity_is_internal_error():
    cb = Codebook(1)  # capacity 2
    for a in (1, 2):
        cb.insert(rec_of(a), 1)
    assert cb.kraft_total == 2
    with pytest.raises(InternalInconsistencyError):
        cb.insert(rec_of(3), 1)


def test_remove_swaps_last_into_the_hole():
    cb, d = build_example()
    # A[4] is [30, 40, 50, 60]; removing 30 moves 60 into slot 0
    cb.remove(d[30])
    assert d[30].length is None and d[30].index is None
    assert syms(cb.lists[4]) == [60, 40, 50]
    assert d[60].index == 0
    assert cb.kraft_total == 15
    cb.check(d)


def test_remove_from_the_middle_renumbers_the_swapped_record():
    cb, d = build_example()
    rec = d.pop(40)
    cb.remove(rec)
    assert syms(cb.lists[4]) == [30, 60, 50]
    assert cb.lists[4][1] is d[60] and d[60].index == 1
    cb.check(d)


def test_remove_uncoded_record_is_internal_error():
    cb = Codebook(2)
    with pytest.raises(InternalInconsistencyError):
        cb.remove(rec_of(9))
    with pytest.raises(InternalInconsistencyError, match="symbol 9 is not coded"):
        cb.move(rec_of(9), 1)
    first, last = rec_of(1), rec_of(2)
    cb.insert(first, 1)
    cb.insert(last, 1)
    first.index = 5  # a slot past the list's end, once the last record is popped
    with pytest.raises(InternalInconsistencyError, match="stale index 5 for symbol 1"):
        cb.remove(first)


def test_check_detects_a_record_missing_from_the_dictionary():
    cb, d = build_example()
    del d[50]
    with pytest.raises(InternalInconsistencyError):
        cb.check(d)
    d[50] = rec_of(50)  # an equal record that is not the listed one
    d[50].length, d[50].index = cb.lists[4][2].length, cb.lists[4][2].index
    with pytest.raises(InternalInconsistencyError):
        cb.check(d)


def test_move_shifts_one_level_and_renumbers():
    cb, d = build_example()
    cb.move(d[20], 3)
    assert cb.counts() == [0, 1, 0, 1, 4]
    assert d[20].length == 3 and d[20].index == 0
    assert cb.kraft_total == 16 - 4 + 2
    cb.check(d)
    cb.move(d[20], 2)
    assert cb.counts() == [0, 1, 1, 0, 4]
    cb.check(d)


def test_move_more_than_one_level_is_internal_error():
    cb, d = build_example()
    with pytest.raises(InternalInconsistencyError):
        cb.move(d[20], 4)
    with pytest.raises(InternalInconsistencyError):
        cb.move(d[30], 6)  # also out of range
    with pytest.raises(InternalInconsistencyError, match=r"within 0\.\.4"):
        cb.move(d[30], 5)  # one level, but past l_max


def test_move_past_kraft_capacity_is_internal_error():
    cb, d = build_example()  # already saturated at capacity
    with pytest.raises(InternalInconsistencyError):
        cb.move(d[30], 3)  # halving one weight to a doubled one


def test_check_detects_desync():
    cb, d = build_example()
    cb.kraft.add(1, 1)  # corrupt the scaled sums behind the codebook's back
    with pytest.raises(InternalInconsistencyError):
        cb.check(d)
    for field, message in (("kraft_total", "Kraft total out of sync"),
                           ("size", "size out of sync")):
        cb, d = build_example()
        setattr(cb, field, getattr(cb, field) + 1)
        with pytest.raises(InternalInconsistencyError, match=message):
            cb.check(d)
    # a failed insert at length 0 leaves its record linked past capacity
    cb = Codebook(1)
    d = {1: rec_of(1), 2: rec_of(2)}
    cb.insert(d[1], 1)
    with pytest.raises(InternalInconsistencyError, match="exceeds capacity 2"):
        cb.insert(d[2], 0)
    with pytest.raises(InternalInconsistencyError, match="Kraft sum exceeds capacity"):
        cb.check(d)


def test_codewords_are_prefix_free_under_random_mutation():
    rng = random.Random(424242)
    for _ in range(60):
        l_max = rng.randrange(1, 6)
        cb = Codebook(l_max)
        d = {}
        next_sym = 0
        for _ in range(rng.randrange(5, 60)):
            coded = [a for a, r in d.items() if r.length is not None]
            op = rng.randrange(3)
            if op == 0:
                j = rng.randrange(0, l_max + 1)
                w = 1 << (l_max - j)
                if cb.kraft_total + w <= cb.capacity:
                    d[next_sym] = rec_of(next_sym)
                    cb.insert(d[next_sym], j)
                    next_sym += 1
            elif op == 1 and coded:
                a = rng.choice(coded)
                cb.remove(d.pop(a))
            elif op == 2 and coded:
                a = rng.choice(coded)
                j = d[a].length
                j_to = j + rng.choice((-1, 1))
                w_new = 1 << (l_max - min(max(j_to, 0), l_max))
                w_old = 1 << (l_max - j)
                if (0 <= j_to <= l_max
                        and cb.kraft_total - w_old + w_new <= cb.capacity):
                    cb.move(d[a], j_to)
            cb.check(d)
            # canonical codewords must tile disjoint intervals
            spans = []
            for r in d.values():
                if r.length is None:
                    continue
                v, j = cb.codeword(r), r.length
                lo = v << (l_max - j)
                spans.append((lo, lo + (1 << (l_max - j))))
                for pad in range(1 << (l_max - j)):
                    assert cb.decode(lo | pad) is r
            for b in range(cb.kraft_total, cb.capacity):
                with pytest.raises(CorruptStreamError):
                    cb.decode(b)
            # decode's only tree work is one search
            for b in range(cb.capacity):
                t0 = cb.kraft.touches
                cb.kraft.search_with_prefix(b)
                t1 = cb.kraft.touches
                try:
                    cb.decode(b)
                except CorruptStreamError:
                    pass
                assert cb.kraft.touches - t1 == t1 - t0
            spans.sort()
            for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
                assert hi1 <= lo2  # no overlap means prefix-free
