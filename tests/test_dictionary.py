"""Dictionary backends: contract tests, memory model values, oracle fuzz."""

import gc
import random
import weakref

import pytest

from swsc.dictionary import (CodeRecord, HashedDictionary, TrieDictionary,
                             make_dictionary, symbol_model_bytes)
from swsc.errors import InternalInconsistencyError, ParameterError

BACKENDS = ["trie", "hashed"]


def make(backend, sigma, **kw):
    return make_dictionary(backend, sigma, **kw)


@pytest.mark.parametrize("sigma,expected", [
    (2, 1), (255, 1), (256, 1), (257, 2), (65536, 2), (65537, 4), (2**32, 4),
])
def test_symbol_model_bytes(sigma, expected):
    assert symbol_model_bytes(sigma) == expected


def test_code_record_basics():
    r = CodeRecord(3)
    assert (r.freq, r.length, r.index) == (3, None, None)
    assert r.length is None
    r.length, r.index = 2, 0
    assert r.length is not None
    assert r == CodeRecord(3, 2, 0)
    assert r != CodeRecord(4, 2, 0)
    assert "freq=3" in repr(r)


@pytest.mark.parametrize("backend", BACKENDS)
def test_get_put_delete_cycle(backend):
    d = make(backend, 4096)
    assert d.get(17) is None
    rec = CodeRecord(1)
    d.put(17, rec)
    assert d.get(17) is rec
    assert len(d) == 1
    d.delete(17)
    assert d.get(17) is None
    assert len(d) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_overwrite_keeps_size(backend):
    d = make(backend, 256)
    d.put(9, CodeRecord(1))
    newer = CodeRecord(5)
    d.put(9, newer)
    assert len(d) == 1
    assert d.get(9) is newer


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_absent_is_internal_error(backend):
    d = make(backend, 256)
    with pytest.raises(InternalInconsistencyError):
        d.delete(3)
    d.put(3, CodeRecord(1))
    d.delete(3)
    with pytest.raises(InternalInconsistencyError):
        d.delete(3)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [-1, 256, 10**9])
def test_out_of_range_symbols_rejected(backend, bad):
    d = make(backend, 256)
    for op in (lambda: d.get(bad), lambda: d.put(bad, CodeRecord(1)),
               lambda: d.delete(bad)):
        with pytest.raises(ParameterError):
            op()


@pytest.mark.parametrize("backend", BACKENDS)
def test_items_yields_all_pairs(backend):
    d = make(backend, 65536)
    recs = {a: CodeRecord(a % 7 + 1) for a in (0, 1, 500, 65535, 32768)}
    for a, r in recs.items():
        d.put(a, r)
    got = dict(d.items())
    assert got == recs
    assert all(got[a] is recs[a] for a in recs)


def test_trie_items_come_out_in_symbol_order():
    d = make("trie", 4096)
    for a in (700, 3, 4095, 256, 12):
        d.put(a, CodeRecord(1))
    assert [a for a, _ in d.items()] == [3, 12, 256, 700, 4095]


@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_plain_dict_over_random_ops(backend):
    sigma = 65536
    d = make(backend, sigma)
    ref = {}
    rng = random.Random(20240817)
    # keys drawn from a small pool so deletes and overwrites actually hit
    pool = [rng.randrange(sigma) for _ in range(700)]
    for step in range(100_000):
        a = pool[rng.randrange(len(pool))]
        op = rng.randrange(4)
        if op == 0:
            rec = CodeRecord(step % 9 + 1)
            d.put(a, rec)
            ref[a] = rec
        elif op == 1 and a in ref:
            d.delete(a)
            del ref[a]
        else:
            got = d.get(a)
            assert got is ref.get(a)
        if step % 20_000 == 0:
            assert len(d) == len(ref)
            assert dict(d.items()) == ref
    assert dict(d.items()) == ref


def test_trie_table_count_is_linear_in_keys():
    sigma = 65536
    d = TrieDictionary(sigma)  # eps_prime 0.5: height 2
    rng = random.Random(5)
    keys = {rng.randrange(sigma) for _ in range(512)}
    for a in keys:
        d.put(a, CodeRecord(1))
    assert d.table_count <= d.height * len(keys) + 1
    for a in keys:
        d.delete(a)
    assert d.table_count == 1  # only the root survives
    assert len(d) == 0


def test_trie_memory_model_frozen_values():
    d = TrieDictionary(65536)
    assert (d.height, d.table_count) == (2, 1)
    assert d.report_memory() == 2048  # 256-slot root at 8 bytes each
    d.put(1234, CodeRecord(1))
    assert d.report_memory() == 4103  # + 256-slot child + one 7-byte record
    d.delete(1234)
    assert d.report_memory() == 2048

    small = TrieDictionary(256)
    assert small.report_memory() == 128  # 16-slot root
    small.put(7, CodeRecord(1))
    assert small.report_memory() == 263


def _recount_trie(d):
    """(tables, slots, records) found by walking d's tables from the root."""
    tables = slots = records = 0
    stack = [(d._root, 0)]
    while stack:
        node, depth = stack.pop()
        size = d._levels[depth][2]
        tables += 1
        slots += size
        filled = [x for x in node[:size] if x is not None]
        assert node[size] == len(filled)  # the table's own occupancy cell
        if depth == d.height - 1:
            records += len(filled)
        else:
            assert filled or depth == 0  # emptied child tables are freed
            stack.extend((child, depth + 1) for child in filled)
    return tables, slots, records


@pytest.mark.parametrize("eps,height", [(1.0, 1), (0.5, 2), (0.25, 4)])
def test_trie_accounting_matches_a_recount(eps, height):
    d = TrieDictionary(65536, eps_prime=eps)
    assert d.height == height
    rng = random.Random(31337)
    live = set()
    # clustered keys share child tables, so tables both fill and empty
    pool = [rng.randrange(65536) & ~0x0F0F for _ in range(300)] + list(range(64))
    for _ in range(20_000):
        a = pool[rng.randrange(len(pool))]
        if a in live and rng.randrange(2):
            d.delete(a)
            live.discard(a)
        else:
            d.put(a, CodeRecord(1))
            live.add(a)

    def check():
        tables, slots, records = _recount_trie(d)
        assert len(d) == records == len(live)
        assert d.table_count == tables
        assert d.report_memory() == slots * 8 + records * 7

    check()
    for a in sorted(live):  # then empty it: only the root table remains
        d.delete(a)
    live.clear()
    check()
    assert (d.table_count, len(d)) == (1, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_dropped_dictionary_is_freed_at_once(backend):
    # no reference cycle: a coder's dictionary goes when its last user does
    gc.disable()
    try:
        d = make(backend, 65536)
        d.put(7, CodeRecord(1))
        ref = weakref.ref(d)
        del d
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("eps,expected_height", [
    (1.0, 1), (0.5, 2), (0.25, 4), (0.0625, 16),
])
def test_trie_height_follows_eps_prime(eps, expected_height):
    d = TrieDictionary(65536, eps_prime=eps)
    assert d.height == expected_height
    d.put(65535, CodeRecord(2))
    d.put(0, CodeRecord(3))
    assert d.get(65535).freq == 2
    assert d.get(0).freq == 3


@pytest.mark.parametrize("eps", [0.0, -0.5, 1.5])
def test_trie_rejects_bad_eps_prime(eps):
    with pytest.raises(ParameterError):
        TrieDictionary(256, eps_prime=eps)


def test_hashed_memory_model_frozen_values():
    d = HashedDictionary(65536)
    assert d.capacity == 8
    assert d.report_memory() == 72  # 8 slots * (2-byte key + 7-byte record)
    for a in range(100):
        d.put(a, CodeRecord(1))
    assert d.capacity == 256  # load factor kept at or below 1/2
    for a in range(99, 5, -1):
        d.delete(a)
    assert len(d) == 6
    d.delete(0)
    assert len(d) == 5
    assert d.capacity == 32  # shrunk once 8n < capacity
    assert sorted(a for a, _ in d.items()) == [1, 2, 3, 4, 5]


def test_hashed_seed_changes_layout_not_content():
    rng = random.Random(77)
    keys = [rng.randrange(4096) for _ in range(300)]
    dicts = [HashedDictionary(4096, seed=s) for s in (0, 1, 1234)]
    for a in set(keys):
        for d in dicts:
            d.put(a, CodeRecord(a + 1))
    for d in dicts:
        assert sorted(d.items()) == sorted(dicts[0].items())
        for a in set(keys):
            assert d.get(a).freq == a + 1


def test_hashed_capacity_never_drops_below_minimum():
    d = HashedDictionary(256)
    for a in range(3):
        d.put(a, CodeRecord(1))
    for a in range(3):
        d.delete(a)
    assert d.capacity == HashedDictionary.MIN_CAPACITY


@pytest.mark.parametrize("backend", BACKENDS)
def test_sigma_two_edge(backend):
    d = make(backend, 2)
    d.put(0, CodeRecord(1))
    d.put(1, CodeRecord(2))
    assert d.get(0).freq == 1
    assert d.get(1).freq == 2
    d.delete(0)
    assert d.get(0) is None
    assert d.get(1).freq == 2


def test_unknown_backend_rejected():
    with pytest.raises(ParameterError):
        make_dictionary("btree", 256)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sigma_below_two_rejected(backend):
    with pytest.raises(ParameterError):
        make(backend, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sigma_past_the_stream_limit_rejected(backend):
    with pytest.raises(ParameterError, match="stream limit"):
        make(backend, 2**32)
    d = make(backend, 2**32 - 1)
    d.put(2**32 - 2, CodeRecord(1))
    assert d.get(2**32 - 2).freq == 1
