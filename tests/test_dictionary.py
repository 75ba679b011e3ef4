"""Dictionary backends: contract tests, memory model values, oracle fuzz."""

import ast
import gc
import inspect
import random
import textwrap
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsc.dictionary import (RECORD_MODEL_BYTES, TRIE_MAX_SIGMA, CodeRecord,
                             HashedDictionary, TrieDictionary, choose_backend,
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
    assert (r.freq, r.length, r.index, r.sym) == (3, None, None, None)
    r = CodeRecord(3, 7)
    assert r == CodeRecord(3, 7)
    assert r != CodeRecord(4, 7) and r != CodeRecord(3, 8)
    r.length, r.index = 2, 0
    assert r != CodeRecord(3, 7)  # equality covers the codebook slot
    assert "freq=3" in repr(r) and "sym=7" in repr(r)


@pytest.mark.parametrize("backend", BACKENDS + ["hashed-seed"])
def test_get_put_delete_cycle(backend):
    # HashedDictionary still accepts a seed keyword, and ignores it
    d = HashedDictionary(4096, seed=1234) if backend == "hashed-seed" else make(backend, 4096)
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


def test_hashed_capacity_stays_within_eight_slots_per_key():
    # the resize rule (double past load 1/2, halve below 1/8) keeps
    # 2 * keys <= capacity <= max(8, 8 * keys) after every operation
    d = HashedDictionary(2**32 - 1, seed=3)
    rng = random.Random(8)
    live = []
    for _ in range(12):
        target = rng.choice([0, 1, 5, 40, 300, 3000])
        while len(live) != target:
            if len(live) < target:
                a = rng.randrange(2**32 - 1)
                if d.get(a) is None:
                    d.put(a, CodeRecord(1))
                    live.append(a)
            else:
                d.delete(live.pop(rng.randrange(len(live))))
            assert 2 * len(d) <= d.capacity <= max(8, 8 * len(d))


@pytest.mark.parametrize("sigma, chosen", [
    (2, "trie"), (256, "trie"), (65536, "trie"), (65537, "hashed"), (2**32 - 1, "hashed"),
])
def test_default_backend_is_the_trie_up_to_16_bit_symbols(sigma, chosen):
    assert choose_backend(None, sigma) == chosen
    assert type(make_dictionary(None, sigma)) is {"trie": TrieDictionary,
                                                  "hashed": HashedDictionary}[chosen]
    assert choose_backend("hashed", sigma) == "hashed"  # at any sigma
    if chosen == "trie":
        assert choose_backend("trie", sigma) == "trie"
    else:  # above 2^16 the trie's child tables would grow with sigma
        with pytest.raises(ParameterError, match="the trie takes sigma up to 65536"):
            choose_backend("trie", sigma)
    with pytest.raises(ParameterError, match="unknown dictionary backend"):
        choose_backend("Trie", sigma)


def test_trie_table_count_is_linear_in_keys():
    sigma = 65536
    d = TrieDictionary(sigma)
    rng = random.Random(5)
    keys = {rng.randrange(sigma) for _ in range(512)}
    for a in keys:
        d.put(a, CodeRecord(1))
    assert d.table_count <= len(keys) + 1
    for a in keys:
        d.delete(a)
    assert d.table_count == 1  # only the root survives
    assert len(d) == 0


def test_trie_memory_model_frozen_values():
    d = TrieDictionary(65536)
    assert d.table_count == 1
    assert d.report_memory() == 2048  # 256-slot root at 8 bytes each
    d.put(1234, CodeRecord(1))
    assert d.report_memory() == 4103  # + 256-slot child + one 7-byte record
    d.delete(1234)
    assert d.report_memory() == 2048

    small = TrieDictionary(256)
    assert small.report_memory() == 128  # 16-slot root
    small.put(7, CodeRecord(1))
    assert small.report_memory() == 263

    binary = TrieDictionary(2)  # width 1 splits 1 + 0: 1-slot child tables
    assert binary.report_memory() == 16
    binary.put(1, CodeRecord(1))
    assert binary.report_memory() == 31

    odd = TrieDictionary(300)  # width 9 splits 5 + 4
    assert odd.report_memory() == 256
    odd.put(299, CodeRecord(1))
    assert odd.report_memory() == 391


def refused_by_the_trie(sigma):
    """True, having checked the refusal, when sigma is too wide for the trie."""
    if sigma <= TRIE_MAX_SIGMA:
        return False
    with pytest.raises(ParameterError, match=f"the trie takes sigma up to 65536, not {sigma}"):
        TrieDictionary(sigma)
    return True


@pytest.mark.parametrize("sigma", [2, 3, 256, 300, 65536, 65537])
def test_trie_stores_both_ends_of_the_alphabet(sigma):
    if refused_by_the_trie(sigma):
        return
    d = TrieDictionary(sigma)
    d.put(sigma - 1, CodeRecord(2))
    d.put(0, CodeRecord(3))
    assert d.get(sigma - 1).freq == 2
    assert d.get(0).freq == 3
    assert [a for a, _ in d.items()] == [0, sigma - 1]


def _recount_trie(d):
    """(tables, slots, records) found by walking d's two levels of tables."""
    root, csize = d._root, d._csize
    tables, slots, records = 1, len(root), 0
    for node in root:
        if node is None:
            continue
        filled = sum(x is not None for x in node[:csize])
        assert node[csize] == filled  # the table's own occupancy cell
        assert filled  # emptied child tables are freed
        tables += 1
        slots += csize
        records += filled
    return tables, slots, records


@pytest.mark.parametrize("sigma", [3, 256, 300, 65536, 65537])
def test_trie_accounting_matches_a_recount(sigma):
    if refused_by_the_trie(sigma):
        return
    d = TrieDictionary(sigma)
    rng = random.Random(31337)
    live = set()
    # clustered keys share child tables, so tables both fill and empty
    pool = [rng.randrange(sigma) & ~0x0F0F for _ in range(300)]
    pool += list(range(min(64, sigma))) + [sigma - 1]
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


@pytest.mark.parametrize("eps,old_height", [
    (1.0, 1), (0.5, 2), (0.25, 4), (0.0625, 16),
])
def test_trie_height_follows_eps_prime(eps, old_height):
    # eps_prime once set the trie's height (old_height); the knob is gone,
    # and every setting now gets the two levels that eps_prime 0.5 gave
    with pytest.raises(TypeError):
        TrieDictionary(65536, eps_prime=eps)
    d = TrieDictionary(65536)
    d.put(65535, CodeRecord(2))
    d.put(0, CodeRecord(3))
    assert d.get(65535).freq == 2
    assert d.get(0).freq == 3
    assert d.table_count == 3  # the root plus one child table per key


@pytest.mark.parametrize("backend", BACKENDS)
def test_operations_are_class_methods(backend):
    # per-layer tracing patches the class; an instance attribute would hide
    # the operation from it
    d = make(backend, 65536)
    for name in ("lookup", "get", "put", "delete"):
        assert name not in vars(d)
        assert callable(getattr(type(d), name))
    # perfbench/tracing.py patches get/put/delete through cls.__dict__, so
    # they must be defined in the class body itself, not inherited
    for name in ("get", "put", "delete"):
        assert name in vars(type(d))


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


def test_hashed_lookup_follows_every_resize():
    d = HashedDictionary(65536, seed=3)
    rng = random.Random(5)
    keys = rng.sample(range(65536), 200)
    absent = [a for a in range(65536) if a % 97 == 5 and a not in keys]
    stored, caps = {}, [d.capacity]

    def check():
        # the model bills every slot
        assert d.report_memory() == d.capacity * (symbol_model_bytes(65536)
                                                  + RECORD_MODEL_BYTES)
        for a, rec in stored.items():
            assert d.lookup(a) is rec
        for a in absent:
            assert d.lookup(a) is None

    for a in keys:
        stored[a] = CodeRecord(1, a)
        d.put(a, stored[a])
        if d.capacity != caps[-1]:
            caps.append(d.capacity)
            check()
    grows = len(caps) - 1
    for a in keys:
        d.delete(a)
        del stored[a]
        if d.capacity != caps[-1]:
            caps.append(d.capacity)
            check()
    shrinks = len(caps) - 1 - grows
    assert grows >= 2 and shrinks >= 2, caps


@settings(max_examples=60, deadline=None)
@given(sigma=st.sampled_from([256, 2**32 - 1]),
       bursts=st.lists(st.tuples(st.sampled_from(["put", "overwrite", "delete"]),
                                 st.integers(1, 64), st.integers(0, 2**32 - 1)),
                       max_size=20))
def test_hashed_capacity_follows_the_resize_rule(sigma, bursts):
    # the modeled table doubles when an insert would pass load 1/2 and halves
    # while the load is below 1/8, never below MIN_CAPACITY; ops come in
    # bursts so that runs of deletes reach the low loads
    d = HashedDictionary(sigma)
    live, cap = [], HashedDictionary.MIN_CAPACITY
    for op, count, seed in bursts:
        rng = random.Random(seed)
        for _ in range(count):
            if op == "put":
                a = rng.randrange(sigma)
                if a not in live:
                    if 2 * (len(live) + 1) > cap:
                        cap *= 2
                    live.append(a)
                d.put(a, CodeRecord(1, a))
            elif live and op == "overwrite":
                a = live[rng.randrange(len(live))]
                d.put(a, CodeRecord(2, a))
            elif live:
                d.delete(live.pop(rng.randrange(len(live))))
                while cap > HashedDictionary.MIN_CAPACITY and 8 * len(live) < cap:
                    cap //= 2
            assert len(d) == len(live)
            assert d.capacity == cap
            assert d.report_memory() == cap * (symbol_model_bytes(sigma)
                                               + RECORD_MODEL_BYTES)


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


def test_trie_steps_have_a_constant_worst_case():
    # no operation loops, and every table it can touch is at most 2^8 + 1
    # slots at every sigma the trie accepts, so each step is O(1)
    for name in ("lookup", "get", "put", "delete"):
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(TrieDictionary, name))))
        loops = [type(node).__name__ for node in ast.walk(tree)
                 if isinstance(node, (ast.For, ast.While, ast.AsyncFor, ast.comprehension))]
        assert not loops, f"TrieDictionary.{name} has {loops}"
    for sigma in (2, 3, 255, 256, 257, 300, 4096, 65535, 65536):
        d = TrieDictionary(sigma)
        for a in (0, sigma // 2, sigma - 1):
            d.put(a, CodeRecord(1))
        children = [node for node in d._root if node is not None]
        assert len(d._root) <= 1 << 8
        assert children and all(len(node) <= (1 << 8) + 1 for node in children)


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
        {"trie": TrieDictionary, "hashed": HashedDictionary}[backend](2**32)
    if backend == "trie":  # the trie stops long before the stream limit
        assert refused_by_the_trie(2**32 - 1)
        return
    d = make(backend, 2**32 - 1)
    d.put(2**32 - 2, CodeRecord(1))
    assert d.get(2**32 - 2).freq == 1
