"""Entropy accounting, the length bound, and the audit oracles."""

import math
from collections import Counter
from dataclasses import asdict

import pytest

from swsc.analysis import (GUARD_BAND_PER_SYMBOL, BoundReport, EntropyStats,
                           MemoryAudit, check_bound, delta_term, entropy,
                           memory_audit, naive_table_bytes, oracle_state,
                           theorem1_bound)
from swsc.bitio import BitWriter
from swsc.cli import _text_lines
from swsc.coder import CoderReport, CoderState
from swsc.params import derive_params

approx = pytest.approx


def test_entropy_frozen_small_case():
    # counts {3, 1}: (3/4) log2(4/3) + (1/4) log2(4)
    assert entropy([3, 1], 4) == approx(0.8112781244591328, rel=1e-12)


def test_entropy_uniform_power_of_two_is_exact():
    counts = [4] * 256
    assert entropy(counts, 1024) == 8.0


def test_entropy_degenerate_inputs():
    assert entropy([], 0) == 0.0
    assert entropy([1], 1) == 0.0
    assert entropy([5], 5) == 0.0  # single symbol carries no information
    assert entropy([0, 4], 4) == 0.0  # zero counts are ignored


def test_entropy_accepts_mapping_or_iterable():
    assert entropy({7: 3, 9: 1}, 4) == entropy([3, 1], 4)


def test_entropy_accumulation_is_stable():
    counts = list(range(1, 2000))
    n = sum(counts)
    forward = entropy(counts, n)
    backward = entropy(list(reversed(counts)), n)
    assert forward == approx(backward, rel=1e-9)


def test_entropy_stats_from_symbols():
    stats = EntropyStats.from_symbols([0, 0, 0, 1])
    assert stats.n == 4
    assert stats.distinct == 2
    assert stats.counts == Counter({0: 3, 1: 1})
    assert stats.h0 == approx(0.8112781244591328, rel=1e-12)
    assert stats.to_dict()["distinct"] == 2


# delta = 2 * lam * (log2 c + 3) / c, values frozen independently
DELTA_FROZEN = [
    (1.0, 10, 1.2643856189774723),
    (1.0, 100, 0.19287712379549446),
    (2.0, 10, 2.5287712379549445),
    (2.0, 100, 0.3857542475909889),
    (3.0, 10, 3.793156856932417),
    (3.0, 100, 0.5786313713864835),
]


@pytest.mark.parametrize("lam,c,expected", DELTA_FROZEN)
def test_delta_term_frozen(lam, c, expected):
    assert delta_term(lam, c) == approx(expected, rel=1e-12)


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
def test_delta_shrinks_below_the_advertised_caps(lam):
    assert delta_term(lam, 10) < (2.0 - math.log(2.0)) * lam
    assert delta_term(lam, 100) < 0.9 * lam


def test_bound_zero_length_run_is_remainder_only():
    p = derive_params(256, 2.0, 10)
    rep = theorem1_bound(0, 0.0, p)
    assert rep.bound == rep.remainder
    assert rep.main_term == 0.0
    assert rep.linear_term == 0.0
    assert rep.remainder == approx(56102.56793363158, rel=1e-12)


def test_bound_linear_coefficient_frozen():
    p = derive_params(256, 2.0, 10)
    base = theorem1_bound(0, 0.0, p).bound
    rep = theorem1_bound(1000, 0.0, p)
    assert rep.bound - base == approx(1000 * 5.915065599074835, rel=1e-12)


def test_bound_grows_with_n_and_entropy():
    p = derive_params(4096, 1.5, 10)
    b1 = theorem1_bound(1000, 2.0, p).bound
    b2 = theorem1_bound(2000, 2.0, p).bound
    b3 = theorem1_bound(2000, 3.0, p).bound
    assert b1 < b2 < b3


def test_bound_rejects_negative_arguments():
    p = derive_params(256, 2.0, 10)
    with pytest.raises(ValueError):
        theorem1_bound(-1, 0.0, p)
    with pytest.raises(ValueError):
        theorem1_bound(10, -0.1, p)


def _report_with_bits(bits):
    return CoderReport(n=0, payload_bits=bits, payload_bytes=0,
                       literal_count=0, coded_count=0, max_code_size=0,
                       ps_touches=0, ps_touches_max_step=0, cost_units=0)


def test_check_bound_passes_under_and_fails_over():
    p = derive_params(256, 2.0, 10)
    n = 10**6
    stats = EntropyStats(n=n, counts=Counter(), h0=0.0)
    limit = theorem1_bound(n, 0.0, p).bound
    ok = check_bound(_report_with_bits(int(limit - 1000)), stats, p)
    assert ok.passed
    assert ok.slack == approx(limit - int(limit - 1000))
    bad = check_bound(_report_with_bits(int(limit + 2 * n * 1e-6) + 2), stats, p)
    assert not bad.passed


def test_check_bound_guard_band_absorbs_float_noise():
    p = derive_params(256, 2.0, 10)
    n = 10**6
    stats = EntropyStats(n=n, counts=Counter(), h0=0.0)
    limit = theorem1_bound(n, 0.0, p).bound
    just_over = check_bound(
        _report_with_bits(int(limit + 0.5 * GUARD_BAND_PER_SYMBOL * n)),
        stats, p)
    assert just_over.passed


def test_bound_report_lines_and_dict():
    p = derive_params(256, 2.0, 10)
    rep = theorem1_bound(100, 1.0, p)
    lines = _text_lines(asdict(rep))
    assert f"delta={rep.delta:.6f}" in lines
    assert asdict(rep)["bound"] == rep.bound
    assert asdict(rep)["measured_bits"] is None
    # unmeasured fields stay out of the text form
    assert not any(line.startswith("measured") for line in lines)


def test_oracle_state_full_window_of_one_symbol():
    p = derive_params(2, 1.0, 1)  # ell 2, threshold 1
    st = oracle_state([0, 0], p)
    assert st.frequencies == {0: 2}
    assert st.frequent == {0}
    assert st.lengths == {0: 0}
    assert st.histogram == [1, 0]


def test_oracle_state_empty_window():
    p = derive_params(64, 2.0, 2)
    st = oracle_state([], p)
    assert st.frequencies == {}
    assert st.frequent == set()
    assert st.lengths == {}
    assert st.histogram == [0, 0, 0, 0]


def test_oracle_state_mixed_window():
    p = derive_params(64, 2.0, 2)  # ell 96, threshold 12, l_max 3
    window = [5] * 50 + [7] * 12 + [9] * 11 + list(range(20, 43))
    assert len(window) == 96
    st = oracle_state(window, p)
    assert st.frequencies[5] == 50
    assert st.frequencies[9] == 11
    assert st.frequent == {5, 7}
    assert st.lengths == {5: 1, 7: 3}
    assert st.histogram == [0, 1, 0, 1]


def test_memory_audit_frozen_fresh_state():
    p = derive_params(65536, 2.0, 10)  # ell 40960, l_max 8
    audit = memory_audit(CoderState(p, backend="trie"))
    assert audit.window_bytes == 81920  # 2-byte symbols
    assert audit.dictionary_bytes == 2048
    assert audit.codebook_bytes == 72  # 9 empty list heads
    assert audit.partial_sums_bytes == 160
    assert audit.total_bytes == 81920 + 2048 + 72 + 160
    assert isinstance(audit, MemoryAudit)
    assert asdict(audit)["total_bytes"] == audit.total_bytes


def test_memory_audit_counts_coded_symbols():
    p = derive_params(256, 2.0, 10)
    state = CoderState(p)
    base = memory_audit(state).codebook_bytes
    writer = BitWriter()
    for a in [3] * 200:  # drives symbol 3 over the threshold
        state.encode_chunk([a], writer)
    grown = memory_audit(state).codebook_bytes
    assert grown == base + 1  # one coded symbol at one model byte


def test_naive_table_bytes():
    assert naive_table_bytes(65536) == 2097152
    assert naive_table_bytes(2) == 64
