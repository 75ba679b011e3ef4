"""Entropy accounting, the encoding-length guarantee, and audit oracles.

The guarantee checked here: for a string of n symbols with empirical entropy
h0, the emitted payload stays below

    lambda * n * h0
    + (lambda * ln 2 + 2 + delta) * n
    + 2 * ell * (lambda * log2 sigma + lambda * ln 2 + 2 + delta)

bits, where delta = 2 * lambda * (log2 c + 3) / c. Comparisons allow the
encoder a 1e-6 * n guard band against float rounding of the bound itself.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .codebook import codeword_length
from .dictionary import symbol_model_bytes
from .params import CoderParams

GUARD_BAND_PER_SYMBOL = 1e-6

# A linear-space adaptive coder keeps, per alphabet symbol, a counter plus
# code-tree bookkeeping: modeled as four 8-byte words per entry.
NAIVE_ENTRY_BYTES = 32


def entropy(counts, n: int) -> float:
    """Zeroth-order empirical entropy in bits per symbol.

    counts maps symbols to occurrence counts summing to n; zero counts are
    ignored. Returns 0.0 for n <= 1.
    """
    if n <= 1:
        return 0.0
    values = counts.values() if hasattr(counts, "values") else counts
    h = 0.0
    for f in values:
        if f:
            h += f * math.log2(n / f)
    return h / n


@dataclass
class EntropyStats:
    """Symbol histogram of a corpus with its empirical entropy."""

    n: int
    counts: Counter
    h0: float

    @classmethod
    def from_symbols(cls, symbols) -> "EntropyStats":
        return cls.from_counts(Counter(symbols))

    @classmethod
    def from_counts(cls, counts: Counter) -> "EntropyStats":
        """The stats of a histogram, as a Counter updated chunk by chunk builds it."""
        n = sum(counts.values())
        return cls(n=n, counts=counts, h0=entropy(counts, n))

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def to_dict(self):
        return {"n": self.n, "distinct": self.distinct, "h0": self.h0}


@dataclass
class BoundReport:
    """The encoding-length bound split into its terms."""

    lam: float
    c: int
    delta: float
    main_term: float
    linear_term: float
    remainder: float
    bound: float
    measured_bits: int | None = None
    slack: float | None = None
    passed: bool | None = None


def delta_term(lam: float, c: int) -> float:
    """The per-symbol overhead shrink term 2 * lambda * (log2 c + 3) / c."""
    return 2.0 * lam * (math.log2(c) + 3.0) / c


def theorem1_bound(n: int, h0: float, params: CoderParams) -> BoundReport:
    """Bound on payload bits for an n-symbol string of empirical entropy h0.

    n = 0 degenerates to the window-edge remainder alone.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if h0 < 0:
        raise ValueError("entropy must be nonnegative")
    lam, c = params.lam, params.c
    d = delta_term(lam, c)
    log_sigma = math.log2(params.sigma)
    main = lam * n * h0
    linear = (lam * math.log(2) + 2.0 + d) * n
    remainder = 2.0 * params.ell * (lam * log_sigma + lam * math.log(2) + 2.0 + d)
    return BoundReport(lam=lam, c=c, delta=d, main_term=main, linear_term=linear,
                       remainder=remainder, bound=main + linear + remainder)


def check_bound(encode_report, stats: EntropyStats, params: CoderParams) -> BoundReport:
    """Compare measured payload bits against the bound.

    Meaningful for runs of at least ell symbols; the comparison gives the
    encoder a 1e-6 * n absolute guard band.
    """
    rep = theorem1_bound(stats.n, stats.h0, params)
    rep.measured_bits = encode_report.payload_bits
    rep.slack = rep.bound - rep.measured_bits
    rep.passed = rep.measured_bits < rep.bound + GUARD_BAND_PER_SYMBOL * stats.n
    return rep


@dataclass
class OracleState:
    """Window state recomputed from scratch, for cross-checking a live coder."""

    frequencies: dict
    frequent: set
    lengths: dict
    histogram: list  # count of frequent symbols per codeword length


def oracle_state(window_symbols, params: CoderParams) -> OracleState:
    """Brute-force recount of a window: frequencies, frequent set, lengths.

    Offsets within a length class are history-dependent and deliberately not
    part of the oracle.
    """
    freqs = dict(Counter(window_symbols))
    frequent = {a for a, f in freqs.items() if f >= params.threshold}
    lengths = {a: codeword_length(params.ell, freqs[a]) for a in frequent}
    histogram = [0] * (params.l_max + 1)
    for j in lengths.values():
        histogram[j] += 1
    return OracleState(frequencies=freqs, frequent=frequent, lengths=lengths,
                       histogram=histogram)


@dataclass
class MemoryAudit:
    """Modeled resident bytes per structure (packed-layout model)."""

    window_bytes: int
    dictionary_bytes: int
    codebook_bytes: int
    partial_sums_bytes: int
    total_bytes: int


def memory_audit(state) -> MemoryAudit:
    """Modeled bytes held by a coder state, split per structure.

    The window counts its full ring capacity at the symbol's byte width. The
    ring holds references to dictionary records, not symbols; a packed layout
    stores a record index of ceil(log2 min(ell, sigma)) <= width bits per
    slot instead, so the symbol width still bounds it. The codebook counts
    its current list contents plus per-length list heads; the Kraft structure
    is two machine-word arrays of l_max + 2 entries each.
    """
    p = state.params
    sb = symbol_model_bytes(p.sigma)
    window = p.ell * sb
    dictionary = state.dictionary.report_memory()
    cb = state.codebook
    codebook_bytes = cb.size * sb + (p.l_max + 1) * 8
    ps = 2 * (p.l_max + 2) * 8
    total = window + dictionary + codebook_bytes + ps
    return MemoryAudit(window_bytes=window, dictionary_bytes=dictionary,
                       codebook_bytes=codebook_bytes, partial_sums_bytes=ps,
                       total_bytes=total)


def naive_table_bytes(sigma: int) -> int:
    """Footprint of a naive table with one entry per alphabet symbol."""
    return sigma * NAIVE_ENTRY_BYTES
