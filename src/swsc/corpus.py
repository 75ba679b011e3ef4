"""Reproducible test corpora: uniform, Zipf and sticky-Markov sources.

All randomness comes from splitmix64 run in counter mode: output i is
mix(seed + (i+1) * 0x9E3779B97F4A7C15) with the standard finalizer, so a
(seed, n) pair yields byte-identical corpora on any platform, and the whole
stream vectorizes. Generation is single-pass.
"""

import numpy as np

from .dictionary import symbol_model_bytes
from .errors import ParameterError
from .params import DISTRIBUTIONS, check_sigma  # noqa: F401 (re-exported)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
ZIPF_MAX_SIGMA = 1 << 24  # gen_zipf's cdf table: 128 MB at this sigma


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """count splitmix64 outputs for the given seed, starting at stream offset."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * idx
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _check_common(sigma, n):
    check_sigma(sigma)  # symbols are written at most 4 bytes wide
    if n < 0:
        raise ParameterError("n must be nonnegative")


def gen_uniform(sigma: int, n: int, seed: int) -> np.ndarray:
    """n i.i.d. symbols uniform over [0, sigma)."""
    _check_common(sigma, n)
    z = splitmix64(seed, n)
    return (z % np.uint64(sigma)).astype(f"u{symbol_model_bytes(sigma)}")


def gen_zipf(sigma: int, n: int, s: float, seed: int) -> np.ndarray:
    """n i.i.d. Zipf(s) symbols; symbol 0 is the most frequent rank.

    The cdf is a table of sigma floats, 8 bytes per alphabet symbol whatever
    n is, so sigma is capped at ZIPF_MAX_SIGMA.
    """
    _check_common(sigma, n)
    if sigma > ZIPF_MAX_SIGMA:
        raise ParameterError(f"zipf needs sigma <= 2**24 = {ZIPF_MAX_SIGMA}, "
                             f"got {sigma}")
    if s < 0:
        raise ParameterError("zipf exponent must be nonnegative")
    cdf = np.arange(1, sigma + 1, dtype=np.float64)  # the ranks, then in place
    cdf **= -s
    np.cumsum(cdf, out=cdf)
    z = splitmix64(seed, n)
    # top 53 bits give an exact float64 in [0, 1)
    u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    # u * cdf[-1] can round up onto cdf[-1] itself for u just under 1
    return np.minimum(idx, sigma - 1).astype(f"u{symbol_model_bytes(sigma)}")


def gen_markov(sigma: int, n: int, states: int, stickiness: float,
               seed: int) -> np.ndarray:
    """n symbols from a sticky Markov chain over contiguous alphabet blocks.

    Each of the k states owns a block of ~sigma/k consecutive symbols and
    emits uniformly inside it. The chain keeps its state with probability
    `stickiness`, else redraws uniformly over all states (the current one
    included). Three independent splitmix64 streams drive switches, state
    draws and emissions.
    """
    _check_common(sigma, n)
    if not 1 <= states <= sigma:
        raise ParameterError("states must lie in [1, sigma]")
    if not 0.0 <= stickiness <= 1.0:
        raise ParameterError("stickiness must lie in [0, 1]")
    if n == 0:
        return np.zeros(0, dtype=f"u{symbol_model_bytes(sigma)}")
    stay = min(int(stickiness * 2.0 ** 64), 2 ** 64 - 1)
    z_switch = splitmix64(seed, n)
    z_state = splitmix64(seed, n, offset=n)
    z_emit = splitmix64(seed, n, offset=2 * n)
    switch = z_switch >= np.uint64(stay)
    switch[0] = True  # the initial state is always drawn
    pos = np.arange(n, dtype=np.int64)
    last_switch = np.maximum.accumulate(np.where(switch, pos, 0))
    state = (z_state % np.uint64(states)).astype(np.int64)[last_switch]
    block = sigma // states
    base = state * block
    widths = np.where(state == states - 1, sigma - (states - 1) * block, block)
    sym = base + (z_emit % widths.astype(np.uint64)).astype(np.int64)
    return sym.astype(f"u{symbol_model_bytes(sigma)}")


def generate(dist: str, sigma: int, n: int, seed: int, *, s: float = 1.0,
             states: int = 8, stickiness: float = 0.9) -> np.ndarray:
    """Dispatch on distribution name; see the individual generators."""
    if dist == "uniform":
        return gen_uniform(sigma, n, seed)
    if dist == "zipf":
        return gen_zipf(sigma, n, s, seed)
    if dist == "markov":
        return gen_markov(sigma, n, states, stickiness, seed)
    raise ParameterError(f"unknown distribution {dist!r}")
