"""Coder constants derived from (sigma, lambda, c).

Encoder and decoder must agree on every integer here bit for bit. The
real-valued quantities sigma**(1/lambda) and log2(sigma) are evaluated once
in double precision, the ceilings are frozen as integers, and the frozen
values travel in the stream header; the decoder never re-derives them.
"""

import math
import numbers
from collections import namedtuple

from .codebook import codeword_length
from .errors import ParameterError

# window lengths are carried as unsigned 32-bit header fields
MAX_ELL = 2**31 - 1
# so is sigma: larger alphabets cannot be written down in a stream
MAX_SIGMA = 2**32 - 1

# the test sources swsc.corpus generates; named here, apart from its numpy
# code, so the CLI can offer them without importing numpy
DISTRIBUTIONS = ("uniform", "zipf", "markov")


def check_sigma(sigma: int) -> None:
    """Reject an alphabet size that is not an integer in [2, MAX_SIGMA]."""
    if not isinstance(sigma, int) or sigma < 2:
        raise ParameterError("sigma must be an integer >= 2")
    if sigma > MAX_SIGMA:
        raise ParameterError(f"sigma {sigma} exceeds the stream limit {MAX_SIGMA}")


def _check_knobs(sigma, lam, c) -> None:
    """Reject a sigma, lambda or c of the wrong type or out of range."""
    check_sigma(sigma)
    if not isinstance(lam, numbers.Real) or not math.isfinite(lam) or lam < 1:
        raise ParameterError("lambda must be a finite real >= 1")
    if not isinstance(c, int) or c < 1:
        raise ParameterError("c must be an integer >= 1")


def _frozen_ceil(x: float) -> int:
    # Snap values a hair off an exact integer before taking the ceiling: the
    # products below are exact integers for many natural inputs (powers of
    # two) and must not round up on float noise.
    r = round(x)
    if math.isclose(x, r, rel_tol=1e-12, abs_tol=1e-12):
        return int(r)
    return math.ceil(x)


class CoderParams(namedtuple("CoderParams", "sigma lam c ell threshold l_max width")):
    """Frozen integer constants shared by encoder and decoder.

    ell         window length in symbols
    threshold   minimum window frequency for a symbol to be coded
    l_max       maximum codeword length in bits
    width       bits of a literal symbol index

    A named tuple that is checked however it is built: directly, by
    _replace or by _make.
    """

    __slots__ = ()

    def __new__(cls, sigma, lam, c, ell, threshold, l_max, width):
        _check_knobs(sigma, lam, c)
        if not all(isinstance(v, int) for v in (ell, threshold, l_max, width)):
            raise ParameterError("ell, threshold, l_max and width must be integers")
        if not 1 <= ell <= MAX_ELL:
            raise ParameterError(f"window length {ell} out of range")
        if not 1 <= threshold <= ell:
            raise ParameterError("threshold must lie in [1, ell]")
        if width != (sigma - 1).bit_length():
            raise ParameterError("width inconsistent with sigma")
        if not 1 <= l_max <= width:
            raise ParameterError("l_max must lie in [1, width]")
        # Shannon lengths of frequencies in [threshold, ell] must fit in
        # [0, l_max]; the length is nonincreasing in f and 0 at f = ell, so
        # the threshold decides
        if codeword_length(ell, threshold) > l_max:
            raise ParameterError("threshold admits codewords longer than l_max")
        return super().__new__(cls, sigma, lam, c, ell, threshold, l_max, width)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def derive_params(sigma: int, lam: float, c: int) -> CoderParams:
    """Freeze the coder constants for alphabet size sigma and knobs (lambda, c).

    ell = ceil(c * sigma**(1/lambda) * log2(sigma)), threshold = ceil(ell /
    sigma**(1/lambda)), l_max = ceil(log2(sigma) / lambda), width =
    ceil(log2(sigma)). If float rounding ever leaves threshold too low for the
    l_max cap, threshold is bumped until the cap holds again.
    """
    if isinstance(c, float) and c.is_integer():
        c = int(c)
    _check_knobs(sigma, lam, c)
    root = sigma ** (1.0 / lam)  # sigma^(1/lambda), evaluated once
    log_sigma = math.log2(sigma)  # evaluated once
    ell = _frozen_ceil(c * root * log_sigma)
    if ell > MAX_ELL:
        raise ParameterError(f"window length {ell} exceeds {MAX_ELL}; reduce c or sigma")
    threshold = _frozen_ceil(ell / root)
    l_max = _frozen_ceil(log_sigma / lam)
    width = (sigma - 1).bit_length()
    while codeword_length(ell, threshold) > l_max:
        threshold += 1
    return CoderParams(sigma=sigma, lam=float(lam), c=c, ell=ell,
                       threshold=threshold, l_max=l_max, width=width)
