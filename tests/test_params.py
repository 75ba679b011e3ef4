"""Derived coder constants: frozen values, invariants, rejection paths."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swsc.codebook import codeword_length
from swsc.errors import ParameterError
from swsc.params import MAX_ELL, MAX_SIGMA, CoderParams, derive_params

# (sigma, lam, c) -> (ell, threshold, l_max, width),
# computed independently with exact arithmetic
FROZEN = [
    (2, 1.0, 1, (2, 1, 1, 1)),
    (64, 1.0, 10, (3840, 60, 6, 6)),
    (64, 1.5, 2, (192, 12, 4, 6)),
    (64, 2.0, 2, (96, 12, 3, 6)),
    (64, 3.0, 2, (48, 12, 2, 6)),
    (256, 1.0, 1, (2048, 8, 8, 8)),
    (256, 1.5, 10, (3226, 81, 6, 8)),
    (256, 2.0, 10, (1280, 80, 4, 8)),
    (256, 3.0, 2, (102, 17, 3, 8)),
    (4096, 1.5, 2, (6144, 24, 8, 12)),
    (4096, 1.5, 10, (30720, 120, 8, 12)),
    (4096, 2.0, 10, (7680, 120, 6, 12)),
    (4096, 3.0, 10, (1920, 120, 4, 12)),
    (65536, 1.0, 10, (10485760, 160, 16, 16)),
    (65536, 1.5, 10, (260080, 161, 11, 16)),
    (65536, 2.0, 10, (40960, 160, 8, 16)),
    (65536, 3.0, 2, (1291, 33, 6, 16)),
]


@pytest.mark.parametrize("sigma,lam,c,expected", FROZEN)
def test_derive_frozen_values(sigma, lam, c, expected):
    p = derive_params(sigma, lam, c)
    assert (p.ell, p.threshold, p.l_max, p.width) == expected
    assert (p.sigma, p.lam, p.c) == (sigma, lam, c)


def test_derive_is_deterministic():
    assert derive_params(4096, 1.5, 7) == derive_params(4096, 1.5, 7)


@pytest.mark.parametrize("sigma,lam,c", [
    (1, 1.0, 1),
    (0, 2.0, 1),
    (-5, 2.0, 1),
    (256, 0.5, 1),
    (256, 0.999, 1),
    (256, float("nan"), 1),
    (256, float("inf"), 1),
    (256, 2.0, 0),
    (256, 2.0, -1),
])
def test_derive_rejects_bad_inputs(sigma, lam, c):
    with pytest.raises(ParameterError):
        derive_params(sigma, lam, c)


def test_derive_rejects_fractional_c():
    with pytest.raises(ParameterError):
        derive_params(256, 2.0, 2.5)


def test_derive_accepts_integral_float_c():
    assert derive_params(256, 2.0, 10.0) == derive_params(256, 2.0, 10)


def test_window_length_overflow_boundary():
    # ell = c * 65536 * 16 at lambda 1; c = 2048 is the first to pass 2**31 - 1
    p = derive_params(65536, 1.0, 2047)
    assert p.ell == 2047 * 65536 * 16 <= MAX_ELL
    with pytest.raises(ParameterError):
        derive_params(65536, 1.0, 2048)


def test_sigma_limit_is_the_u32_header_field():
    assert MAX_SIGMA == 2**32 - 1
    p = derive_params(MAX_SIGMA, 2.0, 10)
    assert (p.sigma, p.width) == (MAX_SIGMA, 32)
    for sigma in (MAX_SIGMA + 1, 2**40):
        with pytest.raises(ParameterError, match="exceeds the stream limit"):
            derive_params(sigma, 2.0, 10)
        with pytest.raises(ParameterError, match="exceeds the stream limit"):
            dataclasses.replace(p, sigma=sigma,
                                width=(sigma - 1).bit_length()).validate()


def test_from_frozen_roundtrip():
    p = derive_params(4096, 2.0, 10)
    q = CoderParams.from_frozen(p.sigma, p.lam, p.c, p.ell, p.threshold,
                                p.l_max, p.width)
    assert q == p


@pytest.mark.parametrize("patch", [
    {"sigma": 1},
    {"lam": 0.0},
    {"lam": float("nan")},
    {"c": 0},
    {"c": 2.0},  # header field is an integer
    {"ell": 0},
    {"ell": MAX_ELL + 1},
    {"threshold": 0},
    {"threshold": 10**9},
    {"width": 5},
    {"l_max": 0},
    {"l_max": 13},
    {"threshold": 1},  # codeword_length(7680, 1) = 13 > l_max = 6
])
def test_from_frozen_rejects_inconsistent_fields(patch):
    p = derive_params(4096, 2.0, 10)
    bad = dataclasses.asdict(p)
    bad.update(patch)
    with pytest.raises(ParameterError):
        CoderParams.from_frozen(**bad)


@settings(max_examples=300, deadline=None)
@given(sigma=st.integers(2, 65536), lam=st.floats(1.0, 8.0),
       c=st.integers(1, 50))
def test_derived_invariants(sigma, lam, c):
    p = derive_params(sigma, lam, c)
    root = sigma ** (1.0 / lam)
    assert 1 <= p.threshold <= p.ell
    assert p.ell >= c
    assert p.width == (sigma - 1).bit_length()
    assert 1 <= p.l_max <= p.width
    # threshold covers the window once scaled back by sigma**(1/lambda)
    assert p.threshold * root >= p.ell * (1 - 1e-9)
    # every in-range frequency must produce a representable length
    assert codeword_length(p.ell, p.threshold) <= p.l_max
    assert codeword_length(p.ell, p.ell) == 0
    mid = (p.threshold + p.ell) // 2
    assert 0 <= codeword_length(p.ell, mid) <= p.l_max


def test_validate_passes_for_all_frozen_rows():
    for sigma, lam, c, _ in FROZEN:
        derive_params(sigma, lam, c).validate()


def test_threshold_bump_preserves_length_cap():
    # scan a spread of shapes; the construction must never leave a frequency
    # in [threshold, ell] whose Shannon length exceeds l_max
    for sigma in (2, 7, 64, 1000, 4096, 65536):
        for lam in (1.0, 1.3, 2.0, 4.0):
            for c in (1, 3, 10):
                p = derive_params(sigma, lam, c)
                assert codeword_length(p.ell, p.threshold) <= p.l_max


def test_lambda_one_window_is_largest():
    small = derive_params(4096, 3.0, 10).ell
    large = derive_params(4096, 1.0, 10).ell
    assert large > small
