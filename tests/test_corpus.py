"""Corpus generators: frozen PRNG outputs, determinism, shape properties."""

import tracemalloc

import numpy as np
import pytest

from swsc.corpus import (DISTRIBUTIONS, gen_markov, gen_uniform, gen_zipf,
                         generate, splitmix64)
from swsc.errors import ParameterError

M64 = (1 << 64) - 1


def scalar_splitmix(seed, count):
    """Sequential reference implementation, one output at a time."""
    out = []
    state = seed & M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def test_splitmix_frozen_seed_zero():
    assert splitmix64(0, 4).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
        0x06C45D188009454F, 0xF88BB8A8724C81EC,
    ]


def test_splitmix_frozen_seed_42():
    assert splitmix64(42, 3).tolist() == [
        0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52,
    ]


@pytest.mark.parametrize("seed", [0, 7, 42, 2**63, M64])
def test_splitmix_matches_scalar_reference(seed):
    assert splitmix64(seed, 50).tolist() == scalar_splitmix(seed, 50)


def test_splitmix_offset_continues_the_stream():
    for seed in (0, 123):
        whole = splitmix64(seed, 10)
        assert whole[5:].tolist() == splitmix64(seed, 5, offset=5).tolist()


def test_splitmix_zero_count():
    assert splitmix64(9, 0).size == 0


@pytest.mark.parametrize("dist,kw", [
    ("uniform", {}),
    ("zipf", {"s": 1.2}),
    ("markov", {"states": 4, "stickiness": 0.8}),
])
def test_generate_is_deterministic(dist, kw):
    a = generate(dist, sigma=500, n=2000, seed=31, **kw)
    b = generate(dist, sigma=500, n=2000, seed=31, **kw)
    c = generate(dist, sigma=500, n=2000, seed=32, **kw)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("sigma,dtype", [
    (2, np.uint8), (256, np.uint8), (257, np.uint16),
    (65536, np.uint16), (65537, np.uint32),
])
def test_output_dtype_is_smallest_fit(sigma, dtype):
    for dist in DISTRIBUTIONS:
        arr = generate(dist, sigma=sigma, n=50, seed=1,
                       states=min(8, sigma))
        assert arr.dtype == dtype


@pytest.mark.parametrize("dist,kw", [
    ("uniform", {}),
    ("zipf", {"s": 2.0}),
    ("zipf", {"s": 0.0}),
    ("markov", {"states": 8, "stickiness": 0.9}),
    ("markov", {"states": 1, "stickiness": 0.5}),
])
def test_symbols_stay_in_range(dist, kw):
    for sigma in (2, 3, 1000):
        kw2 = dict(kw)
        if dist == "markov":
            kw2["states"] = min(kw2["states"], sigma)
        arr = generate(dist, sigma=sigma, n=5000, seed=3, **kw2)
        assert arr.size == 5000
        assert int(arr.min()) >= 0
        assert int(arr.max()) < sigma


def test_uniform_is_roughly_balanced():
    arr = gen_uniform(4, 40000, seed=9)
    counts = np.bincount(arr, minlength=4)
    assert counts.min() > 9000
    assert counts.max() < 11000


def test_zipf_prefers_low_ranks():
    arr = gen_zipf(64, 30000, s=1.5, seed=5)
    counts = np.bincount(arr, minlength=64)
    assert counts[0] > 2 * counts[5] > 4 * counts[40]
    assert counts[0] > 8000


def test_zipf_exponent_zero_is_uniform():
    counts = np.bincount(gen_zipf(8, 40000, s=0.0, seed=6), minlength=8)
    assert counts.min() > 4300
    assert counts.max() < 5700


def test_markov_emissions_stay_inside_the_active_block():
    sigma, states = 64, 8
    arr = gen_markov(sigma, 20000, states=states, stickiness=0.9, seed=12)
    blocks = arr // (sigma // states)
    same = np.mean(blocks[1:] == blocks[:-1])
    # stickiness 0.9 plus 1/8 chance a redraw lands on the same state
    assert same > 0.85
    assert same < 0.98


def test_markov_stickiness_zero_mixes_states():
    sigma, states = 16, 4
    arr = gen_markov(sigma, 20000, states=states, stickiness=0.0, seed=2)
    blocks = np.bincount(arr // (sigma // states), minlength=states)
    assert blocks.min() > 4300
    assert blocks.max() < 5700


def test_markov_last_block_takes_the_remainder():
    # sigma 10 over 3 states: blocks 0-2, 3-5, 6-9
    arr = gen_markov(10, 30000, states=3, stickiness=0.0, seed=4)
    assert set(np.unique(arr)) == set(range(10))


def test_markov_single_state_covers_the_alphabet():
    arr = gen_markov(7, 20000, states=1, stickiness=0.9, seed=5)
    assert set(np.unique(arr)) == set(range(7))


def test_zero_length_outputs():
    for dist in DISTRIBUTIONS:
        assert generate(dist, sigma=16, n=0, seed=0).size == 0


@pytest.mark.parametrize("call", [
    lambda: gen_uniform(1, 10, seed=0),
    lambda: gen_uniform(16, -1, seed=0),
    lambda: gen_zipf(16, 10, s=-0.5, seed=0),
    lambda: gen_markov(16, 10, states=0, stickiness=0.5, seed=0),
    lambda: gen_markov(16, 10, states=17, stickiness=0.5, seed=0),
    lambda: gen_markov(16, 10, states=4, stickiness=-0.1, seed=0),
    lambda: gen_markov(16, 10, states=4, stickiness=1.1, seed=0),
    lambda: generate("laplace", sigma=16, n=10, seed=0),
    # symbols are written at most 4 bytes wide: no silent wrap past 2**32 - 1
    lambda: gen_uniform(2**32, 10, seed=0),
    lambda: gen_zipf(2**40, 10, s=1.0, seed=0),
    lambda: gen_markov(2**40, 10, states=4, stickiness=0.5, seed=0),
])
def test_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def test_zipf_past_its_sigma_cap_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="zipf needs sigma"):
            generate("zipf", 2**24 + 1, 10, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_generate_forwards_distribution_arguments():
    assert np.array_equal(generate("zipf", 64, 100, 3, s=1.7),
                          gen_zipf(64, 100, s=1.7, seed=3))
    assert np.array_equal(
        generate("markov", 64, 100, 3, states=4, stickiness=0.7),
        gen_markov(64, 100, states=4, stickiness=0.7, seed=3))
