"""Alphabets past 2^16, where the paper's large-alphabet regime lies.

A two-level trie allocates 2^floor(w/2) + 1 slots for each distinct high half
of a window symbol, so above 16-bit symbols its memory would grow with sigma:
there the trie is refused and the dictionary is the hashed table, whatever a
stream's header byte says. These tests hold the default decode and the CLI
to the memory caps the README states, on a stream crafted to touch every high
half, and run each guarantee over a sweep of sigma from 2^20 to 2^32 - 1.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import swsc
from swsc.analysis import EntropyStats, check_bound, memory_audit
from swsc.bitio import BitWriter
from swsc.coder import (_CHUNK, HEADER_BYTES, CoderState, decode_stream, encode_to_bytes,
                        write_symbols)
from swsc.corpus import generate
from swsc.errors import ParameterError
from swsc.dictionary import RECORD_MODEL_BYTES, symbol_model_bytes
from swsc.params import MAX_SIGMA, derive_params
from test_acceptance import touch_budget

MB = 1 << 20
# the caps the README states for the stream of every_high_half(2**16)
DECODE_PEAK_CAP = 32 * MB  # tracemalloc peak of decode_stream
CLI_RSS_CAP = 56 * MB  # ru_maxrss of one swsc encode or decode process


def every_high_half(count):
    """count + 1 distinct symbols below MAX_SIGMA, one per high 16-bit half
    0..count-1 and one more."""
    return [(h << 16) | (h & 0xFFF) for h in range(count)] + [1]


@pytest.fixture(scope="module")
def crafted():
    # sigma 2^32 - 1, lambda 4, c 10: ell 81,920 and threshold 321, so all
    # 65,537 symbols are literals, and a trie would hold 65,536 child tables
    p = derive_params(MAX_SIGMA, 4.0, 10)
    symbols = every_high_half(1 << 16)
    blob, _ = encode_to_bytes(p, symbols)
    assert blob[5] == 1  # sigma selects the hashed table
    return p, symbols, blob[:5] + b"\x00" + blob[6:]  # as if an older stream named the trie


def test_default_decode_of_a_trie_stream_stays_under_its_cap(crafted):
    p, symbols, blob = crafted
    tracemalloc.start()
    try:
        out, report = decode_stream(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == symbols
    assert report.literal_count == len(symbols)
    assert peak < DECODE_PEAK_CAP, f"decode peaked at {peak / MB:.1f} MB"


def test_an_explicit_trie_decode_is_refused_before_it_allocates():
    # 200 literals of 33 bits, one per high half: a trie would allocate a
    # 65,537-slot child table for each, about 100 MB in all
    p = derive_params(MAX_SIGMA, 4.0, 10)
    blob, _ = encode_to_bytes(p, [h << 16 for h in range(200)])
    assert len(blob) == 865
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="the trie takes sigma up to 65536"):
            decode_stream(blob, backend="trie")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MB, f"the refusal peaked at {peak / MB:.1f} MB"


# A child's ru_maxrss keeps the pages of its parent from before exec, so the
# CLI is started from a fresh small interpreter, not from the test process.
_SPAWN = ("import os, subprocess, sys\n"
          "child = subprocess.Popen(sys.argv[1:])\n"
          "_, status, usage = os.wait4(child.pid, 0)\n"
          "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def run_cli(*args):
    """Exit code, peak RSS in bytes and stderr of one swsc process."""
    src = os.path.dirname(os.path.dirname(swsc.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", _SPAWN, sys.executable, "-m", "swsc",
                           *args], capture_output=True, text=True, check=True, env=env)
    code, maxrss_kb = done.stdout.split()
    return int(code), int(maxrss_kb) * 1024, done.stderr


def test_cli_codes_every_high_half_under_its_rss_cap(crafted, tmp_path):
    p, symbols, blob = crafted
    raw, stream, trie_stream = (tmp_path / f for f in ("in.u32", "s.swsc", "t.swsc"))
    raw.write_bytes(write_symbols(symbols, p.sigma))
    trie_stream.write_bytes(blob)
    code, rss, _ = run_cli("encode", "--sigma", str(p.sigma), "--lambda", "4",
                           str(raw), str(stream))
    assert code == 0 and rss < CLI_RSS_CAP, f"encode: exit {code}, {rss / MB:.1f} MB"
    assert stream.read_bytes()[5] == 1  # the default above 2^16: hashed
    for source in (stream, trie_stream):
        out = tmp_path / "out.u32"
        code, rss, err = run_cli("decode", "--json", str(source), str(out))
        assert code == 0 and rss < CLI_RSS_CAP, f"decode: exit {code}, {rss / MB:.1f} MB"
        assert out.read_bytes() == raw.read_bytes()
        assert json.loads(err)["backend"] == "hashed"  # the dictionary that ran


# -- the sweep over sigma 2^20 .. 2^32 - 1 ---------------------------------

SWEEP_SIGMAS = (2**20, 2**24, MAX_SIGMA)
SWEEP_LAMBDAS = (2.0, 3.0, 4.0)
SWEEP_C = 10
MAX_SWEEP_ELL = 2**18
ZIPF_RANKS = 2**20  # the zipf generator builds a table of this many floats
SCATTER = 2654435761  # a prime coprime to every sweep sigma: ranks map 1:1


def sweep_cells():
    cells = []
    for sigma in SWEEP_SIGMAS:
        for lam in SWEEP_LAMBDAS:
            p = derive_params(sigma, lam, SWEEP_C)
            if p.ell <= MAX_SWEEP_ELL:
                cells.append(p)
    return cells


def sweep_input(p, dist, seed):
    """n = 2 * ell + 10^4 uniform symbols, or zipf(1) ranks scattered over sigma."""
    n = 2 * p.ell + 10**4
    if dist == "uniform":
        return generate("uniform", sigma=p.sigma, n=n, seed=seed).tolist()
    ranks = generate("zipf", sigma=min(p.sigma, ZIPF_RANKS), n=n, seed=seed, s=1.0)
    return (ranks.astype(np.uint64) * np.uint64(SCATTER) % np.uint64(p.sigma)).tolist()


def hashed_bound_bytes(sigma, keys):
    """The README's bound on the hashed table: max(8, 8 * keys) slots."""
    return max(8, 8 * keys) * (symbol_model_bytes(sigma) + RECORD_MODEL_BYTES)


@pytest.fixture(scope="module")
def sweep():
    runs = []
    seed = 100
    for p in sweep_cells():
        for dist in ("uniform", "zipf"):
            seed += 1
            symbols = sweep_input(p, dist, seed)
            blob, block_report = encode_to_bytes(p, symbols)  # numpy is loaded
            # the loop encoder, with the default dictionary, checked per chunk
            state, writer, worst = CoderState(p), BitWriter(), 0.0
            for lo in range(0, len(symbols), _CHUNK):
                loop_report = state.encode_chunk(symbols[lo:lo + _CHUNK], writer)
                d = state.dictionary
                worst = max(worst, d.report_memory() / hashed_bound_bytes(p.sigma, len(d)))
            t0 = time.perf_counter()
            out, dec_report = decode_stream(blob)
            decode_s = time.perf_counter() - t0
            stats = EntropyStats.from_symbols(symbols)
            runs.append({
                "p": p, "dist": dist, "n": len(symbols),
                "same_bytes": writer.finish() == blob[HEADER_BYTES:]
                and loop_report == block_report,
                "decoded": out == symbols,
                "bound": check_bound(block_report, stats, p),
                "touches": max(block_report.ps_touches_max_step,
                               dec_report.ps_touches_max_step),
                "dictionary": type(state.dictionary).__name__,
                "dict_ratio": worst,
                "decode_s": decode_s,
                "memory": memory_audit(state).total_bytes,  # after the last chunk
                "bits": block_report.payload_bits / len(symbols),
                "lam_h0": p.lam * stats.h0,
            })
    return runs


def test_sweep_cells_are_the_six_with_a_window_up_to_2_18():
    assert [(p.sigma, p.lam, p.ell) for p in sweep_cells()] == [
        (2**20, 2.0, 204800), (2**20, 3.0, 20319), (2**20, 4.0, 6400),
        (2**24, 3.0, 61440), (2**24, 4.0, 15360), (MAX_SIGMA, 4.0, 81920)]


def test_sweep_encoders_agree_and_the_default_decode_roundtrips(sweep):
    for r in sweep:
        cell = (r["p"].sigma, r["p"].lam, r["dist"])
        assert r["same_bytes"], cell
        assert r["decoded"], cell
        assert r["dictionary"] == "HashedDictionary", cell


def test_sweep_meets_the_length_bound_and_the_touch_budget(sweep):
    for r in sweep:
        cell = (r["p"].sigma, r["p"].lam, r["dist"])
        assert r["bound"].passed, (cell, r["bound"].slack)
        assert r["touches"] <= touch_budget(r["p"].l_max), cell


def test_sweep_dictionary_stays_within_the_stated_bound(sweep):
    for r in sweep:
        assert r["dict_ratio"] <= 1.0, (r["p"].sigma, r["p"].lam, r["dist"])


def test_sweep_prints_decode_time_per_symbol(sweep, capsys):
    # printed, not gated: the paper's O(log log sigma) per step predicts a
    # flat line at fixed lambda, but timings on a shared host drift. Beside
    # it, the paper's three quantities: the loop encoder's modeled memory,
    # whose slope against sigma at lambda 4 should sit a little above 1/4;
    # bits/symbol against lambda * H0; and the worst step's touches against
    # 4 * bitlen(l_max + 1), the log log sigma part of the touch budget
    with capsys.disabled():
        for r in sweep:
            p = r["p"]
            us = 1e6 * r["decode_s"] / r["n"]
            print(f"\n  sweep sigma {p.sigma} lambda {p.lam:g} {r['dist']}: "
                  f"n {r['n']}, decode {us:.2f} us/sym, memory {r['memory']} B, "
                  f"{r['bits']:.3f} bits/sym against lambda*H0 {r['lam_h0']:.3f}, "
                  f"worst step {r['touches']} of {4 * (p.l_max + 1).bit_length()} touches",
                  end="")
        for dist in ("uniform", "zipf"):
            cells = [r for r in sweep if r["dist"] == dist and r["p"].lam == 4.0]
            slope = np.polyfit(np.log([r["p"].sigma for r in cells]),
                               np.log([r["memory"] for r in cells]), 1)[0]
            print(f"\n  sweep lambda 4 {dist}: memory slope {slope:.3f} against "
                  f"1/lambda 0.250, over sigma {[r['p'].sigma for r in cells]}", end="")
        print()
