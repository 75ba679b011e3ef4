"""Acceptance suite: one numbered pass/fail line per shipped guarantee.

The first block of checks shares one instrumented sweep over the full
parameter grid (alphabet size x lambda x window scale x source x length);
later checks use dedicated smaller runs. Lines print even under capture so
a full run always shows the ten verdicts.
"""

import math
import random
import time

import numpy as np
import pytest

from swsc.analysis import (EntropyStats, check_bound, delta_term, entropy,
                           memory_audit, naive_table_bytes, oracle_state)
from swsc.bitio import BitWriter
from swsc.coder import CoderState, decode_stream, encode_to_bytes
from swsc.corpus import generate
from swsc.params import derive_params
from swsc.partial_sums import PartialSums

SIGMAS = (64, 256, 4096, 65536)
LAMBDAS = (1.0, 1.5, 2.0, 3.0)
SCALES = (2, 10)
SOURCES = (("uniform", {}), ("zipf", {"s": 1.0}),
           ("markov", {"states": 8, "stickiness": 0.9}))
LENGTHS = (10**3, 10**5, 10**6)


def emit(capsys, number, text, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{number:2d}] {text}: {verdict} ({detail})")


def touch_budget(l_max):
    # four point updates plus one lookup per step, each log-bounded
    return 4 * (l_max + 1).bit_length() + l_max


@pytest.fixture(scope="module")
def grid():
    runs = []
    enc_s = dec_s = 0.0
    seed = 0
    for sigma in SIGMAS:
        for lam in LAMBDAS:
            for c in SCALES:
                params = derive_params(sigma, lam, c)
                for dist, kw in SOURCES:
                    for n in LENGTHS:
                        seed += 1
                        arr = generate(dist, sigma=sigma, n=n, seed=seed, **kw)
                        syms = arr.tolist()
                        t0 = time.perf_counter()
                        blob, enc = encode_to_bytes(params, syms)
                        t1 = time.perf_counter()
                        out, dec = decode_stream(blob)
                        enc_s += t1 - t0
                        dec_s += time.perf_counter() - t1
                        _, counts = np.unique(arr, return_counts=True)
                        runs.append({
                            "params": params, "dist": dist, "n": n,
                            "ok": out == syms, "enc": enc, "dec": dec,
                            "h0": entropy(counts.tolist(), n),
                        })
    return {"runs": runs, "enc_s": enc_s, "dec_s": dec_s}


def test_01_roundtrip_grid_is_exact(grid, capsys):
    runs = grid["runs"]
    good = sum(r["ok"] for r in runs)
    emit(capsys, 1, "roundtrip exactness over the full grid", good == len(runs),
         f"{good}/{len(runs)} runs, encode {grid['enc_s']:.0f}s + "
         f"decode {grid['dec_s']:.0f}s wall")
    assert good == len(runs)


def test_02_payload_stays_under_entropy_bound(grid, capsys):
    checked = 0
    worst = math.inf
    failures = []
    for r in grid["runs"]:
        p = r["params"]
        if r["n"] < p.ell:
            continue  # the bound's window-edge term assumes a filled window
        stats = EntropyStats(n=r["n"], counts=None, h0=r["h0"])
        rep = check_bound(r["enc"], stats, p)
        checked += 1
        worst = min(worst, rep.slack / r["n"])
        if not rep.passed:
            failures.append((p.sigma, p.lam, p.c, r["dist"], r["n"]))
    emit(capsys, 2, "payload below the entropy-based length bound",
         not failures,
         f"{checked} eligible runs, worst slack {worst:.3f} bits/symbol")
    assert not failures, failures


def test_03_overhead_constant_caps(capsys):
    ok = True
    for lam in (1.0, 2.0, 3.0):
        ok &= delta_term(lam, 10) < (2.0 - math.log(2.0)) * lam
        ok &= delta_term(lam, 100) < 0.9 * lam
    emit(capsys, 3, "per-symbol overhead constants under their caps", ok,
         "delta(10) < (2 - ln 2) lambda and delta(100) < 0.9 lambda "
         "for lambda in {1, 2, 3}")
    assert ok


@pytest.fixture(scope="module")
def instrumented_walk():
    params = derive_params(64, 2.0, 2)  # ell 96, threshold 12
    syms = generate("zipf", sigma=64, n=5000, seed=101, s=1.0).tolist()
    state = CoderState(params)
    writer = BitWriter()
    mismatches = 0
    kraft_overruns = 0
    for a in syms:
        state.encode_chunk([a], writer)
        oracle = oracle_state(state.window_contents(), params)
        live = dict(state.dictionary.items())
        lengths = {s: r.length for s, r in live.items()
                   if r.length is not None}
        freqs = {s: r.freq for s, r in live.items()}
        if (lengths != oracle.lengths or set(lengths) != oracle.frequent
                or freqs != oracle.frequencies):
            mismatches += 1
        if state.codebook.kraft_total > state.codebook.capacity:
            kraft_overruns += 1
    return {"n": len(syms), "mismatches": mismatches,
            "kraft_overruns": kraft_overruns}


def test_04_codeword_lengths_track_window_counts(instrumented_walk, capsys):
    w = instrumented_walk
    emit(capsys, 4, "stored lengths match a from-scratch window recount",
         w["mismatches"] == 0,
         f"{w['n']} steps, {w['mismatches']} mismatches")
    assert w["mismatches"] == 0


def test_05_kraft_total_never_exceeds_capacity(instrumented_walk, capsys):
    w = instrumented_walk
    emit(capsys, 5, "scaled Kraft sum within capacity after every step",
         w["kraft_overruns"] == 0,
         f"{w['n']} steps, {w['kraft_overruns']} overruns")
    assert w["kraft_overruns"] == 0


def test_06_codeword_sets_stay_prefix_free(capsys):
    pool = [derive_params(64, lam, 1) for lam in (6.0, 3.0, 2.0, 1.5, 1.0)]
    sequences = 10_000
    bad = 0
    for i in range(sequences):
        rng = random.Random(900_000 + i)
        params = pool[i % len(pool)]
        state = CoderState(params)
        steps = rng.randrange(30, 120)
        if params.ell >= 96 and i % 7 == 0:
            steps = params.ell + rng.randrange(30, 80)  # force evictions
        for _ in range(steps):
            a = rng.randrange(4) if rng.random() < 0.8 else rng.randrange(64)
            state.step_update(a)
        cb = state.codebook
        d = state.dictionary
        cb.check(d)
        clean = True
        spans = []
        for a, rec in d.items():
            if rec.length is None:
                continue
            value, j = cb.codeword(rec.length, rec.index + 1)
            lo = value << (cb.l_max - j)
            hi = lo + (1 << (cb.l_max - j))
            spans.append((lo, hi))
            for b in range(lo, hi):  # every pad completion, exhaustively
                got, got_j = cb.decode(b)
                if not (got is rec and got.sym == a and got_j == j):
                    clean = False
        spans.sort()
        for (_, hi1), (lo2, _) in zip(spans, spans[1:]):
            if hi1 > lo2:  # overlapping intervals = not prefix-free
                clean = False
        if not clean:
            bad += 1
    emit(capsys, 6, "codeword sets prefix-free with pad-exact decoding",
         bad == 0, f"{sequences} random update sequences, {bad} bad")
    assert bad == 0


def test_07_per_symbol_touch_budget(grid, capsys):
    over = []
    worst = 0.0
    for r in grid["runs"]:
        budget = touch_budget(r["params"].l_max)
        step_max = max(r["enc"].ps_touches_max_step,
                       r["dec"].ps_touches_max_step)
        worst = max(worst, step_max / budget)
        if step_max > budget:
            over.append((r["params"].sigma, r["params"].lam, r["dist"]))
    emit(capsys, 7, "worst-step structure touches within the fixed budget",
         not over, f"max observed at {worst:.2f} of budget; it covers codebook + partial "
                   f"sums; dictionary: trie O(1) worst case up to 2^16, hashed amortized above")
    assert not over, over


def test_08_memory_stays_sublinear_in_alphabet(capsys):
    audits = {}
    for sigma in (4096, 65536):
        params = derive_params(sigma, 2.0, 10)
        n = params.ell + 20_000  # well past one full window
        syms = generate("zipf", sigma=sigma, n=n, seed=55, s=2.0).tolist()
        state = CoderState(params, backend="hashed")
        writer = BitWriter()
        for a in syms:
            state.encode_chunk([a], writer)
        audits[sigma] = memory_audit(state)
    big = audits[65536].total_bytes
    small = audits[4096].total_bytes
    ratio = big / small
    cap = naive_table_bytes(65536) // 16
    ok = ratio <= 10.0 and big <= cap
    emit(capsys, 8, "steady-state memory sublinear in the alphabet", ok,
         f"grow x{ratio:.2f} for a 16x alphabet; {big} B vs 1/16 naive {cap} B")
    assert ok, (ratio, big, cap)


def test_09_partial_sums_agree_with_flat_reference(capsys):
    rng = random.Random(31337)
    ops = 0
    failures = 0
    while ops < 100_000:
        k = rng.randrange(1, 65)
        ps = PartialSums(k)
        vals = [0] * (k + 1)
        for _ in range(rng.randrange(50, 200)):
            kind = rng.randrange(3)
            if kind == 0:
                i = rng.randrange(1, k + 1)
                delta = rng.randrange(-vals[i], 40)
                ps.add(i, delta)
                vals[i] += delta
            elif kind == 1:
                i = rng.randrange(0, k + 1)
                if ps.prefix(i) != sum(vals[1:i + 1]):
                    failures += 1
            else:
                b = rng.randrange(0, sum(vals) + 20)
                want, acc_want = 0, 0
                run = 0
                for i in range(1, k + 1):
                    run += vals[i]
                    if run <= b:
                        want, acc_want = i, run
                if ps.search_with_prefix(b) != (want, acc_want):
                    failures += 1
            ops += 1
    emit(capsys, 9, "partial sums agree with a flat-array reference",
         failures == 0, f"{ops} operations, {failures} disagreements")
    assert failures == 0


def test_10_total_touches_track_handled_lengths(grid, capsys):
    over = []
    worst = 0.0
    for r in grid["runs"]:
        budget = touch_budget(r["params"].l_max)
        for rep in (r["enc"], r["dec"]):
            allowed = budget * rep.cost_units
            if rep.ps_touches > allowed:
                over.append((r["params"].sigma, r["params"].lam, r["dist"]))
            if allowed:
                worst = max(worst, rep.ps_touches / allowed)
    emit(capsys, 10, "total structure touches linear in handled code length",
         not over, f"max observed at {worst:.2f} of the linear budget")
    assert not over, over
