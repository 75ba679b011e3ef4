"""A frozen pure-Python workload that measures how fast the CPU runs right now.

Machines shared with other tenants change speed for seconds to minutes at a
time (on the 2-core VM the benchmark was written on, by up to 1.8x). The
benchmark runs this yardstick right before every timed operation and scales
the operation's time by REFERENCE_S / (the mean of the yardstick passes just
before and just after it), so a slow phase moves the yardstick and the coder
together and largely cancels out.

The yardstick imitates the coder's hot path (a sliding window, a two-level
trie of per-symbol records, an MSB-first bit writer, method calls on small
objects) without importing swsc, so no change to swsc can move it. Never
change this file: every scaled time in the benchmark is relative to it.
"""

import random
import time

# median yardstick time in a fast phase of a 2-core VM, Python 3.11.7
REFERENCE_S = 0.035
_SYMBOLS = 40_000
_ELL = 8192


class _Record:
    __slots__ = ("freq",)

    def __init__(self, freq):
        self.freq = freq


class _Trie:
    def __init__(self):
        self.root = [None] * 256

    def get(self, a):
        node = self.root[a >> 8]
        return None if node is None else node[a & 255]

    def put(self, a, rec):
        node = self.root[a >> 8]
        if node is None:
            node = self.root[a >> 8] = [None] * 256
        node[a & 255] = rec

    def delete(self, a):
        self.root[a >> 8][a & 255] = None


class _Writer:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write_bits(self, value, count):
        acc = (self.acc << count) | value
        n = self.nbits + count
        buf = self.buf
        while n >= 8:
            n -= 8
            buf.append((acc >> n) & 0xFF)
        self.acc = acc & ((1 << n) - 1)
        self.nbits = n


class _Window:
    def __init__(self, ell):
        self.ring = [0] * ell
        self.ell = ell
        self.len = 0
        self.head = 0
        self.trie = _Trie()

    def step(self, a, rec):
        trie = self.trie
        if self.len < self.ell:
            self.ring[self.len] = a
            self.len += 1
        else:
            h = self.head
            evicted = self.ring[h]
            self.ring[h] = a
            h += 1
            self.head = h if h < self.ell else 0
            old = trie.get(evicted)
            old.freq -= 1
            if old.freq == 0:
                trie.delete(evicted)
                if evicted == a:
                    rec = None
        if rec is None:
            trie.put(a, _Record(1))
        else:
            rec.freq += 1


def _symbols():
    rng = random.Random(20081121)
    # log-uniform over 1..65536, close to zipf(1)
    return [int(65536.0 ** rng.random()) - 1 for _ in range(_SYMBOLS)]


_INPUT = _symbols()


def run_once():
    """Seconds one pass of the yardstick takes."""
    window = _Window(_ELL)
    writer = _Writer()
    get = window.trie.get
    t0 = time.perf_counter()
    for a in _INPUT:
        rec = get(a)
        if rec is not None and rec.freq > 64:
            writer.write_bits(1, 2)
        else:
            writer.write_bits(a, 17)
        window.step(a, rec)
    return time.perf_counter() - t0
