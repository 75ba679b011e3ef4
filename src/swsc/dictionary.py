"""Symbol-to-record dictionaries sized by window content, not alphabet.

Two interchangeable backends keep the per-symbol bookkeeping (window
frequency plus codebook position) for exactly the symbols currently in the
window: a fixed-height trie over the symbol's bits and an open-addressed hash
table. Both expose get/put/delete plus a deterministic memory report, and
lookup: get without the range check, for callers that checked the symbol.

Reported bytes follow a packed layout model (what a careful C implementation
would allocate), so audits are platform-independent: 8 bytes per trie table
slot, and per record 4 bytes of frequency + 1 byte of codeword length +
2 bytes of list index; hashed slots add the key at the symbol's byte width.
"""

import math
import random

from .errors import InternalInconsistencyError, ParameterError

RECORD_MODEL_BYTES = 7  # freq u32 + length u8 + index u16
SLOT_MODEL_BYTES = 8  # one pointer-sized trie table slot


def symbol_model_bytes(sigma: int) -> int:
    """Bytes per stored symbol: the smallest of 1/2/4 that covers sigma - 1."""
    width = (sigma - 1).bit_length()
    if width <= 8:
        return 1
    if width <= 16:
        return 2
    return 4


class CodeRecord:
    """Mutable per-symbol state: window frequency and codebook slot.

    length is None for a literal (uncoded) symbol; otherwise the record sits
    at lists[length][index] in the codebook.
    """

    __slots__ = ("freq", "length", "index")

    def __init__(self, freq: int, length=None, index=None):
        self.freq = freq
        self.length = length
        self.index = index

    def __eq__(self, other):
        return (isinstance(other, CodeRecord)
                and (self.freq, self.length, self.index)
                == (other.freq, other.length, other.index))

    def __repr__(self):
        return f"CodeRecord(freq={self.freq}, length={self.length}, index={self.index})"


class TrieDictionary:
    """Fixed-height trie over the symbol's bits, branching 2**b per level.

    b = ceil(eps_prime * width); every operation touches exactly height =
    ceil(width / b) node tables. Child tables are allocated lazily and freed
    eagerly when they empty, so the table count is O(stored keys).
    """

    def __init__(self, sigma: int, eps_prime: float = 0.5):
        if sigma < 2:
            raise ParameterError("sigma must be >= 2")
        if not 0 < eps_prime <= 1:
            raise ParameterError("eps_prime must lie in (0, 1]")
        self.sigma = sigma
        self.eps_prime = eps_prime
        width = (sigma - 1).bit_length()
        b = max(1, math.ceil(eps_prime * width))
        self.height = -(-width // b)
        # top-first navigation; the last level takes the leftover bits
        levels = []
        used = 0
        for lvl in range(self.height):
            bits = b if lvl < self.height - 1 else width - (self.height - 1) * b
            used += bits
            levels.append((width - used, (1 << bits) - 1, 1 << bits))
        self._levels = levels
        self._nav = tuple((shift, mask) for shift, mask, _ in levels)
        self._root = self._new_table(levels[0][2])
        # records stored, tables allocated, slots over those tables; a list the
        # height-2 closures can update without holding self, since a cycle
        # through self would keep a dropped trie alive until the gc runs
        self._tally = [0, 1, levels[0][2]]
        if self.height == 2:  # every sigma > 2 at eps_prime 0.5
            self._bind_height_two()

    def _bind_height_two(self):
        # Straight-line lookup/put/delete shadow the generic methods: no level
        # loop, no path list, table accounting inline. The root is never freed.
        root, ((top, _), (_, low)) = self._root, self._nav  # a < 2**width: no top mask
        sigma, rsize, csize = self.sigma, self._levels[0][2], self._levels[1][2]
        tally = self._tally

        def lookup(a):
            node = root[a >> top]
            return None if node is None else node[a & low]

        def put(a, record):
            if not 0 <= a < sigma:
                raise ParameterError(f"symbol {a} out of range for sigma {sigma}")
            hi = a >> top
            node = root[hi]
            if node is None:
                node = [None] * (csize + 1)
                node[csize] = 0
                root[hi] = node
                root[rsize] += 1
                tally[1] += 1
                tally[2] += csize
            lo = a & low
            if node[lo] is None:
                node[csize] += 1
                tally[0] += 1
            node[lo] = record

        def delete(a):
            if not 0 <= a < sigma:
                raise ParameterError(f"symbol {a} out of range for sigma {sigma}")
            hi, lo = a >> top, a & low
            node = root[hi]
            if node is None or node[lo] is None:
                raise InternalInconsistencyError(f"delete of absent symbol {a}")
            node[lo] = None
            tally[0] -= 1
            left = node[csize] - 1
            node[csize] = left
            if left == 0:
                root[hi] = None
                root[rsize] -= 1
                tally[1] -= 1
                tally[2] -= csize

        self.lookup, self.put, self.delete = lookup, put, delete

    def _new_table(self, size):
        # slots 0..size-1 are children or records; the trailing cell counts them
        t = [None] * (size + 1)
        t[size] = 0
        return t

    def _account(self, size, sign=1):
        self._tally[1] += sign
        self._tally[2] += sign * size

    def __len__(self):
        return self._tally[0]

    @property
    def table_count(self) -> int:
        return self._tally[1]

    def get(self, a: int):
        """Record for symbol a, or None."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        return self.lookup(a)

    def lookup(self, a: int):
        """get without the range check: a must lie in [0, sigma)."""
        node = self._root
        for shift, mask in self._nav:
            node = node[(a >> shift) & mask]
            if node is None:
                return None
        return node

    def put(self, a: int, record: CodeRecord) -> None:
        """Insert or overwrite the record for symbol a."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        node = self._root
        levels = self._levels
        for depth in range(self.height - 1):
            shift, mask, size = levels[depth]
            idx = (a >> shift) & mask
            child = node[idx]
            if child is None:
                child_size = levels[depth + 1][2]
                child = self._new_table(child_size)
                node[idx] = child
                node[size] += 1
                self._account(child_size)
            node = child
        shift, mask, size = levels[-1]
        idx = (a >> shift) & mask
        if node[idx] is None:
            node[size] += 1
            self._tally[0] += 1
        node[idx] = record

    def delete(self, a: int) -> None:
        """Remove symbol a; absence is an internal inconsistency."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        path = []
        node = self._root
        for shift, mask, size in self._levels:
            idx = (a >> shift) & mask
            path.append((node, idx, size))
            node = node[idx]
            if node is None:
                raise InternalInconsistencyError(f"delete of absent symbol {a}")
        self._tally[0] -= 1
        # clear the leaf slot, then free emptied tables bottom-up (not the root)
        for depth in range(len(path) - 1, -1, -1):
            node, idx, size = path[depth]
            node[idx] = None
            node[size] -= 1
            if node[size] > 0 or depth == 0:
                break
            self._account(size, -1)

    def items(self):
        """Yield (symbol, record) pairs in symbol order."""
        yield from self._walk(self._root, 0, 0)

    def _walk(self, node, depth, prefix):
        shift, mask, size = self._levels[depth]
        for idx in range(size):
            child = node[idx]
            if child is None:
                continue
            sym = prefix | (idx << shift)
            if depth == self.height - 1:
                yield sym, child
            else:
                yield from self._walk(child, depth + 1, sym)

    def report_memory(self) -> int:
        """Modeled bytes: all allocated table slots plus stored records."""
        n, _, slots = self._tally
        return slots * SLOT_MODEL_BYTES + n * RECORD_MODEL_BYTES


class HashedDictionary:
    """Open-addressed hash table with linear probing, load factor <= 1/2.

    Uses seeded multiply-shift hashing; capacity doubles when the load factor
    would pass 1/2 and halves when it drops below 1/8. Deletion backward-shifts
    the following run, so no tombstones accumulate.
    """

    MIN_CAPACITY = 8

    def __init__(self, sigma: int, seed: int = 0):
        if sigma < 2:
            raise ParameterError("sigma must be >= 2")
        self.sigma = sigma
        self.seed = seed
        rng = random.Random(seed)
        self._mult = rng.getrandbits(64) | 1  # odd multiplier
        self._key_bytes = symbol_model_bytes(sigma)
        self._n = 0
        self._alloc(self.MIN_CAPACITY)

    def _alloc(self, capacity):
        self._cap = capacity
        self._shift = 64 - capacity.bit_length() + 1
        self._keys = [-1] * capacity
        self._vals = [None] * capacity

    def __len__(self):
        return self._n

    @property
    def capacity(self) -> int:
        return self._cap

    def _home(self, a):
        return ((a * self._mult) & 0xFFFFFFFFFFFFFFFF) >> self._shift

    def get(self, a: int):
        """Record for symbol a, or None."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        return self.lookup(a)

    def lookup(self, a: int):
        """get without the range check: a must lie in [0, sigma)."""
        keys = self._keys
        mask = self._cap - 1
        i = ((a * self._mult) & 0xFFFFFFFFFFFFFFFF) >> self._shift  # _home inlined
        while True:
            k = keys[i]
            if k == a:
                return self._vals[i]
            if k < 0:
                return None
            i = (i + 1) & mask

    def put(self, a: int, record: CodeRecord) -> None:
        """Insert or overwrite the record for symbol a."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        keys = self._keys
        mask = self._cap - 1
        i = ((a * self._mult) & 0xFFFFFFFFFFFFFFFF) >> self._shift  # _home inlined
        while True:
            k = keys[i]
            if k == a:
                self._vals[i] = record
                return
            if k < 0:
                break
            i = (i + 1) & mask
        if 2 * (self._n + 1) > self._cap:  # grow only for a genuine insert
            self._rehash(self._cap * 2)
            keys = self._keys
            mask = self._cap - 1
            i = self._home(a)
            while keys[i] >= 0:
                i = (i + 1) & mask
        keys[i] = a
        self._vals[i] = record
        self._n += 1

    def delete(self, a: int) -> None:
        """Remove symbol a; absence is an internal inconsistency."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        keys = self._keys
        vals = self._vals
        mask = self._cap - 1
        mult, shift = self._mult, self._shift
        i = ((a * mult) & 0xFFFFFFFFFFFFFFFF) >> shift  # _home inlined
        while True:
            k = keys[i]
            if k == a:
                break
            if k < 0:
                raise InternalInconsistencyError(f"delete of absent symbol {a}")
            i = (i + 1) & mask
        keys[i] = -1
        vals[i] = None
        # backward-shift the rest of the probe run into the hole
        j = i
        while True:
            j = (j + 1) & mask
            k = keys[j]
            if k < 0:
                break
            home = ((k * mult) & 0xFFFFFFFFFFFFFFFF) >> shift
            if (j - home) & mask >= (j - i) & mask:
                keys[i] = k
                vals[i] = vals[j]
                keys[j] = -1
                vals[j] = None
                i = j
        self._n -= 1
        if self._cap > self.MIN_CAPACITY and 8 * self._n < self._cap:
            new_cap = self._cap
            while new_cap > self.MIN_CAPACITY and 8 * self._n < new_cap:
                new_cap //= 2
            self._rehash(new_cap)

    def _rehash(self, capacity):
        old = [(k, v) for k, v in zip(self._keys, self._vals) if k >= 0]
        self._alloc(capacity)
        keys = self._keys
        vals = self._vals
        mask = capacity - 1
        for k, v in old:
            i = self._home(k)
            while keys[i] >= 0:
                i = (i + 1) & mask
            keys[i] = k
            vals[i] = v

    def items(self):
        """Yield (symbol, record) pairs in table order."""
        for k, v in zip(self._keys, self._vals):
            if k >= 0:
                yield k, v

    def report_memory(self) -> int:
        """Modeled bytes: every slot carries a key plus an inline record."""
        return self._cap * (self._key_bytes + RECORD_MODEL_BYTES)


def make_dictionary(backend: str, sigma: int, seed: int = 0, eps_prime: float = 0.5):
    """Construct the named backend ('trie' or 'hashed')."""
    if backend == "trie":
        return TrieDictionary(sigma, eps_prime=eps_prime)
    if backend == "hashed":
        return HashedDictionary(sigma, seed=seed)
    raise ParameterError(f"unknown dictionary backend {backend!r}")
