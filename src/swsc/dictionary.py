"""Symbol-to-record dictionaries sized by window content, not alphabet.

Two interchangeable backends keep the per-symbol bookkeeping (window
frequency plus codebook position) for exactly the symbols currently in the
window: a two-level radix trie over the symbol's bits and an open-addressed
hash table. Both expose get/put/delete plus a deterministic memory report, and
lookup: get without the range check, for callers that checked the symbol.

Reported bytes follow a packed layout model (what a careful C implementation
would allocate), so audits are platform-independent: 8 bytes per trie table
slot, and per record 4 bytes of frequency + 1 byte of codeword length +
2 bytes of list index; hashed slots add the key at the symbol's byte width.
"""

import random

from .errors import InternalInconsistencyError, ParameterError
from .params import check_sigma

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
    """Mutable per-symbol state: the symbol, its window frequency and codebook slot.

    sym is set when the record is created and never changes. A new record is
    literal (length None); the codebook sets length and index when it holds
    the record at lists[length][index].
    """

    __slots__ = ("freq", "length", "index", "sym")

    def __init__(self, freq: int, sym=None):
        self.freq = freq
        self.length = None
        self.index = None
        self.sym = sym

    def __eq__(self, other):
        return (isinstance(other, CodeRecord)
                and (self.freq, self.length, self.index, self.sym)
                == (other.freq, other.length, other.index, other.sym))

    def __repr__(self):
        return (f"CodeRecord(freq={self.freq}, length={self.length}, "
                f"index={self.index}, sym={self.sym})")


class TrieDictionary:
    """Two-level radix trie over the symbol's width-bit index.

    The root table is indexed by the high ceil(width / 2) bits and each child
    table by the low floor(width / 2) bits, so every operation touches at
    most two tables. Child tables are allocated lazily and freed eagerly when
    they empty, so the table count is O(stored keys).
    """

    def __init__(self, sigma: int):
        check_sigma(sigma)
        self.sigma = sigma
        width = (sigma - 1).bit_length()
        self._shift = width // 2  # bits below the root index
        self._low = (1 << self._shift) - 1
        self._csize = 1 << self._shift
        self._root = [None] * (1 << (width - self._shift))
        self._n = 0  # records stored
        self.table_count = 1  # the root plus the live child tables

    def __len__(self):
        return self._n

    def get(self, a: int):
        """Record for symbol a, or None."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        return self.lookup(a)

    def lookup(self, a: int):
        """get without the range check: a must lie in [0, sigma)."""
        node = self._root[a >> self._shift]
        return None if node is None else node[a & self._low]

    def put(self, a: int, record: CodeRecord) -> None:
        """Insert or overwrite the record for symbol a."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        hi = a >> self._shift
        node = self._root[hi]
        csize = self._csize
        if node is None:
            # slots 0..csize-1 hold records; the trailing cell counts them
            node = [None] * (csize + 1)
            node[csize] = 0
            self._root[hi] = node
            self.table_count += 1
        lo = a & self._low
        if node[lo] is None:
            node[csize] += 1
            self._n += 1
        node[lo] = record

    def delete(self, a: int) -> None:
        """Remove symbol a; absence is an internal inconsistency."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        hi, lo = a >> self._shift, a & self._low
        node = self._root[hi]
        if node is None or node[lo] is None:
            raise InternalInconsistencyError(f"delete of absent symbol {a}")
        node[lo] = None
        self._n -= 1
        csize = self._csize
        left = node[csize] - 1
        node[csize] = left
        if left == 0:
            self._root[hi] = None
            self.table_count -= 1

    def items(self):
        """Yield (symbol, record) pairs in symbol order."""
        shift = self._shift
        for hi, node in enumerate(self._root):
            if node is not None:
                for lo, record in enumerate(node[:self._csize]):
                    if record is not None:
                        yield (hi << shift) | lo, record

    def report_memory(self) -> int:
        """Modeled bytes: all allocated table slots plus stored records."""
        slots = len(self._root) + (self.table_count - 1) * self._csize
        return slots * SLOT_MODEL_BYTES + self._n * RECORD_MODEL_BYTES


class HashedDictionary:
    """Open-addressed hash table with linear probing, load factor <= 1/2.

    Uses seeded multiply-shift hashing; capacity doubles when the load factor
    would pass 1/2 and halves when it drops below 1/8. Deletion backward-shifts
    the following run, so no tombstones accumulate.
    """

    MIN_CAPACITY = 8

    def __init__(self, sigma: int, seed: int = 0):
        check_sigma(sigma)
        self.sigma = sigma
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


def make_dictionary(backend: str, sigma: int, seed: int = 0):
    """Construct the named backend ('trie' or 'hashed')."""
    if backend == "trie":
        return TrieDictionary(sigma)
    if backend == "hashed":
        return HashedDictionary(sigma, seed=seed)
    raise ParameterError(f"unknown dictionary backend {backend!r}")
