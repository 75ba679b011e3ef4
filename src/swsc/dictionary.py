"""Symbol-to-record dictionaries sized by window content, not alphabet.

Two interchangeable backends keep the per-symbol bookkeeping (window
frequency plus codebook position) for exactly the symbols currently in the
window: a two-level radix trie over the symbol's bits and a built-in dict
billed as an open-addressed hash table. Both expose get/put/delete plus a
deterministic memory report, and lookup: get without the range check, for
callers that checked the symbol.

Reported bytes follow a packed layout model (what a careful C implementation
would allocate), so audits are platform-independent: 8 bytes per trie table
slot, and per record 4 bytes of frequency + 1 byte of codeword length +
2 bytes of list index; hashed slots add the key at the symbol's byte width.
"""

from .errors import InternalInconsistencyError, ParameterError
from .params import check_sigma

RECORD_MODEL_BYTES = 7  # freq u32 + length u8 + index u16
SLOT_MODEL_BYTES = 8  # one pointer-sized trie table slot
BACKENDS = ("trie", "hashed")  # a stream header's backend byte indexes this
TRIE_MAX_SIGMA = 1 << 16  # the trie's widest alphabet: no table passes 2^8 + 1 slots


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
    most two tables. Child tables are allocated lazily and freed when they
    empty, so the table count is O(stored keys). sigma > TRIE_MAX_SIGMA is refused.
    """

    def __init__(self, sigma: int):
        check_sigma(sigma)
        choose_backend("trie", sigma)  # refuses sigma above TRIE_MAX_SIGMA
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
    """One built-in dict from symbol to record, billed as a hash table.

    The bill models an open-addressed table at load factor <= 1/2: its
    capacity doubles when an insert would pass load 1/2 and halves while the
    load is below 1/8, never below MIN_CAPACITY. items() yields insertion
    order. seed is accepted and ignored; it goes with ROADMAP item 1.
    """

    MIN_CAPACITY = 8

    def __init__(self, sigma: int, seed: int = 0):
        check_sigma(sigma)
        self.sigma = sigma
        self._key_bytes = symbol_model_bytes(sigma)
        self._records = {}
        self.capacity = self.MIN_CAPACITY  # modeled slots

    def __len__(self):
        return len(self._records)

    def get(self, a: int):
        """Record for symbol a, or None."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        return self._records.get(a)

    def lookup(self, a: int):
        """get without the range check: a must lie in [0, sigma)."""
        return self._records.get(a)

    def put(self, a: int, record: CodeRecord) -> None:
        """Insert or overwrite the record for symbol a."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        records = self._records
        if a not in records and 2 * (len(records) + 1) > self.capacity:
            self.capacity *= 2  # grow only for a genuine insert
        records[a] = record

    def delete(self, a: int) -> None:
        """Remove symbol a; absence is an internal inconsistency."""
        if a < 0 or a >= self.sigma:
            raise ParameterError(f"symbol {a} out of range for sigma {self.sigma}")
        records = self._records
        if records.pop(a, None) is None:
            raise InternalInconsistencyError(f"delete of absent symbol {a}")
        cap, n = self.capacity, len(records)
        while cap > self.MIN_CAPACITY and 8 * n < cap:
            cap //= 2
        self.capacity = cap

    def items(self):
        """Yield (symbol, record) pairs in insertion order."""
        yield from self._records.items()

    def report_memory(self) -> int:
        """Modeled bytes: every slot carries a key plus an inline record."""
        return self.capacity * (self._key_bytes + RECORD_MODEL_BYTES)


def choose_backend(backend: str | None, sigma: int) -> str:
    """backend, checked; by default the trie up to TRIE_MAX_SIGMA, else hashed."""
    if backend is None:
        backend = "trie" if sigma <= TRIE_MAX_SIGMA else "hashed"
    elif backend not in BACKENDS:
        raise ParameterError(f"unknown dictionary backend {backend!r}")
    elif backend == "trie" and sigma > TRIE_MAX_SIGMA:
        raise ParameterError(f"the trie takes sigma up to {TRIE_MAX_SIGMA}, not {sigma}")
    return backend


def make_dictionary(backend: str | None, sigma: int):
    """Construct the backend that choose_backend picks for sigma."""
    if choose_backend(backend, sigma) == "trie":
        return TrieDictionary(sigma)
    return HashedDictionary(sigma)
