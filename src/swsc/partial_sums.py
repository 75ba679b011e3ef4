"""Searchable partial sums over a small array of nonnegative integers.

Backed by a binary-indexed tree so that point updates, prefix sums and
prefix-sum search all touch O(log k) tree nodes. Every access to the tree
array is counted in ``touches`` so callers can verify work bounds.
"""


class PartialSums:
    """k nonnegative integer entries p_1..p_k with prefix-sum queries.

    Entries are 1-indexed. ``prefix(0)`` is 0 by convention.
    """

    __slots__ = ("k", "touches", "_tree", "_raw", "_top")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one entry")
        self.k = k
        self.touches = 0  # tree-array reads + writes, for work-bound checks
        self._tree = [0] * (k + 1)
        self._raw = [0] * (k + 1)  # point values; O(1) nonnegativity checks
        self._top = 1 << (k.bit_length() - 1)  # largest power of two <= k

    def value(self, i: int) -> int:
        """Current value of entry i."""
        if not 1 <= i <= self.k:
            raise IndexError(f"entry {i} out of range 1..{self.k}")
        return self._raw[i]

    def add(self, i: int, delta: int) -> None:
        """Add delta to entry i. The resulting entry must stay >= 0."""
        if not 1 <= i <= self.k:
            raise IndexError(f"entry {i} out of range 1..{self.k}")
        new = self._raw[i] + delta
        if new < 0:
            raise ValueError(f"entry {i} would become negative ({new})")
        self._raw[i] = new
        tree = self._tree
        k = self.k
        n = 0
        while i <= k:
            tree[i] += delta
            n += 1
            i += i & -i
        self.touches += n

    def prefix(self, i: int) -> int:
        """Sum of entries 1..i."""
        if not 0 <= i <= self.k:
            raise IndexError(f"index {i} out of range 0..{self.k}")
        tree = self._tree
        s = 0
        n = 0
        while i > 0:
            s += tree[i]
            n += 1
            i &= i - 1
        self.touches += n
        return s

    def search_with_prefix(self, b: int) -> tuple[int, int]:
        """(i, prefix(i)) for the largest i in [0, k] with prefix(i) <= b."""
        if b < 0:
            raise ValueError("search bound must be nonnegative")
        tree = self._tree
        k = self.k
        pos = 0
        acc = 0
        step = self._top
        n = 0
        while step:
            nxt = pos + step
            if nxt <= k:
                v = tree[nxt]
                n += 1
                if acc + v <= b:
                    acc += v
                    pos = nxt
            step >>= 1
        self.touches += n
        return pos, acc

    def total(self) -> int:
        """Sum of all entries."""
        return self.prefix(self.k)
