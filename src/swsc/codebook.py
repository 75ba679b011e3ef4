"""Canonical Shannon codebook over per-length symbol lists.

Coded symbols live in lists A[0..l_max], one list per codeword length. The
codeword of the k-th symbol of length j (1-based k) is the first j bits of

    V = sum over lengths h < j of C[h] * 2**(l_max - h)  +  (k - 1) * 2**(l_max - j)

written as an l_max-bit value, where C[h] = len(A[h]). The scaled Kraft
weights C[h] * 2**(l_max - h) are kept in a searchable partial-sums structure
so encode needs one prefix query and decode one prefix-sum search.
"""

from .errors import CorruptStreamError, InternalInconsistencyError
from .partial_sums import PartialSums


def codeword_length(ell: int, f: int) -> int:
    """Smallest j >= 0 with f * 2**j >= ell: the Shannon length for frequency f."""
    if ell < 1 or f < 1:
        raise ValueError("ell and f must be positive")
    return ((ell + f - 1) // f - 1).bit_length()


class Codebook:
    """Per-length symbol lists plus the scaled Kraft sums that address them.

    Mutators keep the owning dictionary's records (length, index) in sync;
    list removal is swap-with-last, so indices within a list are
    history-dependent but always dense.
    """

    __slots__ = ("l_max", "lists", "kraft", "kraft_total", "capacity", "size")

    def __init__(self, l_max: int):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        self.l_max = l_max
        self.lists: list[list[int]] = [[] for _ in range(l_max + 1)]
        self.kraft = PartialSums(l_max + 1)  # entry j+1 holds len(A[j]) * 2**(l_max-j)
        self.kraft_total = 0
        self.capacity = 1 << l_max
        self.size = 0  # total coded symbols across all lists

    def counts(self) -> list[int]:
        """C[j] = len(A[j]) for j = 0..l_max."""
        return [len(lst) for lst in self.lists]

    def insert(self, a: int, j: int, record) -> None:
        """Append symbol a to A[j] and mark its record coded at (j, end)."""
        if not 0 <= j <= self.l_max:
            raise InternalInconsistencyError(f"length {j} out of range 0..{self.l_max}")
        if record.length is not None:
            raise InternalInconsistencyError(f"symbol {a} is already coded")
        lst = self.lists[j]
        lst.append(a)
        record.length = j
        record.index = len(lst) - 1
        w = 1 << (self.l_max - j)
        self.kraft.add(j + 1, w)
        self.kraft_total += w
        self.size += 1
        if self.kraft_total > self.capacity:
            raise InternalInconsistencyError(
                f"Kraft sum {self.kraft_total} exceeds capacity {self.capacity}"
            )

    def remove(self, a: int, record, d) -> None:
        """Swap-remove symbol a from its list and mark its record literal.

        The record may already have been dropped from the dictionary (a symbol
        leaving the window entirely); only the swapped-in survivor is looked up.
        """
        j = record.length
        if j is None:
            raise InternalInconsistencyError(f"symbol {a} is not coded")
        self._unlink(a, record, d)
        w = 1 << (self.l_max - j)
        self.kraft.add(j + 1, -w)
        self.kraft_total -= w
        self.size -= 1
        record.length = None
        record.index = None

    def move(self, a: int, record, j_to: int, d) -> None:
        """Move symbol a to the adjacent length class j_to."""
        j = record.length
        if j is None:
            raise InternalInconsistencyError(f"symbol {a} is not coded")
        if j_to - j not in (-1, 1) or not 0 <= j_to <= self.l_max:
            raise InternalInconsistencyError(f"move from {j} to {j_to} is not one level")
        self._unlink(a, record, d)
        dst = self.lists[j_to]
        dst.append(a)
        record.length = j_to
        record.index = len(dst) - 1
        self.kraft.add(j + 1, -(1 << (self.l_max - j)))
        self.kraft.add(j_to + 1, 1 << (self.l_max - j_to))
        self.kraft_total += (1 << (self.l_max - j_to)) - (1 << (self.l_max - j))
        if self.kraft_total > self.capacity:
            raise InternalInconsistencyError(
                f"Kraft sum {self.kraft_total} exceeds capacity {self.capacity}"
            )

    def _unlink(self, a, record, d):
        # swap the last element of A[j] into a's slot; its record must follow
        lst = self.lists[record.length]
        k = record.index
        last = lst.pop()
        if last != a:
            if k >= len(lst):
                raise InternalInconsistencyError(f"stale index {k} for symbol {a}")
            lst[k] = last
            other = d.lookup(last)  # last came from our own list: in range
            if other is None:
                raise InternalInconsistencyError(f"no record for coded symbol {last}")
            other.index = k

    def codeword(self, j: int, k: int) -> tuple[int, int]:
        """Codeword (value, length) of the k-th symbol (1-based) in A[j]."""
        if not 0 <= j <= self.l_max:
            raise ValueError(f"length {j} out of range")
        if not 1 <= k <= len(self.lists[j]):
            raise ValueError(f"offset {k} out of range for length {j}")
        scaled = self.kraft.prefix(j) + ((k - 1) << (self.l_max - j))
        return scaled >> (self.l_max - j), j

    def decode(self, b: int) -> tuple[int, int]:
        """Map l_max peeked bits b to (symbol, codeword length).

        Finds the largest nonempty class j with prefix(j) <= b: a prefix-sum
        search, then a downward scan past empty classes. Raises
        CorruptStreamError when b lies under no codeword's interval.
        """
        if not 0 <= b < self.capacity:
            raise ValueError(f"peeked value {b} out of range")
        i, acc = self.kraft.search_with_prefix(b)
        lists = self.lists
        j = i if i <= self.l_max else self.l_max
        while j >= 0 and not lists[j]:
            j -= 1
        if j < 0:
            raise CorruptStreamError("coded flag with no matching codeword")
        lst = lists[j]
        # prefix(j): classes strictly between j and i are empty, so only the
        # weight of class j itself separates it from the accumulated prefix
        base = acc if j == i else acc - (len(lst) << (self.l_max - j))
        k = (b - base) >> (self.l_max - j)
        if k >= len(lst):
            raise CorruptStreamError("peeked bits fall outside the coded range")
        return lst[k], j

    def check(self, d) -> None:
        """Validate internal consistency against the dictionary d (test hook)."""
        total = 0
        size = 0
        for j, lst in enumerate(self.lists):
            w = 1 << (self.l_max - j)
            if self.kraft.value(j + 1) != len(lst) * w:
                raise InternalInconsistencyError(f"Kraft entry {j} out of sync")
            total += len(lst) * w
            size += len(lst)
            for k, a in enumerate(lst):
                rec = d.get(a)
                if rec is None or rec.length != j or rec.index != k:
                    raise InternalInconsistencyError(f"record for {a} out of sync")
        if total != self.kraft_total or total != self.kraft.total():
            raise InternalInconsistencyError("Kraft total out of sync")
        if size != self.size:
            raise InternalInconsistencyError("size out of sync")
        if total > self.capacity:
            raise InternalInconsistencyError("Kraft sum exceeds capacity")
