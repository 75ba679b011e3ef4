"""Canonical Shannon codebook over per-length lists of code records.

The records of coded symbols live in lists A[0..l_max], one list per codeword
length. Each record carries its symbol, so the codebook needs no dictionary.
The codeword of the k-th symbol of length j (1-based k) is the first j bits of

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


def length_bounds(ell: int, l_max: int) -> tuple[list[int], list[int]]:
    """Frequencies where the Shannon length crosses a class, for j = 0..l_max.

    codeword_length(ell, f) > j iff f < down[j] = ceil(ell / 2**j), and
    codeword_length(ell, f) < j iff f >= up[j] = down[j - 1] (up[0] = ell + 1).
    """
    down = [-(-ell >> j) for j in range(l_max + 1)]
    return down, [ell + 1] + down[:-1]


class Codebook:
    """Per-length lists of code records plus the scaled Kraft sums that address them.

    The codebook owns the slot of every record it holds: a record at
    lists[j][k] has length j and index k. List removal is swap-with-last, so
    indices within a list are history-dependent but always dense.
    """

    __slots__ = ("l_max", "lists", "kraft", "kraft_total", "capacity", "size")

    def __init__(self, l_max: int):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        self.l_max = l_max
        self.lists: list[list] = [[] for _ in range(l_max + 1)]
        self.kraft = PartialSums(l_max + 1)  # entry j+1 holds len(A[j]) * 2**(l_max-j)
        self.kraft_total = 0
        self.capacity = 1 << l_max
        self.size = 0  # total coded symbols across all lists

    def counts(self) -> list[int]:
        """C[j] = len(A[j]) for j = 0..l_max."""
        return [len(lst) for lst in self.lists]

    def insert(self, rec, j: int) -> None:
        """Append the record rec to A[j] and mark it coded at (j, end)."""
        if not 0 <= j <= self.l_max:
            raise InternalInconsistencyError(f"length {j} out of range 0..{self.l_max}")
        if rec.length is not None:
            raise InternalInconsistencyError(f"symbol {rec.sym} is already coded")
        self._link(rec, j)

    def remove(self, rec) -> None:
        """Swap-remove the record rec from its list and mark it literal."""
        if rec.length is None:
            raise InternalInconsistencyError(f"symbol {rec.sym} is not coded")
        self._unlink(rec)
        rec.length = None
        rec.index = None

    def move(self, rec, j_to: int) -> None:
        """Move the record rec to the adjacent length class j_to."""
        j = rec.length
        if j is None:
            raise InternalInconsistencyError(f"symbol {rec.sym} is not coded")
        if j_to - j not in (-1, 1) or not 0 <= j_to <= self.l_max:
            raise InternalInconsistencyError(f"move from {j} to {j_to} is not one level")
        self._unlink(rec)
        self._link(rec, j_to)

    def _link(self, rec, j):
        # append rec to A[j] at (j, end) and add its weight; insert and move
        # are the only updates that raise the Kraft sum, so this is its check
        lst = self.lists[j]
        lst.append(rec)
        rec.length = j
        rec.index = len(lst) - 1
        w = 1 << (self.l_max - j)
        self.kraft.add(j + 1, w)
        self.kraft_total += w
        self.size += 1
        if self.kraft_total > self.capacity:
            raise InternalInconsistencyError(
                f"Kraft sum {self.kraft_total} exceeds capacity {self.capacity}"
            )

    def _unlink(self, rec):
        # swap the last record of A[j] into rec's slot, renumber it and drop
        # rec's weight; rec keeps its stale (length, index)
        j = rec.length
        lst = self.lists[j]
        k = rec.index
        last = lst.pop()
        if last is not rec:
            if k >= len(lst):
                raise InternalInconsistencyError(f"stale index {k} for symbol {rec.sym}")
            lst[k] = last
            last.index = k
        w = 1 << (self.l_max - j)
        self.kraft.add(j + 1, -w)
        self.kraft_total -= w
        self.size -= 1

    def codeword(self, j: int, k: int) -> tuple[int, int]:
        """Codeword (value, length) of the k-th symbol (1-based) in A[j]."""
        if not 0 <= j <= self.l_max:
            raise ValueError(f"length {j} out of range")
        if not 1 <= k <= len(self.lists[j]):
            raise ValueError(f"offset {k} out of range for length {j}")
        scaled = self.kraft.prefix(j) + ((k - 1) << (self.l_max - j))
        return scaled >> (self.l_max - j), j

    def decode(self, b: int) -> tuple:
        """Map l_max peeked bits b to (record, codeword length).

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
        """Validate internal consistency; d must hold each listed record (test hook)."""
        total = 0
        size = 0
        for j, lst in enumerate(self.lists):
            w = 1 << (self.l_max - j)
            if self.kraft.value(j + 1) != len(lst) * w:
                raise InternalInconsistencyError(f"Kraft entry {j} out of sync")
            total += len(lst) * w
            size += len(lst)
            for k, rec in enumerate(lst):
                if d.get(rec.sym) is not rec or rec.length != j or rec.index != k:
                    raise InternalInconsistencyError(f"record for {rec.sym} out of sync")
        if total != self.kraft_total or total != self.kraft.total():
            raise InternalInconsistencyError("Kraft total out of sync")
        if size != self.size:
            raise InternalInconsistencyError("size out of sync")
        if total > self.capacity:
            raise InternalInconsistencyError("Kraft sum exceeds capacity")
