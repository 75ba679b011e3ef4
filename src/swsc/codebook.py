"""Canonical Shannon codebook over per-length lists of code records.

The records of coded symbols live in lists A[0..l_max], one list per codeword
length. Each record carries its symbol, so the codebook needs no dictionary.
The codeword of the record at A[j][k] (0-based k) is the first j bits of

    V = sum over lengths h < j of C[h] * 2**(l_max - h)  +  k * 2**(l_max - j)

written as an l_max-bit value, where C[h] = len(A[h]). The scaled Kraft
weights C[h] * 2**(l_max - h) are kept in a searchable partial-sums structure
so encode needs one prefix query and decode one prefix-sum search.

An insert, move or remove starts a new epoch of the code. codeword keeps
A[j]'s first codeword in bases[j] and decode b's record in peeks[b], with the
epoch and touches; a coder reads entries of this epoch and credits them.
"""

from .errors import CorruptStreamError, InternalInconsistencyError
from .partial_sums import PartialSums

NO_ANSWER = (-1, None, 0)  # (epoch, answer, touches) of no epoch


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
    indices within a list are history-dependent but always dense. It keeps
    the report's counters: size peak, coded symbols, touches, worst step.
    """

    __slots__ = ("l_max", "lists", "kraft", "kraft_total", "capacity", "size", "max_size",
                 "coded", "max_step", "_step_start", "epoch", "bases", "peeks")

    def __init__(self, l_max: int):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        self.l_max = l_max
        self.lists: list[list] = [[] for _ in range(l_max + 1)]
        self.kraft = PartialSums(l_max + 1)  # entry j+1 holds len(A[j]) * 2**(l_max-j)
        self.kraft_total = 0
        self.capacity = 1 << l_max
        self.size = 0  # total coded symbols across all lists
        self.max_size = 0  # the largest size seen
        self.coded = 0  # queries codeword and decode answered: the coded symbols
        self.max_step = 0  # the most touches between two end_step calls
        self._step_start = 0  # the touches at the last end_step
        self.epoch = 0  # insert, move and remove advance it: answers of older ones are stale
        self.bases = [NO_ANSWER] * (l_max + 1)  # class j -> (epoch, first codeword, touches)
        self.peeks = {}  # peeked bits b -> (epoch, record, touches); at most 2**l_max

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
        if self.size > self.max_size:  # the only call that raises size
            self.max_size = self.size

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
            raise InternalInconsistencyError(
                f"move from {j} to {j_to} is not one level within 0..{self.l_max}")
        self._unlink(rec)
        self._link(rec, j_to)

    def end_step(self) -> None:
        """Close a coding step: max_step keeps the most touches one step made."""
        t = self.kraft.touches
        if t - self._step_start > self.max_step:
            self.max_step = t - self._step_start
        self._step_start = t

    def credit(self, coded: int, touches: int, open_touches: int = 0) -> None:
        """Bill coded queries read from bases or peeks, with the touches they record.

        open_touches of them are the open step's, for its end_step to count. A
        closed step of one read made no more than its first answer's step.
        """
        self.coded += coded
        self.kraft.touches += touches
        self._step_start += touches - open_touches

    def _link(self, rec, j):
        # append rec to A[j] at (j, end) and add its weight; insert and move
        # are the only updates that raise the Kraft sum, so this is its check
        self.epoch += 1
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
        self.epoch += 1
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

    def codeword(self, rec) -> int:
        """The rec.length-bit codeword of the coded record rec, read off its slot.

        A[j]'s first codeword is prefix(j) >> (l_max - j), with no bits lost:
        each weight of a class below j is a multiple of 2**(l_max - j + 1),
        and goes to bases[j].
        """
        j = rec.length
        if j is None:
            raise InternalInconsistencyError(f"symbol {rec.sym} is not coded")
        self.coded += 1
        t = self.kraft.touches
        base = self.kraft.prefix(j) >> (self.l_max - j)
        self.bases[j] = (self.epoch, base, self.kraft.touches - t)
        return base + rec.index

    def decode(self, b: int):
        """Map l_max peeked bits b to the record whose codeword they start with.

        One prefix-sum search finds the largest j with prefix(j) <= b. When
        j <= l_max, entry j + 1 exceeds b - prefix(j), so class j is nonempty
        and holds b's codeword; j = l_max + 1 means b >= kraft_total, under no
        codeword's interval, and raises CorruptStreamError; a record found goes to peeks[b].
        """
        if not 0 <= b < self.capacity:
            raise ValueError(f"peeked value {b} out of range")
        t = self.kraft.touches
        j, base = self.kraft.search_with_prefix(b)
        if j > self.l_max:
            raise CorruptStreamError("peeked bits fall outside the coded range" if self.size
                                     else "coded flag with no matching codeword")
        self.coded += 1
        rec = self.lists[j][(b - base) >> (self.l_max - j)]
        self.peeks[b] = (self.epoch, rec, self.kraft.touches - t)
        return rec

    def check(self, d) -> None:
        """Validate consistency, counting no touches; d must hold each record (test hook)."""
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
        touches, tree_total = self.kraft.touches, self.kraft.total()
        self.kraft.touches = touches
        if total != self.kraft_total or total != tree_total:
            raise InternalInconsistencyError("Kraft total out of sync")
        if size != self.size:
            raise InternalInconsistencyError("size out of sync")
        if total > self.capacity:
            raise InternalInconsistencyError("Kraft sum exceeds capacity")
