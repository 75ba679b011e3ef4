"""Block encoder and decoder: CoderState's coding, with the window counted in numpy.

In the encoder only the codebook has to run in input order. A symbol's
window count, and with it whether the symbol is coded and when it crosses a
threshold or a length class, follows from the input alone: a coded record
always sits in the class codeword_length(ell, count), and a count moves by
one per event. So BlockEncoder counts each block, one encode_chunk call,
in numpy, the carried window entering as leading events, and only the
codebook work runs in Python: one
time-ordered action list, in the order of CoderState._steps (each step's
codeword query, then its evicted and its incoming symbol's insert, move or
remove), closing each step with Codebook.end_step. It answers and credits
queries as the loop does, so the codebook's counters, and with them every
report field but n and the bits, come out the same.

While the codebook is empty every code is a flag 0 and a width-bit literal,
so swsc.coder's LiteralPrefix codes the chunks before the first insert
whole, on both sides, and with numpy loaded it takes block_literals' kernels.
read and prove show a chunk literals by _skip's rule, the pure-Python one:
read takes its codes as fixed fields, prove screens its symbols, and write
packs them once the prefix has committed the window. The prefix hands the
first chunk not proved to the loop to decode and to BlockEncoder to encode.

Working memory is O(ell + block): the window ring holds 1, 2 or 4 bytes per
slot and the distinct window symbols sit in sorted arrays, never in an array
indexed by symbol. Symbols are only compared and sorted, never combined into
wider keys, so sigma up to 2**32 - 1 cannot overflow. Both carry their
state from call to call, so swsc.coder's Encoder and Decoder can feed them
a stream piece by piece.

swsc.coder imports this module, and numpy with it, only when numpy is
already loaded; the CLI and `import swsc` never do.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitio import WRITE_BATCH
from .codebook import Codebook, codeword_length, length_bounds
from .coder import all_ints, check_symbols, make_report
from .dictionary import CodeRecord, symbol_model_bytes

class BlockEncoder:
    """CoderState.encode_chunk's bits and reports, the window counted in numpy.

    Each call is one counted block: LiteralPrefix codes the chunks before the
    first insert, then hands off through resume_after_literals, which comes
    before the first call. The window, the codebook and the coded records
    carry from call to call, so any split of a stream into calls gives the
    same bits and reports. A block's codebook work is one time-ordered action
    list, run in one loop; a query answered from Codebook.bases is credited,
    not closed, and billed before the call returns its report.
    """

    def __init__(self, params):
        self.params = params
        self._dtype = np.dtype(f"u{symbol_model_bytes(params.sigma)}")
        down, _ = length_bounds(params.ell, params.l_max)
        # a count reaching one of these leaves its length class: f is in class j
        # iff down[j] <= f < down[j - 1]
        self._crossings = np.array(down, dtype=np.int64)
        self._insert_length = codeword_length(params.ell, params.threshold)
        self.codebook = Codebook(params.l_max)
        self._coded = {}  # symbol -> record, for coded symbols only

    def resume_after_literals(self, position, window):
        """Take a new encoder past position literals, window the last ell of them."""
        self._ring = np.asarray(window, self._dtype)  # the window's last ell symbols, oldest first
        self._counts = np.unique(self._ring, return_counts=True)  # as _slide takes them
        self.position, self._bits = position, position * (self.params.width + 1)

    def encode_chunk(self, symbols, writer):
        """Encode symbols to writer as one block; returns the report of all encoded so far.

        A symbol the encoder rejects raises before any symbol is coded.
        """
        params = self.params
        ell, threshold, w1 = params.ell, params.threshold, params.width + 1
        crossings, insert_length = self._crossings, self._insert_length
        cb = self.codebook
        insert, remove, move, codeword, end_step, bases, stamps = (
            cb.insert, cb.remove, cb.move, cb.codeword, cb.end_step, cb.bases, cb.stamps)
        hits = spent = 0  # queries answered from current bases entries, and their touches
        coded = self._coded
        get, pop = coded.__getitem__, coded.pop
        start = writer.bit_length
        blk = _checked(symbols, params.sigma, self.position, self._dtype)
        size = len(blk)
        if size:
            self._ring, self._counts, gone, evicts, fe, fa = _slide(
                self._ring, self._counts, blk, ell)
            fb = fa - 1 + (evicts & (gone == blk))  # the incoming count before the step
            # each step's actions, coded 0 for none: 1 its codeword query; then
            # 2 or 3 when the evicted count falls below the threshold or into a
            # longer class; then 4 or 5 when the incoming one reaches the
            # threshold or a shorter class
            queried = fb >= threshold
            e_kind = np.where(fe == threshold - 1, 2, 0)
            e_kind[(fe >= threshold) & np.isin(fe + 1, crossings)] = 3
            e_kind[~evicts] = 0
            a_kind = np.where(fa == threshold, 4, 0)
            a_kind[(fa > threshold) & np.isin(fa, crossings)] = 5
            # row-major, action 3 * step + phase sits at that index, in time order
            acts = np.stack((queried, e_kind, a_kind), axis=1).ravel()
            at = np.flatnonzero(acts)
            syms = np.stack((blk, gone, blk), axis=1).ravel()[at]
            last = np.append(np.diff(at // 3) > 0, True)  # a step's last action
            values = []
            push = values.append
            for act, sym, end in zip(acts[at].tolist(), syms.tolist(), last.tolist()):
                if act == 1:
                    rec = get(sym)
                    j = rec.length
                    e, base, t = bases[j]
                    if e == stamps[j]:  # no event since that moves class j: no tree reads
                        push((1 << j) | (base + rec.index))  # flag 1 first
                        hits, spent = hits + 1, spent + t
                        if not end:  # an event follows: bill the query to the step it ends
                            cb.credit(hits, spent, t)
                            hits = spent = 0
                        continue  # no end_step: a step of this query alone is credited whole
                    push((1 << j) | codeword(rec))
                elif act == 2:
                    remove(pop(sym))
                elif act == 3:
                    rec = get(sym)
                    move(rec, rec.length + 1)
                elif act == 4:
                    rec = coded[sym] = CodeRecord(None, sym)  # the count is in numpy
                    insert(rec, insert_length)
                else:
                    rec = get(sym)
                    move(rec, rec.length - 1)
                if end:
                    end_step()
            # a literal is flag 0 then the width-bit symbol; a code is flag 1 then
            # its codeword, at most 33 bits, so frexp gives its exact bit length
            vals = blk.astype(np.uint64)
            lens = np.full(size, w1, np.int64)
            vals[queried] = values
            lens[queried] = np.frexp(vals[queried])[1]
            _emit(writer.write_bits, vals, lens)
        cb.credit(hits, spent)
        self.position += size
        self._bits += writer.bit_length - start
        return make_report(params, self.position, self._bits, cb)


def block_literals(params):
    """LiteralPrefix's read, prove and write kernels, in numpy.

    read slices a chunk's codes as fixed fields, and prove screens a chunk's
    symbols by _checked; both prove the chunk literals by _skip, from the
    prefix's array ring at first, and hand it back with the window after it.
    write packs a proved chunk by _emit, in write_bits calls.
    """
    sigma, ell, threshold, w1 = params.sigma, params.ell, params.threshold, params.width + 1
    dtype = np.dtype(f"u{symbol_model_bytes(sigma)}")

    def read(window, reader, count):
        lits = _literals(reader, count, w1, sigma, dtype)
        after = None if lits is None else _skip(window, lits, ell, threshold)
        return None if after is None else (lits.tolist(), after)

    def prove(window, symbols, position):
        blk = _checked(symbols, sigma, position, dtype)
        after = _skip(window, blk, ell, threshold)
        return None if after is None else (blk, after)

    def write(blk, writer):
        if len(blk):  # _emit takes at least one code
            _emit(writer.write_bits, blk.astype(np.uint64), np.full(len(blk), w1, np.int64))

    return read, prove, write


def _literals(reader, count, w1, sigma, dtype):
    """The w1-bit fields of reader's next count codes as dtype, or None if any is no literal.

    A code is a literal when its field, the flag bit then the width-bit
    value, is below sigma: sigma <= 2**width, so one comparison checks both.
    The caller has checked that the codes lie in the payload. Reads only the
    bytes those codes span.
    """
    pos = reader.position
    lo, hi = pos >> 3, (pos + count * w1 + 7) >> 3
    # a field spans at most 40 bits from its first byte, 7 + 33: each is read as 8 bytes
    buf = np.zeros(hi - lo + 8, np.uint8)
    buf[:hi - lo] = np.frombuffer(reader.data[lo:hi], np.uint8)
    at = np.arange(count, dtype=np.uint64) * np.uint64(w1) + np.uint64(pos & 7)
    v = sliding_window_view(buf, 8)[at >> np.uint64(3)].view(">u8")[:, 0]
    v = (v >> (np.uint64(64 - w1) - (at & np.uint64(7)))) & np.uint64((1 << w1) - 1)
    return None if (v >= sigma).any() else v.astype(dtype)


def _checked(chunk, sigma, position, dtype):
    """chunk as an array of dtype, rejected as CoderState.encode_chunk rejects it.

    A list of ints is screened in one numpy pass; any other chunk, or one the
    screen fails, goes to check_symbols, which owns every rejection.
    """
    if type(chunk) is list and all_ints(chunk):
        try:
            chunk = np.fromiter(chunk, np.int64, len(chunk))
        except (OverflowError, TypeError):  # beyond int64, or no int: check_symbols rejects it
            pass
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu":
        if len(chunk) and (chunk.min() < 0 or chunk.max() >= sigma):
            check_symbols(chunk, sigma, position)  # raises
        return chunk.astype(dtype)
    chunk = check_symbols(chunk, sigma, position)
    return np.fromiter(chunk, dtype, len(chunk))


def _skip(window, blk, ell, threshold):
    """The window (ring, bound) after the steps blk if none can insert, else None.

    ring holds the window's last ell symbols, oldest first, and no window
    count exceeds bound. No step inserts when no symbol's count in the ring
    plus its count in blk reaches the threshold: the bound plus the most
    times one symbol occurs in blk proves that, and when it cannot, one
    count of the ring and blk together decides it.
    """
    ring, bound = window
    seq = np.concatenate((ring, blk))
    bound += _most(blk)
    if bound >= threshold and len(ring):  # recount; an empty ring adds nothing
        bound = _most(seq)
    return None if bound >= threshold else (seq[-ell:], bound)


def _most(a):
    """The most times one value occurs in the array a; 0 if a is empty."""
    # stable is a radix sort for 8- and 16-bit values but a 20x slower timsort for 32
    a = np.sort(a, kind="stable" if a.itemsize < 4 else None)
    heads = np.flatnonzero(np.append(True, a[1:] != a[:-1]))
    return int(np.diff(heads, append=len(a)).max())


def _slide(ring, counts, blk, ell):
    """Slide the window over the steps blk; returns the next ring and counts, then per
    step its evicted symbol, whether it evicts and the evicted and incoming counts after it.

    ring holds the window's last ell symbols, oldest first; counts is its
    distinct symbols, ascending, with how often each occurs. A step that
    evicts nothing names its incoming symbol as the evicted one.
    """
    wsyms, wcounts = counts
    size = len(blk)
    seq = np.concatenate((ring, blk))
    first = max(0, ell - len(ring))  # the first step that evicts
    # two events per step, in time order: the evicted symbol loses one
    # occurrence, then the incoming one gains one. A step that evicts
    # nothing gets a no-op event on its incoming symbol.
    ev = np.repeat(blk, 2)
    delta = np.ones(2 * size, np.int64)
    delta[0::2] = 0
    if first < size:
        ev[2 * first::2] = seq[len(ring) + first - ell:len(seq) - ell]
        delta[2 * first::2] = -1
    after, wsyms, wcounts = _count(wsyms, wcounts, ev, delta)
    return (seq[max(0, len(seq) - ell):], (wsyms, wcounts), ev[0::2], np.arange(size) >= first,
            after[0::2], after[1::2])


def _count(wsyms, wcounts, ev, delta):
    """Window counts after each event, and the window's (symbols, counts) after all.

    The window (wsyms, wcounts) enters as one leading event per distinct
    symbol, whose delta is that symbol's count. A stable sort groups all
    events by symbol in time order, so a running sum within each group gives
    the count after every event, and each group's sum, kept when above 0,
    gives the next window.
    """
    syms = np.concatenate((wsyms, ev))
    order = np.argsort(syms.astype(np.uint16) if syms.itemsize == 4 else syms, kind="stable")
    if syms.itemsize == 4:  # a stable 32-bit sort is timsort: radix the high half after the low
        order = order[np.argsort((syms[order] >> 16).astype(np.uint16), kind="stable")]
    syms, d = syms[order], np.concatenate((wcounts, delta))[order]
    starts = np.flatnonzero(np.append(True, syms[1:] != syms[:-1]))  # group heads
    final = np.add.reduceat(d, starts)
    d[starts[1:]] -= final[:-1]  # so one running sum restarts at each group
    after = np.empty(len(syms), np.int64)
    after[order] = np.cumsum(d)
    live = final > 0
    return after[len(wsyms):], syms[starts[live]], final[live]


def _emit(write, vals, lens):
    """Write code i, the lens[i]-bit value vals[i], in order, in WRITE_BATCH-bit calls.

    Each code is shifted into the batch its first bit falls in; a code that
    runs past the end of that batch spills its low bits into the next one.
    Codes are at most 33 bits, so every batch but a spilled-into last one
    has a first bit of some code.
    """
    end = np.cumsum(lens)
    total = int(end[-1])
    batch = (end - lens) // WRITE_BATCH
    room = (batch + 1) * WRITE_BATCH - end  # bits left in the batch after the code
    spill = room < 0
    shift_left = np.where(spill, 0, room).astype(np.uint64)
    shift_right = np.where(spill, -room, 0).astype(np.uint64)
    heads = np.flatnonzero(np.diff(batch, prepend=-1))
    out = np.zeros(-(-total // WRITE_BATCH), np.uint64)
    out[:len(heads)] = np.bitwise_or.reduceat((vals << shift_left) >> shift_right, heads)
    s = shift_right[spill]
    out[batch[spill] + 1] |= ((vals[spill] & ((np.uint64(1) << s) - np.uint64(1)))
                              << (np.uint64(WRITE_BATCH) - s))
    out = out.tolist()
    last = out.pop()
    for v in out:
        write(v, WRITE_BATCH)
    tail = total - WRITE_BATCH * len(out)
    write(last >> (WRITE_BATCH - tail), tail)
