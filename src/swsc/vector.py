"""Block encoder and decoder: CoderState's coding, with the window counted in numpy.

In the encoder only the codebook has to run in input order. A symbol's
window count, and with it whether the symbol is coded and when it crosses a
threshold or a length class, follows from the input alone: a coded record
always sits in the class codeword_length(ell, count), and a count moves by
one per event. So each block of _BLOCK steps is counted in numpy, the
carried window entering as leading events, and only the codebook work runs
in Python: one time-ordered action list, in the order of CoderState._steps
(each step's codeword query, then its evicted and its incoming symbol's
insert, move or remove), closing each step with Codebook.end_step. It
answers and credits queries as the loop does, so the codebook's counters,
and with them every report field but n and the bits, come out the same.

The decoder must run the codebook to parse a code, but while the codebook
is empty every code is a flag 0 and a width-bit literal. So block_decoder
slices a chunk's codes as fixed fields, out of the reader's window of the
payload, and counts the window the same way, and commits the chunk only
when every code is such a literal and no step inserts. The first chunk that
is not commits nothing: a CoderState takes the window at that chunk's
start, and its loop decodes the rest of the stream.

Working memory is O(ell + _BLOCK): the window ring holds 1, 2 or 4 bytes per
slot and the distinct window symbols sit in sorted arrays, never in an array
indexed by symbol. Symbols are only compared and sorted, never combined into
wider keys, so sigma up to 2**32 - 1 cannot overflow. Both carry their
state from call to call, so swsc.coder's Encoder and Decoder can feed them
a stream piece by piece.

swsc.coder imports this module, and numpy with it, only when numpy is
already loaded; the CLI and `import swsc` never do.
"""

import numpy as np

from .bitio import WRITE_BATCH
from .codebook import Codebook, codeword_length, length_bounds
from .coder import check_symbols, make_report
from .dictionary import CodeRecord, symbol_model_bytes

_BLOCK = 1 << 16  # steps counted per numpy pass


class BlockEncoder:
    """CoderState.encode_chunk's bits and reports, the window counted in numpy.

    It carries the window, the codebook and the coded symbols' records from
    one call to the next, so any split of a stream into calls gives the same
    bits and reports. Each call's codebook work is one time-ordered action
    list per block, run in one loop; a query answered from Codebook.bases is
    credited, not closed, and the credits are handed over before the call
    returns its report.
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
        self._window = _empty_window(self._dtype)
        self.position = 0  # symbols encoded
        self._bits = 0  # payload bits, carried across calls for the report

    def encode_chunk(self, symbols, writer):
        """Encode symbols to writer; returns the report of all encoded so far.

        A symbol the encoder rejects raises before its block is coded, so a
        call that raises may have coded the blocks before it.
        """
        params = self.params
        sigma, ell, threshold = params.sigma, params.ell, params.threshold
        crossings, insert_length = self._crossings, self._insert_length
        cb = self.codebook
        insert, remove, move, codeword, end_step, bases = (cb.insert, cb.remove, cb.move,
                                                           cb.codeword, cb.end_step, cb.bases)
        hits = spent = 0  # queries answered from this epoch's entries, and their touches
        coded = self._coded
        get, pop = coded.__getitem__, coded.pop
        start = writer.bit_length
        for lo in range(0, len(symbols), _BLOCK):
            blk = _checked(symbols[lo:lo + _BLOCK], sigma, self.position + lo, self._dtype)
            size = len(blk)
            self._window, gone, evicts, fe, fa = _slide(self._window, blk, ell)
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
                    if e == cb.epoch:  # answered in this epoch: no tree reads
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
            lens = np.full(size, params.width + 1, np.int64)
            vals[queried] = values
            lens[queried] = np.frexp(vals[queried])[1]
            _emit(writer.write_bits, vals, lens)
        cb.credit(hits, spent)
        self.position += len(symbols)
        self._bits += writer.bit_length - start
        return make_report(params, self.position, self._bits, cb)


def block_decoder(state):
    """state.decode_chunk for a new state, with the chunks before the first insert in numpy.

    While the codebook is empty every code is a flag 0 and a width-bit
    literal, so numpy slices a chunk's codes as fixed fields and counts the
    window as BlockEncoder does. It commits a chunk only whole: each of its
    codes such a literal (flag bit 0, a value below sigma, within the
    payload) and no incoming count reaching the threshold, the first
    codebook insert. The first chunk that fails this commits nothing: the
    state takes the window at that chunk's start, once, through
    resume_after_literals, and decodes that chunk and every later one in
    CoderState._steps, so a corrupt stream fails as it does there.
    """
    p = state.params
    sigma, ell, threshold, w1 = p.sigma, p.ell, p.threshold, p.width + 1
    dtype = np.dtype(f"u{symbol_model_bytes(sigma)}")
    window = _empty_window(dtype)
    position = 0  # symbols decoded, all of them literals

    def decode(reader, count):
        nonlocal window, position
        if window is None:  # handed off
            return state.decode_chunk(reader, count)
        lits = _literals(reader, count, w1, sigma)
        if count and lits is not None:  # an empty stream goes to the loop: no empty _slide
            lits = lits.astype(dtype)
            after, _, _, _, fa = _slide(window, lits, ell)
            if fa.max() < threshold:
                window, position = after, position + count
                reader.position += count * w1
                return lits.tolist(), make_report(p, position, position * w1, state.codebook)
        state.resume_after_literals(position, window[0])
        window = None
        return state.decode_chunk(reader, count)

    return decode


def _literals(reader, count, w1, sigma):
    """The w1-bit fields of reader's next count codes, or None if any is no literal.

    A code is a literal when its bits lie in the payload and its field, the
    flag bit then the width-bit value, is below sigma: sigma <= 2**width, so
    one comparison checks both. Reads only the bytes those codes span.
    """
    pos = reader.position
    if pos + count * w1 > reader.limit:
        return None
    lo, hi = pos >> 3, (pos + count * w1 + 7) >> 3
    # a field spans at most 40 bits from its first byte: 7 + 33
    buf = np.zeros(hi - lo + 4, np.uint64)
    buf[:hi - lo] = np.frombuffer(reader.data[lo:hi], np.uint8)
    at = np.arange(count, dtype=np.uint64) * np.uint64(w1) + np.uint64(pos & 7)
    first = at >> np.uint64(3)
    v = buf[first]
    for j in range(1, 5):
        v = (v << np.uint64(8)) | buf[first + np.uint64(j)]
    v = (v >> (np.uint64(40 - w1) - (at & np.uint64(7)))) & np.uint64((1 << w1) - 1)
    return None if (v >= sigma).any() else v


def _checked(chunk, sigma, position, dtype):
    """chunk as an array of dtype, rejected as CoderState.encode_chunk rejects it."""
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu":
        if len(chunk) and (chunk.min() < 0 or chunk.max() >= sigma):
            check_symbols(chunk, sigma, position)  # raises
        return chunk.astype(dtype)
    chunk = check_symbols(chunk, sigma, position)
    return np.fromiter(chunk, dtype, len(chunk))


def _empty_window(dtype):
    """The window before any step, as _slide takes it."""
    return np.empty(0, dtype), np.empty(0, dtype), np.empty(0, np.int64)


def _slide(window, blk, ell):
    """Slide the window over the steps blk; returns the next window and, per step,
    its evicted symbol, whether it evicts and the evicted and incoming counts after it.

    window is (ring, symbols, counts): the last ell symbols, oldest first, and
    its distinct symbols, ascending, with how often each occurs. A step that
    evicts nothing names its incoming symbol as the evicted one.
    """
    ring, wsyms, wcounts = window
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
    window = seq[max(0, len(seq) - ell):], wsyms, wcounts
    return window, ev[0::2], np.arange(size) >= first, after[0::2], after[1::2]


def _count(wsyms, wcounts, ev, delta):
    """Window counts after each event, and the window's (symbols, counts) after all.

    The window (wsyms, wcounts) enters as one leading event per distinct
    symbol, whose delta is that symbol's count. A stable sort groups all
    events by symbol in time order, so a running sum within each group gives
    the count after every event, and each group's sum, kept when above 0,
    gives the next window.
    """
    syms = np.concatenate((wsyms, ev))
    order = np.argsort(syms, kind="stable")
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
