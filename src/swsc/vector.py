"""Block encoder: CoderState's encoding, with the window counted in numpy.

In the encoder only the codebook has to run in input order. A symbol's
window count, and with it whether the symbol is coded and when it crosses a
threshold or a length class, follows from the input alone: a coded record
always sits in the class codeword_length(ell, count), and a count moves by
one per event. So each block of _BLOCK steps is counted in numpy, the
carried window entering as leading events, and only the codebook work runs
in Python: one time-ordered action list, in the order of CoderState._steps
(each step's codeword query, then its evicted and its incoming symbol's
insert, move or remove). It touches the same Fenwick nodes as the loop
does, so ps_touches and ps_touches_max_step are read off the codebook.

Working memory is O(ell + _BLOCK): the window ring holds 1, 2 or 4 bytes per
slot and the distinct window symbols sit in sorted arrays, never in an array
indexed by symbol. Symbols are only compared and sorted, never combined into
wider keys, so sigma up to 2**32 - 1 cannot overflow.

swsc.coder imports this module, and numpy with it, only when numpy is
already loaded; the CLI and `import swsc` never do.
"""

import numpy as np

from .codebook import Codebook, codeword_length, length_bounds
from .coder import _WRITE_BATCH, check_symbols, make_report
from .dictionary import CodeRecord, symbol_model_bytes

_BLOCK = 1 << 16  # steps counted per numpy pass


def encode_blocks(params, symbols, writer):
    """Encode symbols to writer; the same bits and report as CoderState.encode_chunk.

    Each block's codebook work is one time-ordered action list, run in one loop.
    """
    sigma, ell, threshold, l_max = params.sigma, params.ell, params.threshold, params.l_max
    dtype = np.dtype(f"u{symbol_model_bytes(sigma)}")
    down, _ = length_bounds(ell, l_max)
    # a count reaching one of these leaves its length class: f is in class j
    # iff down[j] <= f < down[j - 1]
    crossings = np.array(down, dtype=np.int64)
    ascending = crossings[::-1].copy()
    insert_length = codeword_length(ell, threshold)
    cb = Codebook(l_max)
    insert, remove, move, codeword = cb.insert, cb.remove, cb.move, cb.codeword
    kraft = cb.kraft
    coded = {}  # symbol -> record, for coded symbols only
    get, pop = coded.__getitem__, coded.pop
    ring = np.empty(0, dtype)  # the window, oldest first
    wsyms = np.empty(0, dtype)  # its distinct symbols, ascending ...
    wcounts = np.empty(0, np.int64)  # ... and how often each occurs
    start = writer.bit_length
    literals = max_step = t_prev = 0
    for lo in range(0, len(symbols), _BLOCK):
        blk = _checked(symbols[lo:lo + _BLOCK], sigma, lo, dtype)
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
        ring = seq[max(0, len(seq) - ell):]
        fe, fa = after[0::2], after[1::2]  # counts after each step's two events
        evicts = np.arange(size) >= first
        fb = fa - 1 + (evicts & (ev[0::2] == blk))  # the incoming count before the step
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
        syms = np.stack((blk, ev[0::2], blk), axis=1).ravel()[at]
        last = np.append(np.diff(at // 3) > 0, True)  # a step's last action
        values = []
        push = values.append
        for act, sym, end in zip(acts[at].tolist(), syms.tolist(), last.tolist()):
            if act == 1:
                rec = get(sym)
                push((1 << rec.length) | codeword(rec))  # flag 1 first
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
                t = kraft.touches
                if t - t_prev > max_step:
                    max_step = t - t_prev
                t_prev = t
        # a literal is flag 0 then the width-bit symbol; a codeword's length
        # is its count's class, the number of bounds down[j] above the count
        vals = blk.astype(np.uint64)
        lens = np.full(size, params.width + 1, np.int64)
        vals[queried] = values
        lens[queried] = 1 + len(crossings) - np.searchsorted(ascending, fb[queried], "right")
        _emit(writer.write_bits, vals, lens)
        literals += size - len(values)
    bits = writer.bit_length - start
    return make_report(params, len(symbols), bits, literals, cb, max_step)


def _checked(chunk, sigma, position, dtype):
    """chunk as an array of dtype, rejected as CoderState.encode_chunk rejects it."""
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu":
        if len(chunk) and (chunk.min() < 0 or chunk.max() >= sigma):
            check_symbols(chunk, sigma, position)  # raises
        return chunk.astype(dtype)
    chunk = check_symbols(chunk, sigma, position)
    return np.fromiter(chunk, dtype, len(chunk))


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
    """Write code i, the lens[i]-bit value vals[i], in order, in _WRITE_BATCH-bit calls.

    Each code is shifted into the batch its first bit falls in; a code that
    runs past the end of that batch spills its low bits into the next one.
    Codes are at most 33 bits, so every batch but a spilled-into last one
    has a first bit of some code.
    """
    end = np.cumsum(lens)
    total = int(end[-1])
    batch = (end - lens) // _WRITE_BATCH
    room = (batch + 1) * _WRITE_BATCH - end  # bits left in the batch after the code
    spill = room < 0
    shift_left = np.where(spill, 0, room).astype(np.uint64)
    shift_right = np.where(spill, -room, 0).astype(np.uint64)
    heads = np.flatnonzero(np.diff(batch, prepend=-1))
    out = np.zeros(-(-total // _WRITE_BATCH), np.uint64)
    out[:len(heads)] = np.bitwise_or.reduceat((vals << shift_left) >> shift_right, heads)
    s = shift_right[spill]
    out[batch[spill] + 1] |= ((vals[spill] & ((np.uint64(1) << s) - np.uint64(1)))
                              << (np.uint64(_WRITE_BATCH) - s))
    out = out.tolist()
    last = out.pop()
    for v in out:
        write(v, _WRITE_BATCH)
    tail = total - _WRITE_BATCH * len(out)
    write(last >> (_WRITE_BATCH - tail), tail)
