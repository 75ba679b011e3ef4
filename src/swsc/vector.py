"""Block encoder: CoderState's encoding, with the window counted in numpy.

In the encoder only the codebook has to run in input order. A symbol's
window count, and with it whether the symbol is coded and when it crosses a
threshold or a length class, follows from the input alone: a coded record
always sits in the class codeword_length(ell, count), and a count moves by
one per event. So each block of _BLOCK steps is counted in numpy, and only
two things run in Python, in the order of CoderState._steps: the codebook
events (insert, move, remove) and the codeword query of each coded step.
Both touch the same Fenwick nodes as the loop does, so ps_touches and
ps_touches_max_step are read off the codebook, not derived.

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
    """Encode symbols to writer; the same bits and report as CoderState.encode_chunk."""
    params.validate()
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
    n = literals = max_step = max_size = t_prev = 0
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
        after, wsyms, wcounts = _count(ev, delta, wsyms, wcounts)
        ring = seq[max(0, len(seq) - ell):]
        fe, fa = after[0::2], after[1::2]  # counts after each step's two events
        evicts = np.arange(size) >= first
        fb = fa - 1 + (evicts & (ev[0::2] == blk))  # the incoming count before the step
        # the codebook events: a count falling below the threshold or into a
        # longer class, then one reaching it or a shorter class
        e_kind = np.where(fe == threshold - 1, 1, 0)
        e_kind[(fe >= threshold) & np.isin(fe + 1, crossings)] = 2
        e_kind[~evicts] = 0
        a_kind = np.where(fa == threshold, 1, 0)
        a_kind[(fa > threshold) & np.isin(fa, crossings)] = 2
        steps = np.flatnonzero(e_kind | a_kind)
        queries = np.flatnonzero(fb >= threshold)
        qsyms = blk[queries].tolist()
        nq = len(qsyms)
        # queries before each event step; the sentinel runs the rest
        stops = np.searchsorted(queries, steps).tolist() + [nq]
        events = zip(stops, steps.tolist() + [size], e_kind[steps].tolist() + [0],
                     ev[2 * steps].tolist() + [0], a_kind[steps].tolist() + [0],
                     blk[steps].tolist() + [0])
        qsteps = queries.tolist() + [size]
        values = []
        push = values.append
        k = 0
        for stop, s, ek, e, ak, a in events:
            for sym in qsyms[k:stop]:
                rec = get(sym)
                value, j = codeword(rec.length, rec.index + 1)
                push((1 << j) | value)  # flag 1 first
                t = kraft.touches
                if t - t_prev > max_step:
                    max_step = t - t_prev
                t_prev = t
            k = stop
            if s == size:
                break
            if qsteps[k] == s:  # the step's own query comes before its events
                rec = get(qsyms[k])
                value, j = codeword(rec.length, rec.index + 1)
                push((1 << j) | value)
                k += 1
            if ek == 1:
                remove(pop(e))
            elif ek == 2:
                rec = get(e)
                move(rec, rec.length + 1)
            if ak == 1:
                rec = coded[a] = CodeRecord(None, a)  # the count is in numpy
                insert(rec, insert_length)
            elif ak == 2:
                rec = get(a)
                move(rec, rec.length - 1)
            t = kraft.touches
            if t - t_prev > max_step:
                max_step = t - t_prev
            t_prev = t
            if cb.size > max_size:
                max_size = cb.size
        # a literal is flag 0 then the width-bit symbol; a codeword's length
        # is its count's class, the number of bounds down[j] above the count
        vals = blk.astype(np.uint64)
        lens = np.full(size, params.width + 1, np.int64)
        vals[queries] = values
        lens[queries] = 1 + len(crossings) - np.searchsorted(ascending, fb[queries], "right")
        _emit(writer.write_bits, vals, lens)
        n += size
        literals += size - nq
    return make_report(params, n, writer.bit_length - start, literals, max_size,
                       kraft.touches, max_step)


def _checked(chunk, sigma, position, dtype):
    """chunk as an array of dtype, rejected as CoderState.encode_chunk rejects it."""
    if isinstance(chunk, np.ndarray) and chunk.dtype.kind in "iu":
        if len(chunk) and (chunk.min() < 0 or chunk.max() >= sigma):
            check_symbols(chunk.tolist(), sigma, position)  # raises
        return chunk.astype(dtype)
    if hasattr(chunk, "tolist"):  # array.array, memoryview or a float array
        chunk = chunk.tolist()
    check_symbols(chunk, sigma, position)
    return np.fromiter(chunk, dtype, len(chunk))


def _count(ev, delta, wsyms, wcounts):
    """Window counts after each event, and the window's (symbols, counts) after all.

    A stable sort groups the events by symbol in time order, so a running
    sum within each group, started from the symbol's count in the window,
    gives the count after every event.
    """
    order = np.argsort(ev, kind="stable")
    syms, d = ev[order], delta[order]
    heads = np.empty(len(syms), bool)
    heads[0] = True
    np.not_equal(syms[1:], syms[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    gsyms = syms[starts]
    k = np.searchsorted(wsyms, gsyms)
    if len(wsyms):
        kc = np.minimum(k, len(wsyms) - 1)
        known = wsyms[kc] == gsyms
        base = np.where(known, wcounts[kc], 0)
    else:
        known = np.zeros(len(gsyms), bool)
        base = np.zeros(len(gsyms), np.int64)
    run = np.cumsum(d)
    offset = base - run[starts] + d[starts]  # group base less the sum before it
    after = np.empty(len(syms), np.int64)
    after[order] = run + np.repeat(offset, np.diff(starts, append=len(syms)))
    final = run[np.append(starts[1:], len(syms)) - 1] + offset
    wcounts = wcounts.copy()
    wcounts[k[known]] = final[known]
    new = ~known
    wsyms = np.insert(wsyms, k[new], gsyms[new])
    wcounts = np.insert(wcounts, k[new], final[new])
    live = wcounts > 0
    return after, wsyms[live], wcounts[live]


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
