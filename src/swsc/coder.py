"""Sliding-window adaptive Shannon coder and its stream format.

Each symbol is encoded against the window of the previous ell symbols: a
symbol whose window frequency reaches the threshold gets a flag bit 1 plus
its canonical Shannon codeword; any other symbol gets a flag bit 0 plus its
plain width-bit index. Encoder and decoder then apply the same window update,
so both sides maintain identical state in lockstep.

Stream layout: a fixed little-endian header, then the MSB-first bit payload
zero-padded to a byte boundary.

    magic      4 bytes  b"SWSC"
    version    u8       1
    backend    u8       0 = trie, 1 = hashed: the dictionary sigma selects;
                        decode accepts either and never reads it to choose
    sigma      u32
    ell        u32      frozen window length
    threshold  u32      frozen frequency threshold
    l_max      u8       frozen maximum codeword length
    width      u8       frozen literal width
    n          u64      number of symbols
    lambda     f64      lambda (informational)
    c          u32      window scale knob (informational)

The decoder trusts the frozen header fields; it never re-derives them. A
stream must end with the payload's zero padding: trailing bytes or a set pad
bit are corrupt.

Raw symbol files are fixed-width little-endian unsigned integers of 1, 2 or
4 bytes per symbol, the smallest width covering sigma - 1.

Every whole stream goes through Encoder and Decoder, which code it piece by
piece: encode_stream feeds an Encoder its whole input, the CLI a file's
symbols a chunk at a time, and decode_stream and the CLI iterate a Decoder,
which reads any source's payload one chunk's span at a time. Both code
_CHUNK symbols at a time. Encode and decode each have two paths, which give
the same bytes, symbols, reports and errors. CoderState._steps is the online
loop, and the stepping API runs on it. When numpy is already imported,
Encoder hands each chunk to the block encoder in swsc.vector, which counts
the window in numpy and runs only the codebook in Python. Otherwise, as in
the CLI, and in Decoder either way, LiteralPrefix codes a chunk as fixed
fields while no symbol's count in the window plus its count in the chunk
reaches the threshold, counting in pure Python or, when numpy is loaded, in
swsc.vector; the loop codes the first chunk that is not, from its first
symbol, and the rest. Both read a repeat query's answer off the codebook
until an event at its length class or below.
"""

import io
import struct
import sys
from array import array
from collections import Counter, deque

from .bitio import WRITE_BATCH, BitReader, BitWriter, read_fields, window
from .codebook import NO_PEEK, Codebook, codeword_length, length_bounds
from .dictionary import (BACKENDS, CodeRecord, TrieDictionary, choose_backend,
                         make_dictionary, symbol_model_bytes)
from .errors import CorruptStreamError, ParameterError
from .params import CoderParams

MAGIC = b"SWSC"
VERSION = 1
_HEADER = struct.Struct("<4sBBIIIBBQdI")
HEADER_BYTES = _HEADER.size

# symbols per loop call and per Decoder chunk, so a stream is coded holding
# O(ell + _CHUNK) Python objects, not O(n)
_CHUNK = 1 << 14


class CoderState:
    """Window, dictionary and codebook evolving in encoder/decoder lockstep."""

    def __init__(self, params: CoderParams, backend: str | None = None):
        self.params = params
        self.dictionary = make_dictionary(backend, params.sigma)
        self.codebook = Codebook(params.l_max)
        self._buf = deque(maxlen=params.ell)  # window records, oldest first
        self._spare = []  # records the window dropped, for the next new symbols
        self.position = 0  # symbols processed
        self._bits = 0  # payload bits, carried across chunks for the report

    def resume_after_literals(self, position: int, window) -> None:
        """Take a new state to where position symbols, all literals, leave it.

        window holds the last min(position, ell) of those symbols, oldest
        first. No symbol may occur threshold times in it, or it would have
        been coded: the codebook stays empty. LiteralPrefix hands off to the
        loop through this.
        """
        p = self.params
        window = check_symbols(window, p.sigma, position - len(window))
        if self.position or len(window) != min(position, p.ell):
            raise ParameterError(f"resume_after_literals takes a new state and the "
                                 f"last {min(position, p.ell)} of {position} symbols")
        counts = Counter(window)
        if counts and max(counts.values()) >= p.threshold:
            raise ParameterError("a window symbol reaches the threshold")
        records = {a: CodeRecord(f, a) for a, f in counts.items()}
        for a, rec in records.items():
            self.dictionary.put(a, rec)
        self._buf.extend(records[a] for a in window)
        self.position, self._bits = position, position * (p.width + 1)

    def window_contents(self) -> list[int]:
        """Window symbols oldest to newest (test and audit hook)."""
        return [rec.sym for rec in self._buf]

    def step_update(self, a: int) -> None:
        """Encode symbol a to a discarded writer; the report still counts it."""
        self.encode_chunk([a], BitWriter())

    def encode_chunk(self, symbols, writer: BitWriter) -> "CoderReport":
        """Encode symbols to writer; returns the report of all encoded so far.

        Any split of a sequence into chunks gives the same bits and report.
        """
        start = writer.bit_length
        self._steps(symbols, len(symbols), writer=writer)
        self._bits += writer.bit_length - start
        return self._report()

    def decode_chunk(self, reader: BitReader, count: int) -> tuple[list, "CoderReport"]:
        """Decode count symbols from reader; returns them and the report so far."""
        if count < 0:
            raise ParameterError(f"cannot decode {count} symbols")
        start = reader.position
        out = self._steps(None, count, reader=reader)
        self._bits += reader.position - start
        return out, self._report()

    def _report(self):
        return make_report(self.params, self.position, self._bits, self.codebook)

    def _steps(self, symbols, count, writer=None, reader=None):
        """The one coding loop behind encode_chunk and decode_chunk.

        Each step emits symbols[i] to writer, or decodes the symbol from
        reader. Then the window slides over it in a fixed order, which both
        ends of the stream must replay identically for codebook offsets to
        agree: ring, evicted symbol, incoming symbol. When the evicted symbol
        is the incoming one, the same steps run and cancel arithmetically.

        The ring is a deque bounded at ell that holds each window symbol's
        record, so the evicted record, buf[0] once the ring is full, needs no
        lookup; a record is dropped only when no slot holds it, and kept for
        the next symbols that enter: a CodeRecord is made only when none is
        kept. The trie's tables are edited in place, with no call; hashed
        put and delete stay calls, as they keep its capacity model. A coded
        record moves one length class when its frequency crosses a bound of
        length_bounds, so codeword_length runs only on insert. The codebook
        checks the Kraft bound itself on every insert and move, the only
        updates that raise the sum, and rejects a class outside 0..l_max.
        The codebook counts coded symbols and closes each step that touched
        it. A query whose cb.bases or cb.peeks entry holds its class's current
        stamp reads no tree and is credited when its step has an event or the
        chunk ends. The bit window lives in locals and is written back when
        the chunk ends. Returns the decoded symbols when decoding.
        """
        p = self.params
        sigma, width, l_max = p.sigma, p.width, p.l_max
        ell, threshold = p.ell, p.threshold
        down, up = length_bounds(ell, l_max)
        w1 = width + 1  # a literal: flag 0 then the plain index
        d = self.dictionary
        if isinstance(d, TrieDictionary):
            root, shift, csize = d.tables
            low, empty = csize - 1, [None] * csize + [0]  # read where no child is; never written
        else:
            root, lookup, put, delete = None, d.lookup, d.put, d.delete
        spare = self._spare
        keep, take = spare.append, spare.pop
        cb = self.codebook
        insert, remove, move, end_step = cb.insert, cb.remove, cb.move, cb.end_step
        stamps = cb.stamps  # updated in place by the events
        hits, spent, hit_at = 0, 0, -1  # answers read off the codebook, their touches, last step
        buf = self._buf
        push = buf.append  # once the ring is full, this drops buf[0]
        room = ell - len(buf)  # steps i >= room find the ring full
        decoding = reader is not None
        out = [] if decoding else None
        if decoding:
            append, cb_decode, peeks = out.append, cb.decode, cb.peeks
            data, pos, limit = reader.data, reader.position, reader.limit
            win = hi = 0  # the bit window, as bitio.window loads it
            half, lit_mask = 1 << width, (1 << w1) - 1
            b_shift, b_mask = width - l_max, (1 << l_max) - 1
        else:
            # the chunk is rejected before any of it is coded
            symbols = check_symbols(symbols, sigma, self.position)
            codeword, write, bases = cb.codeword, writer.write_bits, cb.bases
            wacc = wbits = 0
        i = 0
        try:
            for i in range(count):
                if decoding:
                    if hi - pos < w1:
                        win, hi = window(data, pos)
                    v = (win >> (hi - pos - w1)) & lit_mask
                    if v < half:  # a literal
                        pos += w1
                        if pos > limit:
                            raise CorruptStreamError("bit stream truncated")
                        if v >= sigma:
                            raise CorruptStreamError(
                                f"literal {v} out of range for sigma {sigma}")
                        a, touched = v, False
                        rec = lookup(a) if root is None else (root[a >> shift] or empty)[a & low]
                    else:
                        b = (v >> b_shift) & b_mask
                        h, e, rec, t = peeks.get(b, NO_PEEK)
                        if e == stamps[h]:  # no event since that moves class h: no tree reads
                            hits, spent = hits + 1, spent + t
                            hit_at, touched = i, False
                        else:
                            rec, touched = cb_decode(b), True
                        a, pos = rec.sym, pos + rec.length + 1
                        if pos > limit:
                            raise CorruptStreamError("bit stream truncated")
                    append(a)
                else:
                    a = symbols[i]
                    rec = lookup(a) if root is None else (root[a >> shift] or empty)[a & low]
                    if rec is not None and rec.length is not None:
                        j = rec.length
                        e, base, t = bases[j]
                        if e == stamps[j]:  # no event since that moves class j: no tree reads
                            hits, spent = hits + 1, spent + t
                            hit_at, touched = i, False
                        else:
                            base, touched = codeword(rec) - rec.index, True
                        v, k = (1 << j) | (base + rec.index), j + 1  # flag 1 first
                    else:
                        v, k, touched = a, w1, False
                    if wbits + k > WRITE_BATCH:
                        write(wacc, wbits)
                        wacc, wbits = v, k
                    else:
                        wacc = (wacc << k) | v
                        wbits += k
                # 1. the ring slides: its oldest slot, when full, is evicted
                if i >= room:
                    # 2. + 3. the evicted symbol loses one occurrence
                    erec = buf[0]
                    f = erec.freq - 1
                    erec.freq = f
                    if f == 0:  # dropped: kept, literal once this step ends
                        s = erec.sym
                        if root is None:
                            delete(s)
                        else:
                            node = root[s >> shift]
                            node[s & low] = None
                            node[csize] -= 1
                            if not node[csize]:
                                root[s >> shift] = None
                        keep(erec)
                        if erec is rec:
                            rec = None  # the record was just dropped
                    length = erec.length
                    if length is not None:
                        if f < threshold:
                            remove(erec)
                            touched = True
                        elif f < down[length]:
                            move(erec, length + 1)
                            touched = True
                # 4. + 5. the incoming symbol gains one
                if rec is None:
                    rec = take() if spare else CodeRecord(0)
                    rec.sym = a
                    if root is None:
                        put(a, rec)
                    else:
                        node = root[a >> shift]
                        if node is None:
                            node = root[a >> shift] = empty.copy()
                        node[a & low] = rec
                        node[csize] += 1
                f = rec.freq + 1
                rec.freq = f
                if f >= threshold:
                    length = rec.length
                    if length is None:
                        insert(rec, codeword_length(ell, f))
                        touched = True
                    elif f >= up[length]:
                        move(rec, length - 1)
                        touched = True
                # the ring takes the incoming record, which 4. may have made
                push(rec)
                # only codebook events and tree queries change the touches
                if touched:
                    if hit_at == i:  # an answered query shares its step with an event
                        cb.credit(hits, spent, t)
                        hits = spent = 0
                    end_step()
        except CorruptStreamError as exc:
            raise CorruptStreamError(f"symbol {self.position + i}: {exc}") from exc
        cb.credit(hits, spent)
        self.position += count
        if decoding:
            reader.position = pos
        elif wbits:
            write(wacc, wbits)
        return out


class CoderReport:
    """Counters from one encoding or decoding run; vars() gives them in order.

    max_code_size        largest coded-symbol set seen
    ps_touches           partial-sums node touches over the run
    ps_touches_max_step  worst single-symbol touch count
    cost_units           sum of 1 + handled codeword length
    """

    def __init__(self, n, payload_bits, payload_bytes, literal_count, coded_count,
                 max_code_size, ps_touches, ps_touches_max_step, cost_units):
        self.n, self.payload_bits, self.payload_bytes = n, payload_bits, payload_bytes
        self.literal_count, self.coded_count = literal_count, coded_count
        self.max_code_size, self.ps_touches = max_code_size, ps_touches
        self.ps_touches_max_step, self.cost_units = ps_touches_max_step, cost_units

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


def make_report(params: CoderParams, n: int, bits: int, codebook: Codebook) -> CoderReport:
    """The report of n symbols in bits payload bits; every other field is the codebook's."""
    literals = n - codebook.coded  # the symbols it answered no query for
    # a step costs 1 + its codeword length: its bits, less a literal's index width
    return CoderReport(n=n, payload_bits=bits, payload_bytes=(bits + 7) // 8,
                       literal_count=literals, coded_count=codebook.coded,
                       max_code_size=codebook.max_size, ps_touches=codebook.kraft.touches,
                       ps_touches_max_step=codebook.max_step,
                       cost_units=bits - literals * params.width)


def check_symbols(symbols, sigma: int, position: int):
    """symbols as a sequence of ints in [0, sigma); anything else is rejected.

    An array.array, numpy array or memoryview comes back as a list. position
    is the stream position of symbols[0]; the error names the first bad
    symbol and its position. A float is rejected even when it is integral.
    """
    if hasattr(symbols, "tolist"):  # array.array, numpy or memoryview
        symbols = symbols.tolist()
    try:  # min and max raise for a symbol that passes all_ints but is no int
        if not symbols or (all_ints(symbols) and min(symbols) >= 0 and max(symbols) < sigma):
            return symbols
    except TypeError:
        pass
    for i, a in enumerate(symbols):
        if not isinstance(a, int):
            raise ParameterError(f"symbol {a!r} at position {position + i} "
                                 f"is not an integer")
        if not 0 <= a < sigma:
            raise ParameterError(f"symbol {a} at position {position + i} "
                                 f"out of range for sigma {sigma}")
    return symbols


def all_ints(symbols) -> bool:
    """check_symbols' int test: whether symbols sum to an int, as ints do."""
    try:
        return type(sum(symbols)) is int
    except TypeError:  # a str, None or the like among them
        return False


def write_header(out, params: CoderParams, n: int) -> None:
    flag = BACKENDS.index(choose_backend(None, params.sigma))
    out.write(_HEADER.pack(MAGIC, VERSION, flag, params.sigma,
                           params.ell, params.threshold, params.l_max, params.width,
                           n, params.lam, params.c))


def read_header(data: bytes) -> tuple[CoderParams, int]:
    """Parse and validate a header; returns (params, n)."""
    if len(data) < HEADER_BYTES:
        raise CorruptStreamError("header truncated")
    (magic, version, backend_flag, sigma, ell, threshold, l_max, width,
     n, lam, c) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptStreamError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptStreamError(f"unsupported version {version}")
    if backend_flag >= len(BACKENDS):
        raise CorruptStreamError(f"unknown backend flag {backend_flag}")
    try:
        params = CoderParams(sigma=sigma, lam=lam, c=c, ell=ell,
                             threshold=threshold, l_max=l_max, width=width)
    except ParameterError as e:
        raise CorruptStreamError(f"inconsistent header: {e}") from e
    return params, n


class LiteralPrefix:
    """A new CoderState's coding, with the chunks before its first insert coded whole.

    While the codebook is empty every code is a flag 0 and a width-bit
    literal, and no step of a chunk inserts if no symbol's count in the
    window plus its count in the chunk reaches the threshold; a bound on the
    window's counts proves that without a count when it can.
    literals(window, reader, count) gives a chunk's symbols and the window
    after it if it proves that, every code such a literal, else None; a
    window's first item ends with its last ell symbols. The first chunk not
    proved commits nothing: the state takes the window at its start, and the
    loop codes the rest, so every byte, report and error is the loop's.
    """

    def __init__(self, state: CoderState, window=None, literals=None):
        self.state, self._n = state, 0  # symbols coded before the hand-off
        self._window = window or (array(_raw_typecode(state.params.sigma, None)), 0)
        self._literals = literals or self._read

    position = property(lambda self: self.state.position if self._window is None else self._n)

    def encode_chunk(self, symbols, writer: BitWriter) -> "CoderReport":
        if self._window is not None:
            p = self.state.params
            symbols = check_symbols(symbols, p.sigma, self._n)
            window = self._advance(self._window, symbols)
            if window is not None:
                writer.write_fields(symbols, p.width + 1)
                return self._commit(window, len(symbols))
            self._hand_off()
        return self.state.encode_chunk(symbols, writer)

    def decode_chunk(self, reader: BitReader, count: int) -> tuple[list, "CoderReport"]:
        if self._window is not None and count:
            got = self._literals(self._window, reader, count)
            if got is not None:
                reader.position += count * (self.state.params.width + 1)
                return got[0], self._commit(got[1], count)
            self._hand_off()
        return self.state.decode_chunk(reader, count)

    def _commit(self, window, count):
        p = self.state.params
        self._window, self._n = window, self._n + count
        return make_report(p, self._n, self._n * (p.width + 1), self.state.codebook)

    def _hand_off(self):
        self.state.resume_after_literals(self._n, self._window[0][-self.state.params.ell:])
        self._window = None

    def _read(self, window, reader, count):
        p = self.state.params
        if reader.position + count * (p.width + 1) <= reader.limit:  # else None
            symbols = read_fields(reader.data, reader.position, count, p.width + 1)
            window = None if max(symbols) >= p.sigma else self._advance(window, symbols)
            return None if window is None else (symbols, window)

    def _advance(self, window, symbols):
        """The window (ring, bound) after symbols if no step can insert, else None."""
        p = self.state.params
        ring, bound = window
        bound += max(Counter(symbols).values(), default=0)
        if bound >= p.threshold and ring:  # recount: no count passes window plus chunk count
            counts = Counter(ring[-p.ell:])
            counts.update(symbols)
            bound = max(counts.values(), default=0)
        if bound >= p.threshold:
            return None
        ring.extend(symbols)
        if len(ring) > 2 * p.ell:  # raw symbols, cut at 2 ell: O(1) amortized per symbol
            del ring[:-p.ell]
        return ring, bound


class Encoder:
    """Encode a stream of n symbols to the binary sink out, fed piece by piece.

    Each feed codes its symbols and writes their whole bytes to out, the header
    before the first; finish writes the last byte and ends the stream. Any
    split of the symbols into feeds writes the same bytes and returns the same
    reports. Each feed is coded _CHUNK symbols at a time: with numpy already
    imported, by the block encoder of swsc.vector, which counts the window in
    numpy and keeps no dictionary; otherwise by LiteralPrefix, as fixed
    fields until a chunk may insert, and then by CoderState's loop, which
    holds O(ell + _CHUNK) Python objects. A
    feed past n symbols, or a finish short of them, raises ParameterError
    and changes nothing. A feed that fails while it codes writes nothing of
    itself. After it, after a failed write to out, or after finish, every
    later feed or finish raises ParameterError and writes nothing.
    """

    def __init__(self, params: CoderParams, out, n: int):
        if not isinstance(n, int) or n < 0:
            raise ParameterError(f"a stream holds a count of symbols, not {n!r}")
        self.params, self.n = params, n
        self._out = out
        self._writer = BitWriter()
        self._report = None  # the report after the last feed
        self._ended = None  # once no feed or finish may follow, why not
        if "numpy" in sys.modules:  # never import numpy just to encode
            from .vector import BlockEncoder

            self._coder = BlockEncoder(params)
        else:
            self._coder = LiteralPrefix(CoderState(params))

    def feed(self, symbols) -> "CoderReport":
        """Encode the next symbols; returns the report of all fed so far."""
        if self._ended:
            raise ParameterError(self._ended)
        total = self._coder.position + len(symbols)
        if total > self.n:
            raise ParameterError(f"{total} symbols fed to a stream of {self.n}")
        code, writer = self._coder.encode_chunk, self._writer
        first = self._report is None
        self._ended = "a feed failed, so the stream cannot go on"  # until it is all out
        if len(symbols) <= _CHUNK:  # one call: no copy of the symbols
            self._report = code(symbols, writer)
        else:
            for lo in range(0, len(symbols), _CHUNK):
                self._report = code(symbols[lo:lo + _CHUNK], writer)
        if first:
            write_header(self._out, self.params, self.n)
        self._out.write(writer.take())
        self._ended = None
        return self._report

    def finish(self) -> "CoderReport":
        """Write the payload's last byte and end the stream; returns its report."""
        if self._ended:
            raise ParameterError(self._ended)
        if self._coder.position != self.n:
            raise ParameterError(f"{self._coder.position} symbols fed to a stream of {self.n}")
        if self._report is None:  # nothing fed: an empty stream
            self.feed([])
        self._ended = "the stream is finished"
        self._out.write(self._writer.finish())
        return self._report


class Decoder:
    """Decode a stream chunk by chunk; iterating yields (symbols, report so far).

    source is a seekable binary file, read from its position, or the
    stream's bytes-like contents, read through an io.BytesIO: it shares a
    bytes object's buffer with no copy and copies any other bytes-like
    once. The header is read when the Decoder is built; params and n are its
    fields. A Decoder is iterated once: a second iteration raises
    ParameterError before it yields. The payload is read one chunk's span at
    a time: no code is longer than width + 1 bits, so a chunk reads at most
    _CHUNK times that, and the decoder holds O(ell + _CHUNK) of the stream
    besides its source.

    Each chunk holds at most _CHUNK symbols; an empty stream yields one
    empty chunk. Every symbol costs at least its flag bit, so a count above
    the payload's bits is rejected before any chunk. The end of the stream
    is checked before the last chunk is yielded, so its report is the whole
    stream's. backend is as for choose_backend, whatever the header's flag
    says, and never changes the result. LiteralPrefix decodes whole chunks
    of literals, in numpy when it is already imported and in pure Python
    otherwise, by one rule: no symbol's count in the window plus its count
    in the chunk reaches the threshold. It hands CoderState the first chunk
    that breaks the rule or holds any other code, and the loop decodes that
    chunk and the rest.
    """

    def __init__(self, source, backend: str | None = None):
        if isinstance(source, (bytes, bytearray, memoryview)):
            source = io.BytesIO(source)
        self.params, self.n = read_header(source.read(HEADER_BYTES))
        self._source, self._backend = source, backend
        self._reader = BitReader(b"", 8 * _bytes_left(source))

    def __iter__(self):
        reader, self._reader = self._reader, None
        if reader is None:
            raise ParameterError("a Decoder is iterated once")
        n = self.n
        if n > reader.limit:
            raise CorruptStreamError(f"{n} symbols cannot fit in {reader.limit} payload bits")
        state = CoderState(self.params, backend=self._backend)
        kernel = ()
        if "numpy" in sys.modules:  # never import numpy just to decode
            from .vector import block_literals

            kernel = block_literals(self.params)
        decode = LiteralPrefix(state, *kernel).decode_chunk
        for lo in range(0, n or 1, _CHUNK):
            count = min(_CHUNK, n - lo)
            self._fill(reader, count)
            symbols, report = decode(reader, count)
            if lo + _CHUNK >= n:
                reader.finish()
            yield symbols, report

    def _fill(self, r, count):
        """Have the reader r's window hold every byte the next count codes can read.

        No code, and no peek of the decode loop, reaches past width + 1 bits
        from its start; bits the bit window reads beyond those are masked off.
        """
        end = min(((r.position + count * (self.params.width + 1)) >> 3) + 1, r.limit >> 3)
        want = end - len(r.data)
        if want > 0:
            more = self._source.read(want)
            r.slide(more)
            if len(more) < want:  # the file ended before its size: the stream is cut there
                r.limit = 8 * len(r.data)


def _bytes_left(source) -> int:
    """The bytes from a seekable file's position to its end; the position stays."""
    here = source.tell()
    end = source.seek(0, io.SEEK_END)
    source.seek(here)
    return end - here


def encode_stream(params: CoderParams, symbols, out, backend: str | None = None,
                  seed: int = 0) -> CoderReport:
    """Encode a symbol sequence to the binary sink out; returns the report.

    symbols is any sliceable sequence of ints: a list, array.array or numpy
    array. It goes to an Encoder in one feed, which checks every symbol
    before it writes any byte, so nothing is written to out for a rejected
    input. backend is checked as choose_backend checks it and has no other
    effect: the loop encoder runs the dictionary sigma selects. seed is
    accepted and ignored; it goes with ROADMAP item 1.
    """
    choose_backend(backend, params.sigma)  # a rejected backend raises before coding
    encoder = Encoder(params, out, len(symbols))
    encoder.feed(symbols)
    return encoder.finish()


def encode_to_bytes(params: CoderParams, symbols, backend: str | None = None,
                    seed: int = 0) -> tuple[bytes, CoderReport]:
    """encode_stream to memory; seed is ignored and goes with ROADMAP item 1."""
    out = io.BytesIO()
    report = encode_stream(params, symbols, out, backend=backend)
    return out.getvalue(), report


def decode_stream(data, backend: str | None = None,
                  seed: int = 0) -> tuple[list[int], CoderReport]:
    """Decode a complete stream, given as bytes, back to symbols.

    backend is as for choose_backend, whatever the header's flag says, and
    never changes the result; a rejected one raises before any decoding.
    The Decoder picks the decoder, by whether numpy is loaded. seed is
    accepted and ignored; it goes with ROADMAP item 1.
    """
    symbols = []
    for chunk, report in Decoder(data, backend=backend):
        symbols += chunk
    return symbols, report


def _raw_typecode(sigma: int, sym_bytes: int | None) -> str:
    """The array typecode of raw symbols sym_bytes wide (default: smallest fit)."""
    fit = symbol_model_bytes(sigma)
    sb = fit if sym_bytes is None else sym_bytes
    if sb not in (1, 2, 4):
        raise ParameterError(f"symbol width {sb} bytes is not 1, 2 or 4")
    if sb < fit:
        raise ParameterError(
            f"symbol width {sb} bytes cannot hold symbols up to {sigma - 1}")
    return next(tc for tc in "BHIL" if array(tc).itemsize == sb)


def write_symbols(symbols, sigma: int, sym_bytes: int | None = None) -> bytes:
    """Pack symbols as raw little-endian integers of sym_bytes (default: smallest fit).

    Symbols are rejected as the encoders reject them, by check_symbols.
    """
    arr = array(_raw_typecode(sigma, sym_bytes), check_symbols(symbols, sigma, 0))
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def read_symbol_chunks(source, sigma: int, sym_bytes: int | None = None):
    """(n, chunks): a raw symbol file's symbol count and an iterator over its symbols.

    source is a seekable binary file, read from its position to its end.
    Its length must be a multiple of the symbol width, which is checked
    first; then each chunk of up to _CHUNK symbols is read into an
    array.array, sym_bytes per symbol, and a symbol of sigma or more is
    rejected as the encoders reject it, by check_symbols.
    """
    typecode = _raw_typecode(sigma, sym_bytes)
    width = array(typecode).itemsize
    size = _bytes_left(source)
    if size % width:
        raise ParameterError(f"raw input length {size} is not a multiple of {width} bytes")

    def chunks():
        for lo in range(0, size // width, _CHUNK):
            yield _unpacked(source.read(_CHUNK * width), typecode, sigma, lo)

    return size // width, chunks()


def _unpacked(data, typecode: str, sigma: int, position: int) -> array:
    """The raw symbols data as an array of typecode, the first at the stream's position."""
    arr = array(typecode)
    if len(data) % arr.itemsize:
        raise ParameterError(
            f"raw input length {len(data)} is not a multiple of {arr.itemsize} bytes")
    arr.frombytes(data)
    if sys.byteorder == "big":
        arr.byteswap()
    if arr and max(arr) >= sigma:  # only then are the symbols checked one by one
        check_symbols(arr, sigma, position)
    return arr
