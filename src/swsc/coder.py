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
    backend    u8       0 = trie, 1 = hashed (informational)
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
"""

import io
import struct
from dataclasses import dataclass

import numpy as np

from .bitio import BitReader, BitWriter
from .codebook import Codebook
from .dictionary import CodeRecord, make_dictionary, symbol_model_bytes
from .errors import CorruptStreamError, InternalInconsistencyError, ParameterError
from .params import CoderParams

MAGIC = b"SWSC"
VERSION = 1
_HEADER = struct.Struct("<4sBBIIIBBQdI")
HEADER_BYTES = _HEADER.size

_BACKEND_FLAGS = {"trie": 0, "hashed": 1}
_BACKEND_NAMES = {0: "trie", 1: "hashed"}

_WRITE_BATCH = 63  # most bits per write_bits call; batches fit a signed 64-bit int
_READ_BYTES = 16  # payload bytes the decoder loads into its bit window at a time


class CoderState:
    """Window, dictionary and codebook evolving in encoder/decoder lockstep."""

    def __init__(self, params: CoderParams, backend: str = "trie", seed: int = 0):
        params.validate()
        self.params = params
        self.dictionary = make_dictionary(backend, params.sigma, seed=seed)
        self.codebook = Codebook(params.l_max)
        self._buf = [0] * params.ell  # ring buffer, head = oldest when full
        self._len = 0
        self._head = 0
        self.position = 0  # symbols processed
        # report counters carried across chunks: payload bits, literals, the
        # worst single-step partial-sums touches, the largest coded-symbol set
        self._bits = self._literals = self._max_step = self._max_size = 0

    def window_contents(self) -> list[int]:
        """Window symbols oldest to newest (test and audit hook)."""
        if self._len < self.params.ell:
            return self._buf[: self._len]
        h = self._head
        return self._buf[h:] + self._buf[:h]

    @property
    def window_len(self) -> int:
        return self._len

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
        start = reader.position
        out = self._steps(None, count, reader=reader)
        self._bits += reader.position - start
        return out, self._report()

    def _report(self):
        # a step costs 1 + its codeword length: its bits, less a literal's index width
        bits = self._bits
        return CoderReport(n=self.position, payload_bits=bits,
                           payload_bytes=(bits + 7) // 8,
                           literal_count=self._literals,
                           coded_count=self.position - self._literals,
                           max_code_size=self._max_size,
                           ps_touches=self.codebook.kraft.touches,
                           ps_touches_max_step=self._max_step,
                           cost_units=bits - self._literals * self.params.width)

    def _steps(self, symbols, count, writer=None, reader=None):
        """The one coding loop behind encode_chunk and decode_chunk.

        Each step emits symbols[i] to writer, or decodes the symbol from
        reader. Then the window slides over it in a fixed order, which both
        ends of the stream must replay identically for codebook offsets to
        agree: ring, evicted symbol, incoming symbol, Kraft check. When the
        evicted symbol is the incoming one, the same steps run and cancel
        arithmetically.

        Ring, bit window and counters live in locals and are written back
        when the chunk ends; codeword_length is inlined. Returns the decoded
        symbols when decoding.
        """
        p = self.params
        sigma, width, l_max = p.sigma, p.width, p.l_max
        ell, threshold = p.ell, p.threshold
        w1 = width + 1  # a literal: flag 0 then the plain index
        d = self.dictionary
        lookup, put, delete = d.lookup, d.put, d.delete
        cb = self.codebook
        insert, remove, move, kraft = cb.insert, cb.remove, cb.move, cb.kraft
        buf, ln, head = self._buf, self._len, self._head
        literals, max_step, max_size = self._literals, self._max_step, self._max_size
        t_prev = kraft.touches
        decoding = reader is not None
        out = [] if decoding else None
        if decoding:
            append, cb_decode = out.append, cb.decode
            data, pos, limit = reader._data, reader._pos, reader._limit
            win = hi = 0  # win holds the payload bits [hi - 8 * _READ_BYTES, hi)
            half, lit_mask = 1 << width, (1 << w1) - 1
            b_shift, b_mask = width - l_max, (1 << l_max) - 1
        else:
            if isinstance(symbols, np.ndarray):  # range-checked before the list copy
                bad = symbols.size and (symbols.min() < 0 or symbols.max() >= sigma)
                symbols = symbols.tolist()
            else:
                bad = len(symbols) and (min(symbols) < 0 or max(symbols) >= sigma)
            if bad:  # the chunk is rejected before any of it is coded
                i = next(i for i, a in enumerate(symbols) if not 0 <= a < sigma)
                raise ParameterError(f"symbol {symbols[i]} at position "
                                     f"{self.position + i} out of range for sigma {sigma}")
            codeword, write = cb.codeword, writer.write_bits
            wacc = wbits = 0
        i = 0
        try:
            for i in range(count):
                if decoding:
                    if hi - pos < w1:
                        q = pos >> 3
                        chunk = data[q:q + _READ_BYTES]
                        hi = 8 * (q + _READ_BYTES)  # bits past the data read as zeros
                        win = int.from_bytes(chunk, "big") << (hi - 8 * (q + len(chunk)))
                    v = (win >> (hi - pos - w1)) & lit_mask
                    if v < half:
                        a, k, touched = v, w1, False
                        literals += 1
                    else:
                        a, j = cb_decode((v >> b_shift) & b_mask)
                        k, touched = j + 1, True
                    pos += k
                    if pos > limit:
                        raise CorruptStreamError("bit stream truncated")
                    if a >= sigma:
                        raise CorruptStreamError(
                            f"literal {a} out of range for sigma {sigma}")
                    append(a)
                    rec = lookup(a)
                else:
                    a = symbols[i]
                    rec = lookup(a)
                    if rec is not None and rec.length is not None:
                        value, j = codeword(rec.length, rec.index + 1)
                        v, k, touched = (1 << j) | value, j + 1, True  # flag 1 first
                    else:
                        v, k, touched = a, w1, False
                        literals += 1
                    if wbits + k > _WRITE_BATCH:
                        write(wacc, wbits)
                        wacc, wbits = v, k
                    else:
                        wacc = (wacc << k) | v
                        wbits += k
                # 1. rotate the ring
                if ln < ell:
                    buf[ln] = a
                    ln += 1
                else:
                    e = buf[head]
                    buf[head] = a
                    head += 1
                    if head == ell:
                        head = 0
                    # 2. + 3. the evicted symbol loses one occurrence
                    erec = rec if e == a else lookup(e)
                    if erec is None:
                        raise InternalInconsistencyError(
                            f"evicted symbol {e} untracked")
                    f = erec.freq - 1
                    erec.freq = f
                    if f == 0:
                        delete(e)
                        if e == a:
                            rec = None  # the record was just dropped
                    length = erec.length
                    if length is not None:
                        if f < threshold:
                            remove(e, erec, d)
                            touched = True
                        else:
                            new_len = ((ell + f - 1) // f - 1).bit_length()
                            if new_len > length:
                                if new_len > l_max:
                                    raise InternalInconsistencyError(
                                        "frequent symbol demoted past l_max")
                                move(e, erec, length + 1, d)
                                touched = True
                # 4. + 5. the incoming symbol gains one
                if rec is None:
                    rec = CodeRecord(0)
                    put(a, rec)
                f = rec.freq + 1
                rec.freq = f
                if f >= threshold:
                    new_len = ((ell + f - 1) // f - 1).bit_length()
                    length = rec.length
                    if length is None:
                        insert(a, new_len, rec)
                        touched = True
                    elif new_len < length:
                        move(a, rec, length - 1, d)
                        touched = True
                # 6. the code must stay complete-or-under; only codebook
                # events and coded symbols change the Kraft sums or touches
                if touched:
                    if cb.kraft_total > cb.capacity:
                        raise InternalInconsistencyError(
                            "Kraft budget exceeded after update")
                    t = kraft.touches
                    if t - t_prev > max_step:
                        max_step = t - t_prev
                    t_prev = t
                    if cb.size > max_size:
                        max_size = cb.size
        except CorruptStreamError as exc:
            raise CorruptStreamError(f"symbol {self.position + i}: {exc}") from exc
        self._len, self._head = ln, head
        self.position += count
        self._literals, self._max_step, self._max_size = literals, max_step, max_size
        if decoding:
            reader._pos = pos
        elif wbits:
            write(wacc, wbits)
        return out


@dataclass
class CoderReport:
    """Counters from one encoding or decoding run."""

    n: int
    payload_bits: int
    payload_bytes: int
    literal_count: int
    coded_count: int
    max_code_size: int  # largest coded-symbol set seen
    ps_touches: int  # partial-sums node touches over the run
    ps_touches_max_step: int  # worst single-symbol touch count
    cost_units: int  # sum of 1 + handled codeword length


def write_header(out, params: CoderParams, backend: str, n: int) -> None:
    out.write(_HEADER.pack(MAGIC, VERSION, _BACKEND_FLAGS[backend], params.sigma,
                           params.ell, params.threshold, params.l_max, params.width,
                           n, params.lam, params.c))


def read_header(data: bytes) -> tuple[CoderParams, str, int]:
    """Parse and validate a header; returns (params, backend name, n)."""
    if len(data) < HEADER_BYTES:
        raise CorruptStreamError("header truncated")
    (magic, version, backend_flag, sigma, ell, threshold, l_max, width,
     n, lam, c) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CorruptStreamError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CorruptStreamError(f"unsupported version {version}")
    if backend_flag not in _BACKEND_NAMES:
        raise CorruptStreamError(f"unknown backend flag {backend_flag}")
    try:
        params = CoderParams.from_frozen(sigma=sigma, lam=lam, c=c, ell=ell,
                                         threshold=threshold, l_max=l_max, width=width)
    except ParameterError as e:
        raise CorruptStreamError(f"inconsistent header: {e}") from e
    return params, _BACKEND_NAMES[backend_flag], n


def encode_stream(params: CoderParams, symbols, out, backend: str = "trie",
                  seed: int = 0) -> CoderReport:
    """Encode a symbol sequence to the binary sink out; returns the report."""
    write_header(out, params, backend, len(symbols))
    writer = BitWriter()
    report = CoderState(params, backend=backend, seed=seed).encode_chunk(symbols, writer)
    out.write(writer.finish())
    return report


def encode_to_bytes(params: CoderParams, symbols, backend: str = "trie",
                    seed: int = 0) -> tuple[bytes, CoderReport]:
    """Convenience wrapper encoding to an in-memory stream."""
    out = io.BytesIO()
    report = encode_stream(params, symbols, out, backend=backend, seed=seed)
    return out.getvalue(), report


def decode_stream(data, backend: str | None = None,
                  seed: int = 0) -> tuple[list[int], CoderReport]:
    """Decode a complete stream (bytes or binary file) back to symbols.

    The dictionary backend defaults to the header's flag; passing backend
    overrides it, which never changes the result.
    """
    if hasattr(data, "read"):
        data = data.read()
    params, header_backend, n = read_header(data)
    state = CoderState(params, backend=backend or header_backend, seed=seed)
    reader = BitReader(data[HEADER_BYTES:])
    symbols, report = state.decode_chunk(reader, n)
    reader.finish()
    return symbols, report


def write_symbols(symbols, sigma: int, sym_bytes: int | None = None) -> bytes:
    """Pack symbols as raw little-endian integers of sym_bytes (default: smallest fit)."""
    sb = sym_bytes or symbol_model_bytes(sigma)
    return np.asarray(symbols, dtype=f"<u{sb}").tobytes()


def read_symbols(data: bytes, sigma: int, sym_bytes: int | None = None) -> list[int]:
    """Unpack a raw fixed-width little-endian symbol file, checking the range."""
    sb = sym_bytes or symbol_model_bytes(sigma)
    if len(data) % sb:
        raise ParameterError(
            f"raw input length {len(data)} is not a multiple of {sb} bytes")
    arr = np.frombuffer(data, dtype=f"<u{sb}")
    if arr.size and int(arr.max()) >= sigma:
        raise ParameterError(f"symbol {int(arr.max())} out of range for sigma {sigma}")
    return arr.tolist()
