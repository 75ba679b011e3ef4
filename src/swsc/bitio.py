"""MSB-first bit stream writer and reader, and the bit layout the coders share.

The writer pads the final byte with zero bits; the reader mirrors that by
letting peeks past the end read as zeros, while consuming past the end is a
corrupt-stream error, and so is anything but that padding after the end.
Either end can hold just a window of the payload: the writer hands over its
whole bytes as it goes (take), and the reader's data may be a slice of the
payload that slide moves on, while its limit stays the payload's end. The
writer makes bytes of its bits once it holds _FLUSH_BITS of them, so it
holds back fewer than _FLUSH_BITS + 64 bits until take or finish.
"""

from .errors import CorruptStreamError

_MAX_CHUNK = 64
WRITE_BATCH = 63  # most bits per write_bits call of a coder; a batch fits a signed 64-bit int
READ_BYTES = 16  # bytes per decode window: it holds a _MAX_CHUNK-bit peek from any bit
_FLUSH_BITS = 512  # bits a writer holds before it makes bytes: one to_bytes per several calls


def window(data, pos: int) -> tuple[int, int]:
    """(win, hi): win holds bits [hi - 8 * READ_BYTES, hi) of data, pos in its first byte.

    Bytes past the end of data read as zeros, mirroring the writer's padding.
    """
    q = pos >> 3
    chunk = data[q:q + READ_BYTES]
    hi = 8 * (q + READ_BYTES)
    return int.from_bytes(chunk, "big") << (hi - 8 * (q + len(chunk))), hi


def read_fields(data, pos: int, count: int, width: int) -> list[int]:
    """The count width-bit fields from bit pos of data, 64 per int.from_bytes; data holds them."""
    mask, end, step = (1 << width) - 1, pos + count * width, 64 * width
    out = []
    for at in range(pos, end, step):
        stop = min(at + step, end)
        q, r = at >> 3, (stop + 7) >> 3
        v = int.from_bytes(data[q:r], "big") >> (8 * r - stop)
        out += [v >> s & mask for s in range(stop - at - width, -1, -width)]
    return out


class BitWriter:
    """Accumulates bits MSB-first; it holds back < _FLUSH_BITS + 64 bits until take or finish."""

    __slots__ = ("_buf", "_acc", "_nbits", "_taken")

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0
        self._taken = 0  # bytes handed over by take

    @property
    def bit_length(self) -> int:
        """Bits written so far; after finish, the padding counts too."""
        return 8 * (self._taken + len(self._buf)) + self._nbits

    def write_bits(self, value: int, count: int) -> None:
        """Write the count-bit value, most significant bit first."""
        if not 0 <= count <= _MAX_CHUNK:
            raise ValueError(f"count {count} out of range 0..{_MAX_CHUNK}")
        if not 0 <= value < (1 << count):
            raise ValueError(f"value {value} does not fit in {count} bits")
        self._acc = (self._acc << count) | value
        self._nbits = n = self._nbits + count
        if n >= _FLUSH_BITS:
            self._flush()

    def write_fields(self, values, width: int) -> None:
        """Write each of values as a width-bit field, in order; each must fit in width bits."""
        for lo in range(0, len(values), 64):  # one big int per 64 fields
            v = 0
            for x in values[lo:lo + 64]:
                v = v << width | x
            k = width * min(64, len(values) - lo)
            self._acc, self._nbits = self._acc << k | v, self._nbits + k
            if self._nbits >= _FLUSH_BITS:
                self._flush()

    def _flush(self) -> None:
        """Emit the whole bytes held at once, keeping the nbits % 8 low bits."""
        rest = self._nbits & 7
        self._buf += (self._acc >> rest).to_bytes(self._nbits >> 3, "big")
        self._acc &= (1 << rest) - 1
        self._nbits = rest

    def take(self) -> bytearray:
        """Hand over the whole bytes written since the last take; they leave the writer."""
        self._flush()
        done, self._buf = self._buf, bytearray()
        self._taken += len(done)
        return done

    def finish(self) -> bytes:
        """Flush, zero-padding the last partial byte, and return the bytes not yet taken."""
        self._flush()
        if self._nbits:
            self._buf.append((self._acc << (8 - self._nbits)) & 0xFF)
            self._acc = 0
            self._nbits = 0
        return bytes(self._buf)


class BitReader:
    """Reads bits most-significant-first from a byte string.

    Its state is data, position (the bit cursor) and limit (the payload's
    bits); the decoder reads and advances them directly. data holds the
    payload from its first byte, or only a window of it: then position and
    limit count from data's first byte, and slide moves the window on.
    peek_bits never fails at the end of data: missing bits read as zeros.
    consume is bounded by limit, the real payload.
    """

    __slots__ = ("data", "position", "limit")

    def __init__(self, data: bytes, limit: int | None = None):
        self.data = data
        self.position = 0
        self.limit = 8 * len(data) if limit is None else limit

    def slide(self, more: bytes) -> None:
        """Drop data's whole bytes before the cursor and append more to it."""
        q = self.position >> 3
        self.data = bytes(self.data[q:]) + more
        self.position -= 8 * q
        self.limit -= 8 * q

    def peek_bits(self, count: int) -> int:
        """Return the next count bits without advancing; zeros past the end."""
        if not 0 <= count <= _MAX_CHUNK:
            raise ValueError(f"count {count} out of range 0..{_MAX_CHUNK}")
        win, hi = window(self.data, self.position)
        return (win >> (hi - self.position - count)) & ((1 << count) - 1)

    def consume(self, count: int) -> None:
        """Advance the cursor; moving past the end of data is corrupt input."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        pos = self.position + count
        if pos > self.limit:
            raise CorruptStreamError("bit stream truncated")
        self.position = pos

    def finish(self) -> None:
        """Check that only the writer's zero padding follows the cursor to limit."""
        pos = self.position
        extra = (self.limit >> 3) - ((pos + 7) >> 3)
        if extra:
            raise CorruptStreamError(f"{extra} trailing bytes after the payload")
        if pos & 7 and self.data[pos >> 3] & ((1 << (8 - (pos & 7))) - 1):
            raise CorruptStreamError("nonzero pad bits after the payload")
