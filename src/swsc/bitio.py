"""MSB-first bit stream writer and reader, and the bit layout the coders share.

The writer pads the final byte with zero bits; the reader mirrors that by
letting peeks past the end read as zeros, while consuming past the end is a
corrupt-stream error, and so is anything but that padding after the end.
Either end can hold just a window of the payload: the writer hands over its
whole bytes as it goes (take), and the reader's data may be a slice of the
payload that slide moves on, while its limit stays the payload's end.
"""

from .errors import CorruptStreamError

_MAX_CHUNK = 64
WRITE_BATCH = 63  # most bits per write_bits call of a coder; a batch fits a signed 64-bit int
READ_BYTES = 16  # bytes per decode window: it holds a _MAX_CHUNK-bit peek from any bit


def window(data, pos: int) -> tuple[int, int]:
    """(win, hi): win holds bits [hi - 8 * READ_BYTES, hi) of data, pos in its first byte.

    Bytes past the end of data read as zeros, mirroring the writer's padding.
    """
    q = pos >> 3
    chunk = data[q:q + READ_BYTES]
    hi = 8 * (q + READ_BYTES)
    return int.from_bytes(chunk, "big") << (hi - 8 * (q + len(chunk))), hi


class BitWriter:
    """Accumulates bits most-significant-first and emits whole bytes."""

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
        acc = (self._acc << count) | value
        n = self._nbits + count
        if n >= 8:  # emit the whole bytes at once, keep the n % 8 low bits
            rest = n & 7
            self._buf += (acc >> rest).to_bytes(n >> 3, "big")
            acc &= (1 << rest) - 1
            n = rest
        self._acc = acc
        self._nbits = n

    def take(self) -> bytearray:
        """Hand over the whole bytes written since the last take; they leave the writer."""
        done, self._buf = self._buf, bytearray()
        self._taken += len(done)
        return done

    def finish(self) -> bytes:
        """Flush, zero-padding the last partial byte, and return the bytes not yet taken."""
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
