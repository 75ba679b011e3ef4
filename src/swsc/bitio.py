"""MSB-first bit stream writer and reader.

The writer pads the final byte with zero bits; the reader mirrors that by
letting peeks past the end read as zeros, while consuming past the end is a
corrupt-stream error, and so is anything but that padding after the end.
"""

from .errors import CorruptStreamError

_MAX_CHUNK = 64


class BitWriter:
    """Accumulates bits most-significant-first and emits whole bytes."""

    __slots__ = ("_buf", "_acc", "_nbits", "_total")

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0
        self._total = 0

    @property
    def bit_length(self) -> int:
        """Bits written so far (before padding)."""
        return self._total

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
        self._total += count

    def finish(self) -> bytes:
        """Flush, zero-padding the last partial byte, and return the bytes."""
        if self._nbits:
            self._buf.append((self._acc << (8 - self._nbits)) & 0xFF)
            self._acc = 0
            self._nbits = 0
        return bytes(self._buf)


class BitReader:
    """Reads bits most-significant-first from a byte string.

    peek_bits never fails at the end of data: missing bits read as zeros,
    mirroring the writer's padding. consume is bounded by the real data.
    """

    __slots__ = ("_data", "_pos", "_limit")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._limit = 8 * len(data)

    @property
    def position(self) -> int:
        """Bit cursor from the start of the data."""
        return self._pos

    def peek_bits(self, count: int) -> int:
        """Return the next count bits without advancing; zeros past the end."""
        if not 0 <= count <= _MAX_CHUNK:
            raise ValueError(f"count {count} out of range 0..{_MAX_CHUNK}")
        pos = self._pos
        first = pos >> 3
        last = (pos + count + 7) >> 3
        chunk = self._data[first:last]
        v = int.from_bytes(chunk, "big")
        lead = pos & 7
        need = lead + count
        avail = 8 * len(chunk)
        mask = (1 << count) - 1
        if need <= avail:
            return (v >> (avail - need)) & mask
        return (v << (need - avail)) & mask

    def consume(self, count: int) -> None:
        """Advance the cursor; moving past the end of data is corrupt input."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        pos = self._pos + count
        if pos > self._limit:
            raise CorruptStreamError("bit stream truncated")
        self._pos = pos

    def finish(self) -> None:
        """Check that only the writer's zero padding follows the cursor."""
        pos = self._pos
        extra = len(self._data) - ((pos + 7) >> 3)
        if extra:
            raise CorruptStreamError(f"{extra} trailing bytes after the payload")
        if pos & 7 and self._data[pos >> 3] & ((1 << (8 - (pos & 7))) - 1):
            raise CorruptStreamError("nonzero pad bits after the payload")
