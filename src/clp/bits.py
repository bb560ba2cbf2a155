"""Packed binary sequences.

A BitSequence stores its symbols in one arbitrary-precision integer,
64-symbol words at a time in effect: symbol i is bit i of ``value``
(little-endian within the integer).  Distances reduce to XOR plus
popcount.  A window is read from a little-endian byte copy of
``value``, made once per sequence, so it costs O(width) rather than a
shift of all n bits.  File bytes are interpreted MSB-first, so byte
0x80 is the sequence "10000000".
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

__all__ = ["BitSequence", "concat_bits", "bernoulli"]

# The value window() last read and its little-endian bytes.  It is
# matched by identity; holding the int keeps that identity from being
# reused.  Two sequences may share one int object: bits past either
# length are zero, so the same bytes serve both.  It lives here, not in
# a slot, because a third slot would grow every BitSequence, and coders
# keep one or two per phrase alive in their events.
_window_bytes: Tuple[int, bytes] = (0, b"")


class BitSequence:
    """Immutable packed bit string; index 0 is the first symbol."""

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError("negative length")
        if value < 0 or value >> length:
            raise ValueError("value has bits beyond the stated length")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name, val):  # pragma: no cover - guard only
        raise AttributeError("BitSequence is immutable")

    def __reduce__(self):
        # pickle through the constructor: the default path sets slots
        # with setattr, which the immutability guard refuses
        return BitSequence, (self.value, self.length)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_str(cls, text: str) -> "BitSequence":
        """Parse a string of 0s and 1s, first character first."""
        value = 0
        for i, ch in enumerate(text):
            if ch == "1":
                value |= 1 << i
            elif ch != "0":
                raise ValueError(f"not a binary digit: {ch!r}")
        return cls(value, len(text))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitSequence":
        value = 0
        n = 0
        for b in bits:
            if b:
                value |= 1 << n
            n += 1
        return cls(value, n)

    @classmethod
    def from_bytes_msb(cls, data: bytes, nbits: int | None = None) -> "BitSequence":
        """Interpret raw bytes as a bit sequence, MSB of byte 0 first."""
        if nbits is None:
            nbits = 8 * len(data)
        if nbits < 0:
            raise ValueError("negative bit count")
        if nbits > 8 * len(data):
            raise ValueError("nbits exceeds the data")
        if nbits == 0:
            return cls(0, 0)
        arr = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:nbits]
        packed = np.packbits(arr, bitorder="little").tobytes()
        return cls(int.from_bytes(packed, "little"), nbits)

    @classmethod
    def zeros(cls, n: int) -> "BitSequence":
        return cls(0, n)

    # -- conversions ---------------------------------------------------

    def to01(self) -> str:
        v = self.value
        return "".join("1" if (v >> i) & 1 else "0" for i in range(self.length))

    def to_bytes_msb(self) -> bytes:
        """Pack back to bytes, MSB-first, zero-padded to a byte boundary."""
        if self.length == 0:
            return b""
        nbytes = (self.length + 7) // 8
        little = self.value.to_bytes(nbytes, "little")
        arr = np.unpackbits(np.frombuffer(little, dtype=np.uint8), bitorder="little")
        arr = arr[: self.length]
        return np.packbits(arr).tobytes()

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.length)
            if step != 1:
                raise ValueError("only unit-step slices are supported")
            width = max(0, stop - start)
            return BitSequence((self.value >> start) & ((1 << width) - 1), width)
        i = key if key >= 0 else key + self.length
        if not 0 <= i < self.length:
            raise IndexError("bit index out of range")
        return (self.value >> i) & 1

    def __iter__(self) -> Iterator[int]:
        v = self.value
        for i in range(self.length):
            yield (v >> i) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitSequence)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __repr__(self) -> str:
        if self.length <= 32:
            return f"BitSequence({self.to01()!r})"
        return f"BitSequence(<{self.length} bits>)"

    def popcount(self) -> int:
        return self.value.bit_count()

    def window(self, start: int, width: int) -> int:
        """Raw integer view of up to ``width`` bits from ``start``.

        Reads only the bytes under the window, so a parse that walks a
        long sequence costs O(width) per call once the byte copy of
        ``value`` exists.
        """
        global _window_bytes
        width = min(width, self.length - start)
        if start < 0 or width < 0:
            raise ValueError("window outside the sequence")
        value, buf = _window_bytes
        if value is not self.value:
            value = self.value
            buf = value.to_bytes((self.length >> 3) + 1, "little")
            _window_bytes = (value, buf)
        chunk = int.from_bytes(buf[start >> 3:((start + width) >> 3) + 1], "little")
        return (chunk >> (start & 7)) & ((1 << width) - 1)


def concat_bits(parts: List[Tuple[int, int]]) -> BitSequence:
    """Join (value, length) parts; tree reduction keeps big shifts rare."""
    items = list(parts)
    if not items:
        return BitSequence(0, 0)
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            (av, al), (bv, bl) = items[i], items[i + 1]
            merged.append((av | (bv << al), al + bl))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return BitSequence(*items[0])


def bernoulli(rng: np.random.Generator, n: int, p: float) -> BitSequence:
    """Sample n i.i.d. Bernoulli(p) symbols from a numpy Generator."""
    if n == 0:
        return BitSequence(0, 0)
    bits = (rng.random(n) < p).astype(np.uint8)
    packed = np.packbits(bits, bitorder="little").tobytes()
    return BitSequence(int.from_bytes(packed, "little"), n)
