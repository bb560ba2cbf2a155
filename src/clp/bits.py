"""Packed binary sequences.

A BitSequence stores its symbols in one arbitrary-precision integer,
64-symbol words at a time in effect: symbol i is bit i of ``value``
(little-endian within the integer).  Distances reduce to XOR plus
popcount.  A window is read from a little-endian byte view of
``value`` that the sequence makes on its first window and keeps, so it
costs O(width) rather than a shift of all n bits; the view holds
n/8 + 1 bytes for as long as the sequence lives.  Iteration and the
string and bit-list conversions go through a transient byte or digit
copy, so each is linear in n.  File bytes are interpreted MSB-first,
so byte 0x80 is the sequence "10000000".
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, List, Tuple

import numpy as np

__all__ = ["BitSequence", "concat_bits", "bernoulli"]

# the bits of each byte value, least significant first
_BYTE_BITS = [tuple((byte >> j) & 1 for j in range(8)) for byte in range(256)]

# str.translate table deleting the two binary digits
_BINARY_DIGITS = {ord("0"): None, ord("1"): None}


def _pack_little(flags: np.ndarray) -> int:
    """The integer whose bit i is flags[i], a uint8 array of 0s and 1s."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class BitSequence:
    """Immutable packed bit string; index 0 is the first symbol."""

    # _bytes, the byte view window() reads, is set on the first window
    __slots__ = ("value", "length", "_bytes")

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
        junk = text.translate(_BINARY_DIGITS)
        if junk:
            raise ValueError(f"not a binary digit: {junk[0]!r}")
        return cls(int(text[::-1], 2) if text else 0, len(text))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitSequence":
        flags = np.fromiter((1 if b else 0 for b in bits), dtype=np.uint8)
        return cls(_pack_little(flags), len(flags))

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
        return cls(_pack_little(arr), nbits)

    @classmethod
    def zeros(cls, n: int) -> "BitSequence":
        return cls(0, n)

    # -- conversions ---------------------------------------------------

    def to01(self) -> str:
        if self.length == 0:
            return ""
        return format(self.value, f"0{self.length}b")[::-1]

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
        raw = self.value.to_bytes((self.length + 7) >> 3, "little")
        return islice(chain.from_iterable(map(_BYTE_BITS.__getitem__, raw)), self.length)

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
        long sequence costs O(width) per call once the sequence's byte
        view of ``value`` exists.
        """
        width = min(width, self.length - start)
        if start < 0 or width < 0:
            raise ValueError("window outside the sequence")
        try:
            buf = self._bytes
        except AttributeError:
            buf = self.value.to_bytes((self.length >> 3) + 1, "little")
            object.__setattr__(self, "_bytes", buf)
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
    return BitSequence(_pack_little((rng.random(n) < p).astype(np.uint8)), n)
