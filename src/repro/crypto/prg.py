"""Pseudorandom generation of field elements from a ChaCha-keyed stream.

The cost-model parameter ``c`` (§5.1) is "the cost of pseudorandomly
generating an element in F"; this module is the thing being measured.
Both parties instantiate a ``FieldPRG`` from the same seed to derive
identical query vectors without shipping them over the network
(§A.1, network costs: "a random seed from which V and P derive the PCP
queries pseudorandomly").
"""

from __future__ import annotations

import hashlib
import struct

from ..field import PrimeField
from .chacha import ChaChaStream


class FieldPRG:
    """Draws uniform elements of a prime field by rejection sampling."""

    def __init__(self, field: PrimeField, seed: bytes | str | int, domain: str = ""):
        self.field = field
        key = _derive_key(seed, domain)
        self._stream = ChaChaStream(key)
        # Sample ceil(bits/8) + 8 bytes and reduce the rejection rate by
        # reading a few spare bits; strict rejection keeps uniformity.
        self._sample_bytes = (field.p.bit_length() + 7) // 8
        self._mask = (1 << (self._sample_bytes * 8)) - 1
        self._limit = self._mask + 1 - ((self._mask + 1) % field.p)

    def next_element(self) -> int:
        """One uniform draw from [0, p)."""
        while True:
            raw = int.from_bytes(self._stream.read(self._sample_bytes), "little")
            if raw < self._limit:
                return raw % self.field.p

    def next_nonzero(self) -> int:
        """Uniform draw from [1, p)."""
        while True:
            v = self.next_element()
            if v:
                return v

    def next_vector(self, n: int) -> list[int]:
        """n uniform field elements, exactly as n ``next_element`` calls.

        Reads the bytes of all n samples in one go and keeps the ones
        below the rejection limit, then reads again only for as many
        samples as were rejected.  The last sample read is always an
        accepted one, so this consumes exactly the bytes the sequential
        draws would and returns the same elements in the same order.
        """
        out: list[int] = []
        while len(out) < n:
            out += self._accepted(n - len(out))
        return out

    def _accepted(self, k: int) -> list[int]:
        """The samples among the next k that pass rejection, reduced."""
        sb = self._sample_bytes
        data = self._stream.read(k * sb)
        if sb == 8:
            raw = struct.unpack(f"<{k}Q", data)
        elif sb == 16:
            words = struct.unpack(f"<{2 * k}Q", data)
            raw = [lo | hi << 64 for lo, hi in zip(words[::2], words[1::2])]
        else:
            raw = [int.from_bytes(data[i : i + sb], "little") for i in range(0, k * sb, sb)]
        p, limit = self.field.p, self._limit
        return [x % p for x in raw if x < limit]

    def next_bytes(self, n: int) -> bytes:
        """Raw keystream bytes (for non-field randomness)."""
        return self._stream.read(n)

    def next_below(self, bound: int) -> int:
        """Uniform draw from [0, bound); used for exponent sampling."""
        nbytes = (bound.bit_length() + 15) // 8
        space = 1 << (nbytes * 8)
        limit = space - (space % bound)
        while True:
            raw = int.from_bytes(self._stream.read(nbytes), "little")
            if raw < limit:
                return raw % bound


def _derive_key(seed: bytes | str | int, domain: str) -> bytes:
    """32-byte ChaCha key from an arbitrary seed plus a domain label.

    Distinct domains ("linearity", "tau", "alpha", ...) give independent
    streams from one protocol seed, so query schedules cannot collide.
    """
    if isinstance(seed, int):
        seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "little")
    elif isinstance(seed, str):
        seed = seed.encode()
    return hashlib.sha256(seed + b"\x00" + domain.encode()).digest()
