"""ChaCha20 stream cipher: a pure-Python block function and a batched keystream.

The paper uses ChaCha as its pseudorandom generator (§5.1, [13]): the
verifier derives its PCP queries pseudorandomly from a short seed, and
a copy of the seed is what travels to the prover instead of full query
vectors (§A.1, "network costs").  This implementation follows RFC 8439
(20 rounds, 32-byte key, 12-byte nonce, 32-bit block counter).

``chacha20_block`` computes one block in pure Python; it is the
reference the batched path is tested against and the fallback when
numpy cannot be imported.  ``keystream`` computes many consecutive
blocks at once: with numpy, the 16-word state of every block counter
sits in ``uint32`` arrays and each quarter-round step runs across all
blocks (and all four columns or diagonals) in one operation.  The
keystream is addressed by block counter, so both paths produce the
same bytes for any (key, nonce, counter, count).
"""

from __future__ import annotations

import struct

from .. import telemetry

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_MASK = 0xFFFFFFFF


def _rotl32(v: int, c: int) -> int:
    return ((v << c) & _MASK) | (v >> (32 - c))


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl32(state[b] ^ state[c], 7)


_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _check(key: bytes, nonce: bytes) -> None:
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")


def _block(key: bytes, counter: int, nonce: bytes) -> bytes:
    state = list(_CONSTANTS)
    state += list(struct.unpack("<8I", key))
    state.append(counter & _MASK)
    state += list(struct.unpack("<3I", nonce))
    working = list(state)
    for _ in range(10):
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    out = [(w + s) & _MASK for w, s in zip(working, state)]
    return struct.pack("<16I", *out)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 keystream block (RFC 8439 §2.3)."""
    _check(key, nonce)
    return _block(key, counter, nonce)


def _keystream_pure(key: bytes, nonce: bytes, counter: int, nblocks: int) -> bytes:
    return b"".join(_block(key, counter + i, nonce) for i in range(nblocks))


def _quarter_rounds(a, b, c, d, tmp) -> None:
    """Four quarter-rounds at once, in place on (4, nblocks) uint32 rows."""
    np = _np
    for x, y, z, r in ((a, b, d, 16), (c, d, b, 12), (a, b, d, 8), (c, d, b, 7)):
        x += y
        z ^= x
        np.left_shift(z, r, out=tmp)
        z >>= 32 - r
        z |= tmp


def _keystream_numpy(key: bytes, nonce: bytes, counter: int, nblocks: int) -> bytes:
    np = _np
    init = np.empty((16, nblocks), dtype=np.uint32)
    init[0:4] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    init[4:12] = np.frombuffer(key, dtype="<u4")[:, None]
    # uint32 addition wraps the counter at 2^32, as the RFC's does
    init[12] = np.arange(nblocks, dtype=np.uint32) + np.uint32(counter & _MASK)
    init[13:16] = np.frombuffer(nonce, dtype="<u4")[:, None]
    # rows a, b, c, d of the 4×4 state, each (4, nblocks): the column
    # round works on them as they are, the diagonal round on b, c and d
    # rotated left by 1, 2 and 3 columns
    a, b, c, d = (init[i : i + 4].copy() for i in (0, 4, 8, 12))
    tmp = np.empty_like(a)
    for _ in range(10):
        _quarter_rounds(a, b, c, d, tmp)
        b, c, d = b[[1, 2, 3, 0]], c[[2, 3, 0, 1]], d[[3, 0, 1, 2]]
        _quarter_rounds(a, b, c, d, tmp)
        b, c, d = b[[3, 0, 1, 2]], c[[2, 3, 0, 1]], d[[1, 2, 3, 0]]
    out = np.concatenate((a, b, c, d))
    out += init
    return out.T.astype("<u4", copy=False).tobytes()


def keystream(key: bytes, nonce: bytes, counter: int, nblocks: int) -> bytes:
    """``nblocks`` consecutive keystream blocks from block ``counter`` on.

    Byte-identical to ``chacha20_block`` applied to each counter (mod
    2^32) in turn; computed in numpy when it is installed.
    """
    _check(key, nonce)
    if _np is not None:
        return _keystream_numpy(key, nonce, counter, nblocks)
    return _keystream_pure(key, nonce, counter, nblocks)


#: refill sizes in blocks: the first refill reads this far ahead, each
#: later one four times as far as the last, up to the cap (256 KiB).
#: numpy's fixed cost per call equals about 4 pure blocks, so no
#: refill is smaller than that.
_FIRST_REFILL_BLOCKS = 4
_REFILL_GROWTH = 4
_MAX_REFILL_BLOCKS = 4096


class ChaChaStream:
    """Incremental keystream reader over successive ChaCha20 blocks.

    Reads come out of a read-ahead buffer by offset.  A refill computes
    at least the blocks the request needs; it reads further ahead by a
    span that starts at a few blocks and grows geometrically up to a
    cap, so a stream drawn for a handful of elements computes a handful
    of blocks while a long one computes them in large batches.  The
    keystream is a function of the block counter, so reading ahead
    never changes the bytes served.
    """

    def __init__(self, key: bytes, nonce: bytes = b"\x00" * 12, counter: int = 0):
        self._key = key
        self._nonce = nonce
        self._counter = counter
        self._buffer = b""
        self._pos = 0
        self._ahead = _FIRST_REFILL_BLOCKS

    def read(self, n: int) -> bytes:
        """Next ``n`` keystream bytes (buffered across blocks)."""
        end = self._pos + n
        if end > len(self._buffer):
            self._refill(end - len(self._buffer))
            end = n
        out = self._buffer[self._pos : end]
        self._pos = end
        return out

    def _refill(self, short: int) -> None:
        need = -(-short // 64)
        nblocks = max(need, self._ahead)
        self._ahead = min(_REFILL_GROWTH * self._ahead, _MAX_REFILL_BLOCKS)
        fresh = keystream(self._key, self._nonce, self._counter, nblocks)
        self._counter = (self._counter + nblocks) & _MASK
        self._buffer = self._buffer[self._pos :] + fresh
        self._pos = 0
        telemetry.count("crypto.prg.blocks", nblocks)


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, counter: int = 1) -> bytes:
    """XOR a message with the keystream (encryption == decryption)."""
    stream = ChaChaStream(key, nonce, counter)
    ks = stream.read(len(plaintext))
    return bytes(a ^ b for a, b in zip(plaintext, ks))
