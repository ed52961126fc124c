"""The batched ChaCha keystream against the pure block function.

``chacha.keystream`` computes many blocks at once (in numpy when it is
installed) and ``ChaChaStream`` reads ahead through it; both must serve
exactly the bytes ``chacha20_block`` gives for each block counter.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.crypto import ChaChaStream, chacha, chacha20_block, chacha20_encrypt

needs_numpy = pytest.mark.skipif(chacha._np is None, reason="numpy absent")

RFC_KEY = bytes(range(32))
RFC_BLOCK = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4"
    "c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2"
    "b5129cd1de164eb9cbd083e8a2503c4e"
)
RFC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC_CIPHERTEXT = (
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42874d"
)


def _oracle(key: bytes, nonce: bytes, counter: int, nblocks: int) -> bytes:
    return b"".join(
        chacha20_block(key, (counter + i) & 0xFFFFFFFF, nonce) for i in range(nblocks)
    )


@pytest.fixture(params=["numpy", "pure"])
def path(request, monkeypatch):
    """Run a test once per keystream path."""
    if request.param == "numpy":
        if chacha._np is None:
            pytest.skip("numpy absent")
    else:
        monkeypatch.setattr(chacha, "_np", None)
    return request.param


class TestRFC8439BothPaths:
    def test_block_function(self, path):
        """RFC 8439 §2.3.2 through ``keystream``."""
        nonce = bytes.fromhex("000000090000004a00000000")
        assert chacha.keystream(RFC_KEY, nonce, 1, 1) == RFC_BLOCK

    def test_encryption(self, path):
        """RFC 8439 §2.4.2 through the stream."""
        nonce = bytes.fromhex("000000000000004a00000000")
        ct = chacha20_encrypt(RFC_KEY, nonce, RFC_PLAINTEXT, counter=1)
        assert ct.hex() == RFC_CIPHERTEXT

    def test_zero_key_block(self, path):
        """RFC 8439 A.1 test vector #1."""
        block = chacha.keystream(b"\x00" * 32, b"\x00" * 12, 0, 1)
        assert block.hex().startswith("76b8e0ada0f13d90405d6ae55386bd28")

    def test_validation(self, path):
        with pytest.raises(ValueError):
            chacha.keystream(b"short", b"\x00" * 12, 0, 4)
        with pytest.raises(ValueError):
            chacha.keystream(b"\x00" * 32, b"\x00" * 8, 0, 4)


@needs_numpy
class TestNumpyAgainstBlockFunction:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.binary(min_size=32, max_size=32),
        nonce=st.binary(min_size=12, max_size=12),
        counter=st.integers(0, 2**32 - 1),
        nblocks=st.integers(1, 12),
    )
    def test_random_keys_nonces_counters(self, key, nonce, counter, nblocks):
        assert chacha._keystream_numpy(key, nonce, counter, nblocks) == _oracle(
            key, nonce, counter, nblocks
        )

    def test_counter_wraps_inside_one_call(self):
        key, nonce = bytes(range(1, 33)), b"\x05" * 12
        start = 2**32 - 3
        out = chacha._keystream_numpy(key, nonce, start, 7)
        assert out == _oracle(key, nonce, start, 7)
        # blocks 3..6 are counters 0..3 after the wrap
        assert out[3 * 64 : 4 * 64] == chacha20_block(key, 0, nonce)


class TestStreamReads:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=12),
        counter=st.integers(0, 2**32 - 1),
    )
    def test_reads_match_concatenated_blocks(self, sizes, counter):
        key, nonce = b"\x11" * 32, b"\x22" * 12
        stream = ChaChaStream(key, nonce, counter)
        got = b"".join(stream.read(n) for n in sizes)
        nblocks = -(-sum(sizes) // 64)
        assert got == _oracle(key, nonce, counter, nblocks)[: sum(sizes)]

    def test_refills_grow_from_the_request(self):
        stream = ChaChaStream(b"\x00" * 32)
        stream.read(1)
        first = len(stream._buffer)
        assert first == chacha._FIRST_REFILL_BLOCKS * 64
        stream.read(first)  # forces a second, larger refill
        assert stream._ahead == chacha._REFILL_GROWTH**2 * chacha._FIRST_REFILL_BLOCKS
        # a request larger than the read-ahead is served whole
        big = ChaChaStream(b"\x00" * 32)
        assert len(big.read(100 * 64)) == 100 * 64

    def test_read_ahead_is_capped(self):
        stream = ChaChaStream(b"\x00" * 32)
        for _ in range(20):
            stream.read(64 * chacha._MAX_REFILL_BLOCKS)
        assert stream._ahead == chacha._MAX_REFILL_BLOCKS

    def test_blocks_are_counted_once_per_refill(self):
        with telemetry.session() as tracer:
            with telemetry.span("prg"):
                stream = ChaChaStream(b"\x00" * 32)
                stream.read(10)
                stream.read(chacha._FIRST_REFILL_BLOCKS * 64)
        (span,) = tracer.find("prg")
        expected = (1 + chacha._REFILL_GROWTH) * chacha._FIRST_REFILL_BLOCKS
        assert span.counters["crypto.prg.blocks"] == expected
