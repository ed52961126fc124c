"""``FieldPRG.next_vector`` consumes the stream exactly as sequential draws do.

The batched draw reads all samples at once and re-reads only for the
rejected ones.  These tests pin that it returns the same elements as
``next_element`` calls and leaves the stream at the same position, so
every later draw (``next_element``, ``next_below``, ``next_bytes``)
agrees too; and that each call site switched to it draws the same
values as its former one-at-a-time loop.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_program
from repro.crypto import (
    CommitmentVerifier,
    ElGamalKeypair,
    FieldPRG,
    group_for_field,
)
from repro.field import P220, PrimeField
from repro.pcp import ginger as gpcp

from ..conftest import build_sum_of_squares

#: the smallest prime above 2^63: 8-byte samples are rejected about
#: half the time, so a real ChaCha stream exercises the re-reads
P_HALF_REJECT = 2**63 + 29


@pytest.fixture
def half() -> PrimeField:
    return PrimeField(P_HALF_REJECT)


@pytest.fixture
def p220() -> PrimeField:
    """28-byte samples: the generic (non-word) sample parser."""
    return PrimeField(P220, check_prime=False)


def _tail(prg: FieldPRG) -> tuple:
    """What the stream yields after a draw, through every other API."""
    return (
        prg.next_element(),
        prg.next_below(1000),
        prg.next_bytes(7),
        prg.next_vector(3),
        prg.next_nonzero(),
    )


def _pair(field, seed=b"pos"):
    return FieldPRG(field, seed, "d"), FieldPRG(field, seed, "d")


@pytest.mark.parametrize("field_name", ["gold", "p128", "p220", "half"])
@pytest.mark.parametrize("n", [0, 1, 5, 64, 333])
def test_matches_sequential_draws(request, field_name, n):
    field = request.getfixturevalue(field_name)
    batched, sequential = _pair(field)
    assert batched.next_vector(n) == [sequential.next_element() for _ in range(n)]
    assert _tail(batched) == _tail(sequential)


def test_real_stream_rejects_and_rereads(half):
    prg = FieldPRG(half, b"pos", "d")
    raw = [int.from_bytes(prg.next_bytes(8), "little") for _ in range(200)]
    assert sum(x >= prg._limit for x in raw) > 50  # plenty of rejections
    batched, sequential = _pair(half)
    assert batched.next_vector(200) == [sequential.next_element() for _ in range(200)]
    assert _tail(batched) == _tail(sequential)


class _Scripted:
    """A stream that serves fixed bytes, then a real keystream."""

    def __init__(self, prefix: bytes, rest):
        self._data = prefix
        self._rest = rest

    def read(self, n: int) -> bytes:
        if len(self._data) < n:
            self._data += self._rest.read(n - len(self._data) + 4096)
        out, self._data = self._data[:n], self._data[n:]
        return out


@pytest.mark.parametrize("field_name", ["gold", "p128"])
def test_forced_rejection(request, field_name):
    """All-ones samples lie above the limit for every field here: inject
    some, including two in a row and one in the re-read, and compare."""
    field = request.getfixturevalue(field_name)
    prgs = _pair(field)
    sb = prgs[0]._sample_bytes
    reject = b"\xff" * sb
    assert int.from_bytes(reject, "little") >= prgs[0]._limit
    keep = FieldPRG(field, b"filler").next_bytes(6 * sb)
    samples = [keep[i : i + sb] for i in range(0, 6 * sb, sb)]
    # 8 samples, 3 rejected: the re-read of 3 meets one more rejection
    s0, s1, s2, s3, s4, s5 = samples
    prefix = b"".join([s0, reject, s1, reject, reject, s2, s3, s4, reject, s5])
    batched, sequential = prgs
    for prg in prgs:
        prg._stream = _Scripted(prefix, prg._stream)
    got = batched.next_vector(6)
    assert got == [sequential.next_element() for _ in range(6)]
    assert got == [int.from_bytes(s, "little") % field.p for s in samples]
    assert _tail(batched) == _tail(sequential)


# -- call sites ----------------------------------------------------------------


def test_commitment_draws_match_sequential(gold):
    group = group_for_field(gold)
    n = 9
    queries = [[(7 * i + j) % gold.p for j in range(n)] for i in range(4)]
    verifier = CommitmentVerifier(gold, group, n, FieldPRG(gold, b"site", "c"))
    request = verifier.commit_request()
    verifier.decommit_challenge(queries)

    replay = FieldPRG(gold, b"site", "c")
    keypair = ElGamalKeypair.generate(group, replay)
    r = [replay.next_element() for _ in range(n)]
    cts = [keypair.public.encrypt(m, replay) for m in r]
    alphas = [replay.next_element() for _ in range(len(queries))]
    assert verifier._r == r
    assert request.ciphertexts == cts
    assert verifier._alphas == alphas


def _circuit_query_sequential(gsys, prg):
    """``_circuit_query`` as it drew one element per constraint/binding."""
    p, n = gsys.field.p, gsys.num_vars
    gamma1, gamma2, gamma0 = [0] * n, [0] * (n * n), 0
    for constraint in gsys.constraints:
        v = prg.next_element()
        gamma0 = (gamma0 + v * constraint.constant) % p
        for i, c in constraint.linear.items():
            gamma1[i - 1] = (gamma1[i - 1] + v * c) % p
        for (i, k), c in constraint.quadratic.items():
            flat = (i - 1) * n + (k - 1)
            gamma2[flat] = (gamma2[flat] + v * c) % p
    binding = {}
    for var in list(gsys.input_vars) + list(gsys.output_vars):
        v = prg.next_element()
        binding[var] = v
        gamma1[var - 1] = (gamma1[var - 1] + v) % p
    return gpcp.GingerCircuitQuery(gamma1, gamma2, gamma0, binding)


def test_ginger_circuit_query_matches_sequential(gold):
    program = compile_program(gold, build_sum_of_squares(), name="sumsq")
    batched, sequential = _pair(gold, b"ginger")
    assert gpcp._circuit_query(program.ginger, batched) == _circuit_query_sequential(
        program.ginger, sequential
    )
    assert _tail(batched) == _tail(sequential)
