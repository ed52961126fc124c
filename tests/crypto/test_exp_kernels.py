"""Fixed-base ``Enc(r)`` and the Pippenger fold against ``pow``.

``encrypt_vector`` and ``homomorphic_inner_product`` replace one ``pow``
per exponent with windowed tables and bucketed multi-exponentiation;
the ciphertexts must be the same group elements, and a transcript
recorded through them must be byte-identical to one recorded through
the pure ChaCha block function, ``pow`` and the per-term fold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.argument import ArgumentConfig, record_batch
from repro.compiler import compile_program
from repro.crypto import (
    GROUP_GOLDILOCKS_512,
    GROUP_P128_512,
    GROUP_P128_1024,
    ElGamalCiphertext,
    ElGamalKeypair,
    FieldPRG,
    chacha,
    elgamal,
    homomorphic_inner_product,
)
from repro.field import GOLDILOCKS, P128, PrimeField
from repro.pcp import SoundnessParams

from ..conftest import build_sum_of_squares

GROUPS = {g.name: g for g in (GROUP_GOLDILOCKS_512, GROUP_P128_512, GROUP_P128_1024)}


def _field(group):
    return PrimeField(GOLDILOCKS if group.order == GOLDILOCKS.modulus else P128, check_prime=False)


class TestFixedBase:
    @pytest.mark.parametrize("w", [1, 3, 5, 8])
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_table_pow_edges(self, name, w):
        group = GROUPS[name]
        P, bits = group.modulus, group.order.bit_length()
        rows = elgamal._fixed_base_table(group.generator, P, bits, w)
        for e in (0, 1, 2, (1 << w) - 1, 1 << w, group.order - 1):
            assert elgamal._table_pow(rows, w, P, e) == pow(group.generator, e, P)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(GROUPS)),
        w=st.integers(1, 8),
        e=st.integers(0, 2**128),
    )
    def test_table_pow_random(self, name, w, e):
        group = GROUPS[name]
        P = group.modulus
        e %= group.order
        rows = elgamal._fixed_base_table(group.generator, P, group.order.bit_length(), w)
        assert elgamal._table_pow(rows, w, P, e) == pow(group.generator, e, P)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_encrypt_vector_matches_encrypt(self, name):
        group = GROUPS[name]
        field = _field(group)
        keypair = ElGamalKeypair.generate(group, FieldPRG(field, b"kp"))
        messages = [0, 1, group.order - 1, group.order, 5 * group.order + 3]
        messages += FieldPRG(field, b"m").next_vector(40)
        batched, single = FieldPRG(field, b"k"), FieldPRG(field, b"k")
        got = keypair.public.encrypt_vector(messages, batched)
        assert got == [keypair.public.encrypt(m, single) for m in messages]
        assert batched.next_element() == single.next_element()
        for m, ct in zip(messages, got):
            assert keypair.decrypt_to_group(ct) == group.encode(m)

    @pytest.mark.parametrize("kept", [False, True])
    def test_small_batches_fall_back_to_pow(self, kept):
        assert elgamal._fixed_base_window(128, 1, kept=kept) == 0
        assert elgamal._fixed_base_window(128, 64, kept=kept) > 0
        # more uses never shrink the window
        windows = [elgamal._fixed_base_window(128, n, kept=kept) for n in range(1, 2000, 37)]
        assert windows == sorted(windows)
        # a kept table is never smaller than a one-call table
        assert all(
            elgamal._fixed_base_window(128, n, kept=True) >= elgamal._fixed_base_window(128, n)
            for n in range(1, 300)
        )

    def test_generator_table_is_cached_per_group(self):
        group = GROUP_GOLDILOCKS_512
        w = elgamal._fixed_base_window(group.order.bit_length(), 200, kept=True)
        keypair = ElGamalKeypair.generate(group, FieldPRG(_field(group), b"kp"))
        keypair.public.encrypt_vector([1] * 100, FieldPRG(_field(group), b"k"))
        table = elgamal._GENERATOR_TABLES[(group, w)]
        cached = len(elgamal._GENERATOR_TABLES)
        keypair.public.encrypt_vector([2] * 100, FieldPRG(_field(group), b"k2"))
        assert elgamal._GENERATOR_TABLES[(group, w)] is table
        assert len(elgamal._GENERATOR_TABLES) == cached
        # h is derived from a seed and is never cached: every table held
        # is a table of its group's generator
        assert all(rows[0][1] == g.generator for (g, _), rows in elgamal._GENERATOR_TABLES.items())


def _fold_reference(group, cts, weights):
    live = [(ct, w % group.order) for ct, w in zip(cts, weights) if w]
    return ElGamalCiphertext(*elgamal._fold_per_term(live, group.modulus))


class TestPippenger:
    @pytest.fixture(scope="class")
    def cts(self):
        group = GROUP_P128_512
        field = _field(group)
        keypair = ElGamalKeypair.generate(group, FieldPRG(field, b"kp"))
        messages = FieldPRG(field, b"r").next_vector(80)
        return keypair.public.encrypt_vector(messages, FieldPRG(field, b"k"))

    @pytest.mark.parametrize("c", [1, 2, 4, 7])
    def test_edges(self, cts, c):
        group = GROUP_P128_512
        q, P, bits = group.order, group.modulus, group.order.bit_length()

        def multi(weights):
            live = [(ct, w % q) for ct, w in zip(cts, weights) if w % q]
            return elgamal._pippenger(live, P, bits, c)

        n = len(cts)
        for weights in (
            [0] * n,                                    # all zero
            [0] * (n - 1) + [3],                        # a single term
            [q] * n,                                    # weights == order
            [q + 5, 2 * q - 1] + [0] * (n - 2),         # weights > order
            [q - 1] * n,                                # top digit everywhere
            list(range(n)),
        ):
            assert ElGamalCiphertext(*multi(weights)) == _fold_reference(group, cts, weights)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_public_fold_matches_per_term(self, cts, data):
        group = GROUP_P128_512
        n = data.draw(st.integers(0, len(cts)))
        weights = data.draw(
            st.lists(
                st.one_of(st.just(0), st.integers(0, 2 * group.order), st.integers(-5, 5)),
                min_size=n,
                max_size=n,
            )
        )
        got = homomorphic_inner_product(group, cts[:n], weights)
        assert got == _fold_reference(group, cts[:n], weights)

    def test_window_grows_with_terms(self):
        assert elgamal._pippenger_window(128, 1) == 0
        windows = [elgamal._pippenger_window(128, n) for n in (16, 63, 300, 1446, 20000)]
        assert windows[0] > 0 and windows == sorted(windows)


FAST = ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
BATCH = [[1, 2, 3], [2, 3, 4], [3, 4, 5]]


def _transcript(field_params):
    field = PrimeField(field_params, check_prime=False)
    program = compile_program(field, build_sum_of_squares(), name="sumsq")
    transcript, ok = record_batch(program, BATCH, FAST)
    assert ok
    return transcript.to_json()


@pytest.mark.parametrize("field_params", [GOLDILOCKS, P128], ids=["goldilocks", "p128"])
def test_record_batch_parity_with_reference_kernels(monkeypatch, field_params):
    """Batched keystream, tables and buckets against the pure block
    function, ``pow`` and the per-term fold: the same transcript bytes."""
    fast = _transcript(field_params)
    monkeypatch.setattr(chacha, "_np", None)
    assert _transcript(field_params) == fast
    monkeypatch.setattr(elgamal, "_fixed_base_window", lambda bits, uses, kept=False: 0)
    monkeypatch.setattr(elgamal, "_pippenger_window", lambda bits, terms: 0)
    assert _transcript(field_params) == fast
