"""Unit tests for message-in-exponent ElGamal and its homomorphisms."""

import pytest

from repro.crypto import (
    ElGamalCiphertext,
    ElGamalKeypair,
    FieldPRG,
    ciphertext_mul,
    ciphertext_pow,
    group_for_field,
    homomorphic_inner_product,
)


@pytest.fixture
def setup(gold):
    group = group_for_field(gold)
    prg = FieldPRG(gold, b"elgamal-tests")
    keypair = ElGamalKeypair.generate(group, prg)
    return gold, group, prg, keypair


class TestEncryptDecrypt:
    def test_roundtrip_in_exponent(self, setup):
        _, group, prg, keypair = setup
        for m in (0, 1, 42, group.order - 1):
            ct = keypair.public.encrypt(m, prg)
            assert keypair.decrypt_to_group(ct) == group.encode(m)

    def test_randomized(self, setup):
        _, _, prg, keypair = setup
        a = keypair.public.encrypt(7, prg)
        b = keypair.public.encrypt(7, prg)
        assert a != b  # fresh randomness per encryption

    def test_vector_encrypt(self, setup):
        _, group, prg, keypair = setup
        messages = [3, 1, 4, 1, 5]
        cts = keypair.public.encrypt_vector(messages, prg)
        assert [keypair.decrypt_to_group(ct) for ct in cts] == [
            group.encode(m) for m in messages
        ]


class TestHomomorphisms:
    def test_additive(self, setup):
        _, group, prg, keypair = setup
        ct = ciphertext_mul(
            group,
            keypair.public.encrypt(10, prg),
            keypair.public.encrypt(32, prg),
        )
        assert keypair.decrypt_to_group(ct) == group.encode(42)

    def test_scalar(self, setup):
        _, group, prg, keypair = setup
        ct = ciphertext_pow(group, keypair.public.encrypt(5, prg), 9)
        assert keypair.decrypt_to_group(ct) == group.encode(45)

    def test_inner_product(self, setup):
        gold, group, prg, keypair = setup
        r = [prg.next_element() for _ in range(12)]
        u = [prg.next_element() for _ in range(12)]
        cts = keypair.public.encrypt_vector(r, prg)
        combined = homomorphic_inner_product(group, cts, u)
        expected = gold.inner_product(r, u)
        assert keypair.decrypt_to_group(combined) == group.encode(expected)

    def test_inner_product_skips_zero_weights(self, setup):
        gold, group, prg, keypair = setup
        r = [5, 6, 7]
        cts = keypair.public.encrypt_vector(r, prg)
        combined = homomorphic_inner_product(group, cts, [0, 2, 0])
        assert keypair.decrypt_to_group(combined) == group.encode(12)

    def test_inner_product_length_mismatch(self, setup):
        _, group, prg, keypair = setup
        cts = keypair.public.encrypt_vector([1], prg)
        with pytest.raises(ValueError):
            homomorphic_inner_product(group, cts, [1, 2])


class TestExponentFieldAlignment:
    def test_group_order_equals_field_modulus(self, setup):
        """The property the commitment's soundness rests on."""
        gold, group, _, _ = setup
        assert group.order == gold.p

    def test_field_reduction_matches_exponent_reduction(self, setup):
        gold, group, prg, keypair = setup
        # a value ≥ p encrypts the same as its field reduction
        big = gold.p + 123
        a = keypair.decrypt_to_group(keypair.public.encrypt(big, prg))
        assert a == group.encode(123)


class TestDecryptExponent:
    """``decrypt_to_group`` computes c2·c1^(−x); the Fermat form
    c2·c1^(P−1−x) it replaced must agree wherever c1 is invertible."""

    @staticmethod
    def fermat(keypair, ct):
        P = keypair.public.group.modulus
        return ct.c2 * pow(ct.c1, P - 1 - keypair.secret, P) % P

    def test_agrees_with_fermat_form(self, setup):
        _, group, prg, keypair = setup
        P = group.modulus
        inside = pow(group.generator, 12345, P)
        outside = next(c for c in range(2, 100) if pow(c, group.order, P) != 1)
        for c1 in (inside, outside, 1, P - 1):
            ct = ElGamalCiphertext(c1, pow(group.generator, 77, P))
            assert keypair.decrypt_to_group(ct) == self.fermat(keypair, ct)

    def test_agrees_at_paper_group_size(self, p128):
        group = group_for_field(p128, paper_scale=True)
        assert group.modulus.bit_length() == 1024
        prg = FieldPRG(p128, b"paper-group")
        keypair = ElGamalKeypair.generate(group, prg)
        ct = keypair.public.encrypt(31337, prg)
        assert keypair.decrypt_to_group(ct) == self.fermat(keypair, ct)
        assert keypair.decrypt_to_group(ct) == group.encode(31337)

    def test_zero_c1_decrypts_to_zero(self, setup):
        _, group, _, keypair = setup
        for c1 in (0, group.modulus):
            ct = ElGamalCiphertext(c1, 5)
            assert keypair.decrypt_to_group(ct) == 0 == self.fermat(keypair, ct)

    def test_zero_c1_commitment_rejected_end_to_end(self, sumsq_program):
        """A prover sending c1 = 0 is rejected, and nothing raises."""
        from repro.argument import ArgumentConfig, ZaatarArgument
        from repro.pcp import SoundnessParams

        class ZeroC1Prover(ZaatarArgument):
            def prove_instance(self, input_values, setup, stats):
                sol, commitment, response, answers = super().prove_instance(
                    input_values, setup, stats
                )
                return sol, ElGamalCiphertext(0, commitment.c2), response, answers

        argument = ZeroC1Prover(
            sumsq_program, ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        )
        result = argument.run_batch([[1, 2, 3]])
        (instance,) = result.instances
        assert instance.ok
        assert not instance.commitment_ok
        assert not instance.accepted
