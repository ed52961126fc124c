"""ElGamal encryption with messages in the exponent.

Ginger's linear commitment (§2.2) needs additively homomorphic
encryption of field elements: the verifier sends Enc(r) componentwise
and the prover returns Enc(π(r)) computed as ∏ Enc(r_i)^{u_i}.  We
instantiate it the way the Pepper/Ginger line does: ElGamal over a
prime-order subgroup of Z_P^*, with the message m carried as g^m.

The subgroup order equals the PCP field modulus p (DSA-style
parameters, see ``groups.py``), so homomorphic exponent arithmetic *is*
field arithmetic and the verifier's consistency check

    g^(π(t) - Σ αᵢ·π(qᵢ))  ==  Dec(e)  ( = g^(π(r)) )

is an equality of field-indexed powers.  The verifier never needs the
discrete log of the decryption — only this equality — which is why
message-in-exponent ElGamal suffices (fully homomorphic encryption is
not required; §2.2 footnote 3).

The two batched operations avoid one ``pow`` per exponent.
``encrypt_vector`` raises the fixed bases g and h through windowed
tables (one multiplication per window of exponent bits, no squarings);
``homomorphic_inner_product`` folds the terms with Pippenger's bucketed
multi-exponentiation.  Both compute the same group elements as the
``pow`` path they replace, and fall back to it when a table or the
buckets cannot pay for themselves.  Costs below are counted in modular
multiplications; one ``pow`` with a b-bit exponent measures about
1.1·b of them on CPython.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .. import telemetry
from .groups import SchnorrGroup
from .prg import FieldPRG


@dataclass(frozen=True)
class ElGamalCiphertext:
    """(g^k, g^m · h^k) — both components in the ambient group mod P."""

    c1: int
    c2: int


@dataclass(frozen=True)
class ElGamalPublicKey:
    group: SchnorrGroup
    h: int  # g^x

    def encrypt(self, message: int, prg: FieldPRG) -> ElGamalCiphertext:
        """Encrypt a field element (carried in the exponent)."""
        if telemetry.enabled():
            telemetry.count("crypto.encryptions")
            telemetry.count("crypto.exponentiations", 3)
        group = self.group
        k = prg.next_below(group.order)
        c1 = pow(group.generator, k, group.modulus)
        c2 = (
            pow(group.generator, message % group.order, group.modulus)
            * pow(self.h, k, group.modulus)
            % group.modulus
        )
        return ElGamalCiphertext(c1, c2)

    def encrypt_vector(self, messages: list[int], prg: FieldPRG) -> list[ElGamalCiphertext]:
        """Componentwise encryption (the commit request's Enc(r)).

        The same ciphertexts as ``encrypt`` per message, with the ``k``s
        drawn in the same order; g and h are raised through fixed-base
        tables sized for this many messages.
        """
        n = len(messages)
        if telemetry.enabled():
            telemetry.count("crypto.encryptions", n)
            telemetry.count("crypto.exponentiations", 3 * n)
        group = self.group
        P, q = group.modulus, group.order
        g_pow = _exponentiator(group, group.generator, 2 * n, cached=True)
        h_pow = _exponentiator(group, self.h, n)
        out = []
        for m in messages:
            k = prg.next_below(q)
            out.append(ElGamalCiphertext(g_pow(k), g_pow(m % q) * h_pow(k) % P))
        return out


#: largest fixed-base window: a table holds ceil(bits/w)·2^w group
#: elements, 4,096 of them (about 0.6 MB at 1024 bits) for 128-bit
#: exponents at w = 8
_MAX_TABLE_WINDOW = 8


def _pow_cost(bits: int) -> int:
    """Modular multiplications one ``pow`` with a ``bits``-bit exponent costs."""
    return bits + bits // 8


def _fixed_base_window(bits: int, uses: int, *, kept: bool = False) -> int:
    """Window for a table serving ``uses`` exponentiations; 0 if ``pow`` wins.

    A table with window w has ceil(bits/w) rows of 2^w entries: building
    it costs a multiplication per entry, and each exponentiation costs
    one per row.  A table built for one call takes the window minimizing
    build plus lookups.  A ``kept`` table (g's, reused by later calls,
    which pay only lookups) takes the largest window that still pays
    for itself within this call.
    """
    pow_total = uses * _pow_cost(bits)
    best_w, best = 0, pow_total
    for w in range(1, _MAX_TABLE_WINDOW + 1):
        cost = -(-bits // w) * ((1 << w) - 1 + uses)
        if cost < (pow_total if kept else best):
            best_w, best = w, cost
    return best_w


def _fixed_base_table(base: int, modulus: int, bits: int, w: int) -> list[list[int]]:
    """Row j holds base^(d·2^(w·j)) for every digit d in [0, 2^w)."""
    rows = []
    b = base
    for _ in range(-(-bits // w)):
        row = [1, b]
        for _ in range(2, 1 << w):
            row.append(row[-1] * b % modulus)
        rows.append(row)
        b = row[-1] * b % modulus
    return rows


def _table_pow(rows: list[list[int]], w: int, modulus: int, e: int) -> int:
    """base^e for 0 <= e < 2^(w·len(rows)): one lookup per base-2^w digit."""
    mask = (1 << w) - 1
    acc = 1
    for row in rows:
        if not e:
            break
        d = e & mask
        if d:
            acc = acc * row[d] % modulus
        e >>= w
    return acc


#: g's tables, keyed by (group, window).  g is a public constant of the
#: group, so its table is too; h and everything else derived from a
#: seed is never cached.  Entries are built fully, then published with
#: setdefault, so a concurrent reader never sees a partial table.
_GENERATOR_TABLES: dict[tuple[SchnorrGroup, int], list[list[int]]] = {}


def _exponentiator(group: SchnorrGroup, base: int, uses: int, *, cached: bool = False):
    """``e -> base^e mod P`` for exponents in [0, order), sized for ``uses`` calls."""
    P, bits = group.modulus, group.order.bit_length()
    w = _fixed_base_window(bits, uses, kept=cached)
    if not w:
        return lambda e: pow(base, e, P)
    if cached:
        rows = _GENERATOR_TABLES.get((group, w))
        if rows is None:
            rows = _GENERATOR_TABLES.setdefault(
                (group, w), _fixed_base_table(base, P, bits, w)
            )
    else:
        rows = _fixed_base_table(base, P, bits, w)
    return partial(_table_pow, rows, w, P)


@dataclass(frozen=True)
class ElGamalKeypair:
    public: ElGamalPublicKey
    secret: int

    @classmethod
    def generate(cls, group: SchnorrGroup, prg: FieldPRG) -> "ElGamalKeypair":
        x = prg.next_below(group.order - 1) + 1
        h = pow(group.generator, x, group.modulus)
        return cls(ElGamalPublicKey(group, h), x)

    def decrypt_to_group(self, ct: ElGamalCiphertext) -> int:
        """Recover g^m (not m itself — the exponent stays hidden).  A
        c1 ≡ 0 has no inverse; it decrypts to 0, which no check accepts."""
        if telemetry.enabled():
            telemetry.count("crypto.decryptions")
            telemetry.count("crypto.exponentiations")
        P = self.public.group.modulus
        if ct.c1 % P == 0:
            return 0
        return ct.c2 * pow(ct.c1, -self.secret, P) % P


def ciphertext_mul(group: SchnorrGroup, a: ElGamalCiphertext, b: ElGamalCiphertext) -> ElGamalCiphertext:
    """Enc(m1) ⊙ Enc(m2) = Enc(m1 + m2)."""
    P = group.modulus
    return ElGamalCiphertext(a.c1 * b.c1 % P, a.c2 * b.c2 % P)


def ciphertext_pow(group: SchnorrGroup, ct: ElGamalCiphertext, scalar: int) -> ElGamalCiphertext:
    """Enc(m)^s = Enc(s · m)."""
    if telemetry.enabled():
        telemetry.count("crypto.exponentiations", 2)
    P = group.modulus
    s = scalar % group.order
    return ElGamalCiphertext(pow(ct.c1, s, P), pow(ct.c2, s, P))


def homomorphic_inner_product(
    group: SchnorrGroup, ciphertexts: list[ElGamalCiphertext], weights: list[int]
) -> ElGamalCiphertext:
    """∏ Enc(r_i)^{u_i} = Enc(<r, u>) — the prover's commitment step.

    Each term is the cost-model parameter ``h`` ("ciphertext add plus
    multiply", §5.1); the prover pays one ``h`` per entry of the proof
    vector (Figure 3, "Issue responses").  Zero weights are skipped,
    matching what an optimized prover does for sparse vectors.  The
    product is a Pippenger multi-exponentiation when that is cheaper
    than one ``pow`` per term, and the per-term fold otherwise; both
    give the same ciphertext.
    """
    if len(ciphertexts) != len(weights):
        raise ValueError("ciphertext/weight length mismatch")
    if telemetry.enabled():
        terms = len(weights) - weights.count(0)
        telemetry.count("crypto.ciphertext_ops", terms)
        telemetry.count("crypto.exponentiations", 2 * terms)
    q = group.order
    live = [(ct, w % q) for ct, w in zip(ciphertexts, weights) if w % q]
    bits = q.bit_length()
    c = _pippenger_window(bits, len(live))
    if c:
        acc1, acc2 = _pippenger(live, group.modulus, bits, c)
    else:
        acc1, acc2 = _fold_per_term(live, group.modulus)
    return ElGamalCiphertext(acc1, acc2)


def _fold_per_term(live: list[tuple[ElGamalCiphertext, int]], P: int) -> tuple[int, int]:
    """One ``pow`` per term and component: the reference fold."""
    acc1, acc2 = 1, 1
    for ct, s in live:
        acc1 = acc1 * pow(ct.c1, s, P) % P
        acc2 = acc2 * pow(ct.c2, s, P) % P
    return acc1, acc2


#: largest Pippenger window: 2^c buckets per component
_MAX_BUCKET_WINDOW = 16


def _pippenger_window(bits: int, terms: int) -> int:
    """Bucket window minimizing Pippenger's cost; 0 if the per-term fold wins.

    Per component, each of ceil(bits/c) windows costs one multiplication
    per term into its bucket and two per bucket to sum the buckets, plus
    ``bits`` squarings overall.
    """
    best_c, best = 0, terms * (_pow_cost(bits) + 1)
    for c in range(1, _MAX_BUCKET_WINDOW + 1):
        cost = -(-bits // c) * (terms + 2 * ((1 << c) - 1)) + bits
        if cost < best:
            best_c, best = c, cost
    return best_c


def _pippenger(
    live: list[tuple[ElGamalCiphertext, int]], P: int, bits: int, c: int
) -> tuple[int, int]:
    """∏ ct^s over both components, for nonzero exponents s below 2^bits.

    Windows of c exponent bits run from the top: the accumulator is
    raised to 2^c, each term is multiplied into the bucket of its digit,
    and Σ d·bucket[d] is formed with a running product from the top
    bucket down.  Empty buckets and unit accumulators are None so no
    multiplication by 1 is ever paid.
    """
    mask = (1 << c) - 1
    acc1 = acc2 = None
    for shift in range(c * ((bits - 1) // c), -1, -c):
        if acc1 is not None:
            for _ in range(c):
                acc1 = acc1 * acc1 % P
                acc2 = acc2 * acc2 % P
        buckets1: list[int | None] = [None] * (mask + 1)
        buckets2: list[int | None] = [None] * (mask + 1)
        for ct, s in live:
            d = (s >> shift) & mask
            if d:
                if buckets1[d] is None:
                    buckets1[d], buckets2[d] = ct.c1, ct.c2
                else:
                    buckets1[d] = buckets1[d] * ct.c1 % P
                    buckets2[d] = buckets2[d] * ct.c2 % P
        run1 = run2 = tot1 = tot2 = None
        for d in range(mask, 0, -1):
            if buckets1[d] is not None:
                if run1 is None:
                    run1, run2 = buckets1[d], buckets2[d]
                else:
                    run1 = run1 * buckets1[d] % P
                    run2 = run2 * buckets2[d] % P
            if run1 is not None:
                if tot1 is None:
                    tot1, tot2 = run1, run2
                else:
                    tot1 = tot1 * run1 % P
                    tot2 = tot2 * run2 % P
        if tot1 is not None:
            if acc1 is None:
                acc1, acc2 = tot1, tot2
            else:
                acc1 = acc1 * tot1 % P
                acc2 = acc2 * tot2 % P
    if acc1 is None:
        return 1, 1
    return acc1, acc2
