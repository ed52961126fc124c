"""The QAP prover pipeline: from witness to the proof vector (z, h).

§A.3, "The prover": H_w(t) = P_w(t)/D(t), P_w = A_w·B_w − C_w.  The
values of A_w, B_w, C_w at the σ_j are free (the j-th constraint's
p_A/p_B/p_C evaluated at w).  In roots mode three inverse NTTs, one
product and a telescoped division by D(t) = t^m − 1 follow.  In
arithmetic mode (σ_j = j) H comes from point values, with one
interpolation and no division:

1. reject w unless A(j)·B(j) − C(j) = 0 for j = 1..m — by Claim A.1
   exactly D | P_w — with the error exact division would raise;
2. extrapolate A, B, C from 0..m to m+1..2m+1 with one convolution
   (:meth:`~repro.qap.qap.PointValueTree.extrapolate`);
3. there, H(x) = (A·B − C)(x)/D(x), D(x) a ratio of factorials;
4. interpolate H once over those points.

The paper's interpolate-multiply-divide route gives the same
coefficients; the tests keep it as the oracle.

``build_proof_vector`` assembles u = (z, h), the two linear functions
π_z, π_h of §3, as one flat vector (the commitment layer treats them
as a single linear function over F^(|Z|+|C|+1) with queries embedded
by ``embed_z_query`` / ``embed_h_query``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..poly import mat_interpolate_at_roots_of_unity, mat_poly_mul, pad_rows, trim
from ..poly.divide import INEXACT_DIVISION
from .qap import QAPInstance


@dataclass
class QAPProof:
    """The Zaatar proof vector for one instance."""

    z: list[int]
    h: list[int]  # padded to qap.h_length

    @property
    def vector(self) -> list[int]:
        """The flat proof vector u = z ++ h the commitment binds."""
        return self.z + self.h


def witness_poly_evaluations(
    qap: QAPInstance, w: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """A_w, B_w, C_w evaluated at the prover's interpolation points.

    A_w(σ_j) = Σᵢ wᵢ·Aᵢ(σ_j) = Σᵢ wᵢ·a_{ij} = p_{j,A}(w): no polynomial
    work at all, just one linear-combination evaluation per constraint.
    Padded rows (roots mode) evaluate to zero.
    """
    field = qap.field
    evals_a: list[int] = []
    evals_b: list[int] = []
    evals_c: list[int] = []
    if qap.mode == "arithmetic":
        # leading entry is the σ₀ = 0 point where every Aᵢ vanishes
        evals_a.append(0)
        evals_b.append(0)
        evals_c.append(0)
    for constraint in qap.system.constraints:
        evals_a.append(constraint.a.evaluate(field, w))
        evals_b.append(constraint.b.evaluate(field, w))
        evals_c.append(constraint.c.evaluate(field, w))
    pad = len(qap.prover_points) - len(evals_a)
    if pad:
        zeros = [0] * pad
        evals_a += zeros
        evals_b += zeros
        evals_c += zeros
    return evals_a, evals_b, evals_c


def compute_h(qap: QAPInstance, w: Sequence[int]) -> list[int]:
    """Coefficients of H_w(t) = P_w(t)/D(t), padded to ``qap.h_length``.

    Raises ``ValueError`` if w does not satisfy the constraints — by
    Claim A.1 divisibility is equivalent to satisfiability.
    """
    (h,) = compute_h_batch(qap, [w])
    if isinstance(h, ValueError):
        raise h
    return h


def compute_h_batch(qap: QAPInstance, witnesses: Sequence[Sequence[int]]) -> list:
    """H_w(t) rows for many witnesses against one fixed QAP.

    Each step runs once for the whole batch as stacked 2-D kernels
    (one plan, one array program per step — see ``repro.poly.batch``),
    and each returned entry is either the padded coefficient list of
    H_w or the ``ValueError`` its witness raises (failure isolation:
    one bad witness never poisons its batchmates).
    :func:`compute_h` is the batch of one.
    """
    if not witnesses:
        return []
    with telemetry.span("qap.witness_evals", rows=len(witnesses)):
        triples = [witness_poly_evaluations(qap, w) for w in witnesses]
    if qap.mode == "arithmetic":
        h_rows = _arithmetic_h_rows(qap, triples)
    else:
        h_rows = _roots_h_rows(qap, triples)
    out: list = []
    for h in h_rows:
        if not isinstance(h, ValueError):
            h = trim(list(h))  # roots rows carry fixed-width padding
            if len(h) > qap.h_length:
                raise AssertionError("H(t) degree exceeds the protocol bound")
            h += [0] * (qap.h_length - len(h))
        out.append(h)
    return out


def _arithmetic_h_rows(qap: QAPInstance, triples) -> list:
    """H from point values, for each (A, B, C) triple of values at
    0..m: the trimmed coefficients, or the ``ValueError`` exact
    division would raise if the witness fails a constraint."""
    field = qap.field
    p = field.p
    with telemetry.span("qap.divide", mode=qap.mode, rows=len(triples)):
        satisfied = [
            not any((a * b - c) % p for a, b, c in zip(*triple)) for triple in triples
        ]
    good = [triple for triple, ok in zip(triples, satisfied) if ok]
    polys = iter(())
    if good:
        rows = len(good)
        with telemetry.span("qap.interpolate", mode=qap.mode, rows=rows):
            tree = qap.subproduct_tree
            ext = tree.extrapolate([values for triple in good for values in triple])
        with telemetry.span("qap.multiply", rows=rows):
            p_vals = field.mat_sub(field.mat_hadamard(ext[0::3], ext[1::3]), ext[2::3])
        with telemetry.span("qap.divide", mode=qap.mode, rows=rows):
            h_vals = field.mat_hadamard(p_vals, [tree.inv_divisor] * rows)
        with telemetry.span("qap.interpolate", mode=qap.mode, rows=rows):
            polys = iter([tree.interpolate(values) for values in h_vals])
    return [next(polys) if ok else ValueError(INEXACT_DIVISION) for ok in satisfied]


def _roots_h_rows(qap: QAPInstance, triples) -> list:
    """Inverse NTTs, one product, and the telescoped division by t^m − 1."""
    field, m, rows = qap.field, qap.m, len(triples)
    with telemetry.span("qap.interpolate", mode=qap.mode, rows=rows):
        rows_a = mat_interpolate_at_roots_of_unity(field, [t[0] for t in triples])
        rows_b = mat_interpolate_at_roots_of_unity(field, [t[1] for t in triples])
        rows_c = mat_interpolate_at_roots_of_unity(field, [t[2] for t in triples])
    with telemetry.span("qap.multiply", rows=rows):
        prod = mat_poly_mul(field, rows_a, rows_b)  # width 2m − 1
        p_rows = field.mat_sub(pad_rows(prod, 2 * m), pad_rows(rows_c, 2 * m))
    with telemetry.span("qap.divide", mode=qap.mode, rows=rows):
        return _mat_divide_by_subgroup_vanishing(field, p_rows, m)


def _divide_by_subgroup_vanishing(field, p_w: list[int], m: int) -> list[int]:
    """Exact division by t^m − 1 in O(deg) operations.

    From P = (t^m − 1)·H: p_k = h_{k−m} − h_k, so h_{k−m} = p_k + h_k,
    walking k downward from deg(P).
    """
    p = field.p
    if not p_w:
        return []
    deg_p = len(p_w) - 1
    if deg_p < m:
        if any(p_w):
            raise ValueError("polynomial is not divisible by t^m - 1")
        return []
    h = [0] * (deg_p - m + 1)
    for k in range(deg_p, m - 1, -1):
        h[k - m] = (p_w[k] + (h[k] if k < len(h) else 0)) % p
    # verify the low-order remainder vanishes: p_k = −h_k for k < m
    for k in range(min(m, len(p_w))):
        expected = (-h[k]) % p if k < len(h) else 0
        if p_w[k] % p != expected:
            raise ValueError(
                "polynomial is not divisible by t^m - 1 "
                "(witness does not satisfy the constraints?)"
            )
    return h


def _mat_divide_by_subgroup_vanishing(field, p_rows, m: int):
    """Batched telescoped division of every row by t^m − 1.

    For deg(P) ≤ 2m − 1 the recurrence h_{k−m} = p_k + h_k collapses:
    every h index on the right is ≥ m, where h vanishes, so the
    quotient is literally ``P[m:2m]`` and the remainder condition is
    ``P[:m] + P[m:2m] ≡ 0`` — one batched add and a zero test instead
    of a per-coefficient walk.  Returns one length-m quotient row (the
    true quotient plus trailing zeros) per input row; a row that fails
    the remainder check yields the exact ``ValueError`` the scalar
    :func:`_divide_by_subgroup_vanishing` raises for it (failure
    isolation — one bad witness never poisons its batchmates).
    """
    width = 2 * m
    padded = pad_rows(p_rows, width)
    heads = [row[:m] for row in padded]
    tails = [row[m:] for row in padded]
    checks = field.mat_add(heads, tails)
    out: list = []
    for i, check in enumerate(checks):
        if any(check):
            # re-run the scalar division for the row to reproduce its
            # exact exception (deg < m vs nonzero-remainder message)
            try:
                _divide_by_subgroup_vanishing(field, trim(list(p_rows[i])), m)
            except ValueError as exc:
                out.append(exc)
                continue
            raise AssertionError(
                "batched remainder check disagreed with scalar division"
            )  # pragma: no cover - the two are algebraically identical
        out.append(tails[i])
    return out


def build_proof_vector(qap: QAPInstance, witness: Sequence[int]) -> QAPProof:
    """u = (z, h) from a full canonical assignment (witness[0] == 1)."""
    z = list(witness[1 : qap.n_prime + 1])
    h = compute_h(qap, witness)
    return QAPProof(z=z, h=h)


def embed_z_query(qap: QAPInstance, q: Sequence[int]) -> list[int]:
    """Lift a πz query (length |Z|) into full-proof-vector coordinates."""
    if len(q) != qap.n_prime:
        raise ValueError(f"z-query length {len(q)} != {qap.n_prime}")
    return list(q) + [0] * qap.h_length


def embed_h_query(qap: QAPInstance, q: Sequence[int]) -> list[int]:
    """Lift a πh query (length |C|+1) into full-proof-vector coordinates."""
    if len(q) != qap.h_length:
        raise ValueError(f"h-query length {len(q)} != {qap.h_length}")
    return [0] * qap.n_prime + list(q)
