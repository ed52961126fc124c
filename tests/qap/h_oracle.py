"""The paper's H(t) route, kept as the oracle for ``compute_h``.

§A.3 as written: interpolate A_w, B_w, C_w over the σ points (with
σ₀ = 0 pinning the degree), form P_w = A_w·B_w − C_w, and divide
exactly by D(t) = ∏ (t − σ_j).  The arithmetic-mode prover computes
the same coefficients from point values without any of these steps;
this module is what tests and ``benchmarks/bench_kernels.py`` compare
it against.  Arithmetic mode only — roots mode is unchanged.

``random_program`` makes the inputs: random constraint systems of any
size m, with a sampler for as many satisfying witnesses as needed.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.constraints import LinearCombination, QuadraticSystem
from repro.field import PrimeField
from repro.poly import SubproductTree, poly_div_exact, poly_mul, poly_sub
from repro.poly.divide import _NEWTON_CUTOFF
from repro.qap import QAPInstance, witness_poly_evaluations


class DivisionOracle:
    """The three-interpolation-and-division route for one arithmetic QAP.

    Builds, once, the structures the route reuses per instance: the
    subproduct tree over 0..m (with its multipoint-evaluated
    derivative weights) and, above the Newton cutoff, the QAP's cached
    inverse of the reversed divisor.
    """

    def __init__(self, qap: QAPInstance):
        if qap.mode != "arithmetic":
            raise ValueError("the division oracle covers arithmetic mode only")
        self.qap = qap
        self.tree = SubproductTree(qap.field, qap.prover_points)
        self.tree.inv_derivative_evals()
        self.inv_rev_den = (
            qap.divisor_inverse_series() if qap.m >= _NEWTON_CUTOFF else None
        )

    def h_from_evals(self, evals_a, evals_b, evals_c) -> list[int]:
        """Trimmed H coefficients from values at 0..m; raises the exact
        division's ``ValueError`` when D does not divide P_w."""
        field, tree = self.qap.field, self.tree
        poly_a = tree.interpolate(evals_a)
        poly_b = tree.interpolate(evals_b)
        poly_c = tree.interpolate(evals_c)
        p_w = poly_sub(field, poly_mul(field, poly_a, poly_b), poly_c)
        return poly_div_exact(
            field, p_w, self.qap.divisor_poly, inv_rev_den=self.inv_rev_den
        )

    def compute_h(self, w: Sequence[int]) -> list[int]:
        """What ``compute_h`` must return for w: H padded to h_length."""
        h = self.h_from_evals(*witness_poly_evaluations(self.qap, w))
        assert len(h) <= self.qap.h_length
        return h + [0] * (self.qap.h_length - len(h))

    def compute_h_rows(self, witnesses) -> list:
        """Per-row results, failures captured as their ``ValueError``."""
        out: list = []
        for w in witnesses:
            try:
                out.append(self.compute_h(w))
            except ValueError as exc:
                out.append(exc)
        return out


def random_program(
    field: PrimeField, m: int, rng: random.Random
) -> tuple[QuadraticSystem, Callable[[random.Random], list[int]]]:
    """m random constraints, and a sampler of satisfying witnesses.

    Variables 1..F are free; constraint j defines variable F+j through
    a_j(w)·b_j(w) = c·w_{F+j} + r_j(w), where a_j, b_j and r_j are
    random sparse combinations of the constant and earlier variables.
    Nothing is bound, so the system is already canonical.
    """
    p = field.p
    free = rng.randint(1, 6)
    system = QuadraticSystem(field=field, num_vars=free + m)

    def random_lc(limit: int) -> LinearCombination:
        terms: dict[int, int] = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(0, limit)] = rng.choice([1, p - 1, rng.randrange(p)])
        return LinearCombination(terms)

    defined = []  # (a, b, rest, 1/c) per constraint
    for j in range(m):
        limit = free + j  # the constant, free variables, earlier definitions
        a, b, rest = random_lc(limit), random_lc(limit), random_lc(limit)
        coeff = rng.randrange(1, p)
        system.add(a, b, rest.add(LinearCombination.variable(limit + 1, coeff)))
        defined.append((a, b, rest, field.inv(coeff)))

    def sample(witness_rng: random.Random) -> list[int]:
        w = [1] + [witness_rng.randrange(p) for _ in range(free)]
        for a, b, rest, inv_coeff in defined:
            value = a.evaluate(field, w) * b.evaluate(field, w) - rest.evaluate(field, w)
            w.append(value * inv_coeff % p)
        return w

    return system, sample
