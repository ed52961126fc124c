"""Quadratic Arithmetic Programs from quadratic-form constraints (§A.1).

Given a canonical constraint system C over W = (Z, X, Y), the QAP is
the family of degree-|C| polynomials {Aᵢ(t), Bᵢ(t), Cᵢ(t)} for
i ∈ [0..n] defined by interpolation:

    Aᵢ(σ_j) = a_{ij}   (the coefficient of Wᵢ in p_{j,A})
    Aᵢ(σ₀)  = 0        (σ₀ = 0, pinning the degree)

plus the divisor polynomial D(t) = ∏_{j∈[1..|C|]} (t − σ_j).  Claim A.1:
D(t) | P_w(t) iff w's unbound part satisfies C(X=x, Y=y).

Neither party materializes the Aᵢ as coefficient vectors; everything
uses the sparse evaluation representation {(j, a_{ij}) : a_{ij} ≠ 0}
that Gennaro et al. observe is sufficient (§A.3).

Two σ-point placements are supported (the DESIGN.md ablation):

* ``"arithmetic"`` — σ_j = j, the paper's choice (§A.3: "a convenient
  choice is 1, 2, ..., |C|"), with O(|C|) barycentric weights for the
  verifier; the prover never interpolates over the σ_j at all, it
  extrapolates to m+1, ..., 2m+1 (:class:`PointValueTree`) and
  interpolates H once there;
* ``"roots"`` — σ_j ranges over a power-of-two subgroup (constraints
  padded with trivial 0·0=0 rows), turning the prover's interpolation
  into inverse NTTs and making D(t) = t^m − 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .. import telemetry
from ..constraints import QuadraticSystem
from ..field import PrimeField
from ..poly import SubproductTree, get_barycentric_weights, get_ntt_plan
from ..poly import mat_interpolate_at_roots_of_unity, mat_poly_mul, mul_strategy, pad_rows
from ..poly import poly_from_roots
from ..poly.divide import _series_inverse

#: sparse map: variable index -> [(constraint_index_1based, coefficient)]
SparseColumns = dict[int, list[tuple[int, int]]]


class PointValueTree(SubproductTree):
    """The arithmetic-mode prover's tree over x_k = m+1+k (k = 0..m),
    with the O(m) constants that carry a polynomial of degree ≤ m from
    its values at 0..m to its values at the x_k.  Lagrange over 0..m:

        f(x_k) = ℓ(x_k)·Σᵢ f(i)·vᵢ/(x_k − i),   ℓ(x_k) = (m+1+k)!/k!,

    with vᵢ the barycentric weights of 0..m.  The sums are entries m..2m
    of the convolution of (f(i)·vᵢ) with (1/l), l = 1..2m+1, which a
    cyclic convolution of length ≥ 2m+1 leaves free of wraparound, so
    the kernel is transformed once.  D(x_k) = (m+k)!/k! ≠ 0, and the
    tree's denominators ∏_{j≠k}(x_k − x_j) are the same vᵢ (they depend
    only on the spacing), so no multipoint evaluation is needed.
    """

    def __init__(self, field: PrimeField, m: int, weights: list[int]):
        telemetry.count("poly.plan_misses")
        super().__init__(field, range(m + 1, 2 * m + 2))
        self._inv_derivative_evals = list(weights)
        p = field.p
        top = 2 * m + 1
        fact = [1] * (top + 1)
        for i in range(1, top + 1):
            fact[i] = fact[i - 1] * i % p
        inv_fact = field.batch_inv(fact)
        self.m = m
        #: 1/l for l = 1..2m+1
        self.kernel = [fact[l - 1] * inv_fact[l] % p for l in range(1, top + 1)]
        #: ℓ(x_k) = (m+1+k)!/k!
        self.scale = [fact[m + 1 + k] * inv_fact[k] % p for k in range(m + 1)]
        #: 1/D(x_k) = k!/(m+k)!
        self.inv_divisor = [fact[k] * inv_fact[m + k] % p for k in range(m + 1)]
        self._plan = None
        if mul_strategy(field, m + 1, top) == "ntt":
            self._plan = get_ntt_plan(field, 1 << (top - 1).bit_length())
            kernel = pad_rows([self.kernel], self._plan.n)
            self._kernel_spectrum = field.mat_transform(self._plan, kernel)[0]

    def extrapolate(self, rows: list[list[int]]) -> list[list[int]]:
        """Values at m+1..2m+1 of the polynomials of degree ≤ m whose
        values at 0..m are ``rows``: one batched convolution for all."""
        field, m, n = self.field, self.m, len(rows)
        weighted = field.mat_hadamard(rows, [self.inv_derivative_evals()] * n)
        plan = self._plan
        if plan is None:  # small m: schoolbook or Karatsuba rows
            sums = mat_poly_mul(field, weighted, [self.kernel] * n)
        else:
            if telemetry.enabled():
                telemetry.count("poly.ntt_calls", 2 * n)
                telemetry.count("poly.ntt_points", 2 * n * plan.n)
            spectra = field.mat_transform(plan, pad_rows(weighted, plan.n))
            products = field.mat_hadamard(spectra, [self._kernel_spectrum] * n)
            sums = field.mat_transform(plan, products, invert=True)
        return field.mat_hadamard(
            [row[m : 2 * m + 1] for row in sums], [self.scale] * n
        )


@dataclass
class QAPInstance:
    """A QAP plus the cached structures both parties reuse per batch."""

    field: PrimeField
    system: QuadraticSystem
    mode: str = "arithmetic"
    # filled by __post_init__:
    m: int = 0                      # number of (possibly padded) constraints
    sigma: list[int] = dataclass_field(default_factory=list)
    a_cols: SparseColumns = dataclass_field(default_factory=dict)
    b_cols: SparseColumns = dataclass_field(default_factory=dict)
    c_cols: SparseColumns = dataclass_field(default_factory=dict)
    _divisor_inverse: list[int] | None = dataclass_field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.system.is_canonical():
            raise ValueError("QAP construction requires a canonical system")
        if self.mode not in ("arithmetic", "roots"):
            raise ValueError(f"unknown sigma mode {self.mode!r}")
        field = self.field
        n_constraints = self.system.num_constraints
        if self.mode == "arithmetic":
            self.m = n_constraints
            self.sigma = list(range(1, self.m + 1))
        else:
            size = 1
            while size < max(n_constraints, 2):
                size <<= 1
            self.m = size
            omega = field.root_of_unity(size)
            self.sigma = [pow(omega, j, field.p) for j in range(size)]
        for j, constraint in enumerate(self.system.constraints, start=1):
            for cols, lc in (
                (self.a_cols, constraint.a),
                (self.b_cols, constraint.b),
                (self.c_cols, constraint.c),
            ):
                for i, coeff in lc.terms.items():
                    if coeff:
                        cols.setdefault(i, []).append((j, coeff))

    # -- derived sizes ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Total variables (excluding the constant wire)."""
        return self.system.num_vars

    @property
    def n_prime(self) -> int:
        """|Z|: unbound variables, the length of πz queries."""
        return self.system.num_unbound

    @property
    def h_length(self) -> int:
        """Length of the h coefficient vector (|C| + 1 in the paper)."""
        return self.m + 1

    @property
    def proof_vector_length(self) -> int:
        """|u| = |Z| + |C| + 1."""
        return self.n_prime + self.h_length

    def nonzero_coefficients(self) -> int:
        """Total nonzero a/b/c entries — bounds V's query work (§A.3)."""
        return sum(
            len(entries)
            for cols in (self.a_cols, self.b_cols, self.c_cols)
            for entries in cols.values()
        )

    # -- cached interpolation machinery -------------------------------------------

    @cached_property
    def prover_points(self) -> list[int]:
        """Interpolation points for the prover's A/B/C reconstruction."""
        if self.mode == "arithmetic":
            return [0, *self.sigma]
        return list(self.sigma)

    @cached_property
    def subproduct_tree(self) -> PointValueTree:
        """The prover's tree over m+1..2m+1 and its extrapolation
        constants (arithmetic mode only)."""
        return PointValueTree(self.field, self.m, self.barycentric_weights)

    @cached_property
    def divisor_poly(self) -> list[int]:
        """D(t) coefficients (arithmetic mode; the division oracle's
        divisor — the prover and verifier never materialize D)."""
        return poly_from_roots(self.field, self.sigma)

    @property
    def barycentric_weights(self) -> list[int]:
        """Verifier-side weights over ``prover_points`` (arithmetic mode).

        Backed by the process-wide plan cache (the points are 0, 1,
        ..., m — exactly the arithmetic progression), so the vector is
        computed once per (field, size) and shared by every schedule
        and every same-shape QAP; each query round's reuse shows up as
        a ``poly.plan_hits`` tick.
        """
        return get_barycentric_weights(self.field, self.m + 1)

    def divisor_inverse_series(self) -> list[int]:
        """Newton inverse of the reversed D(t), to precision |C| + 1.

        For the division route the tests keep as the oracle of
        :func:`~repro.qap.prover.compute_h` (the prover never divides):
        ``poly_div_exact`` needs rev(D)⁻¹ mod t^qlen with qlen ≤ m + 1.
        The list is padded (not trimmed) to m + 1 so callers can check
        its precision by length.
        """
        if self._divisor_inverse is None:
            telemetry.count("poly.plan_misses")
            rev_den = list(reversed(self.divisor_poly))
            inverse = _series_inverse(self.field, rev_den, self.h_length)
            inverse += [0] * (self.h_length - len(inverse))
            self._divisor_inverse = inverse
        else:
            telemetry.count("poly.plan_hits")
        return self._divisor_inverse

    def warm(self) -> "QAPInstance":
        """Build everything :func:`~repro.qap.prover.compute_h` reads, so
        processes forked after this never rebuild it."""
        if self.mode == "arithmetic":
            self.subproduct_tree
        else:  # the transform plans of one all-zero instance
            rows = mat_interpolate_at_roots_of_unity(self.field, [[0] * self.m])
            mat_poly_mul(self.field, rows, rows)
        return self

    @cached_property
    def inv_m(self) -> int:
        """1/m — the roots-mode Lagrange scale factor, inverted once."""
        return self.field.inv(self.m % self.field.p)

    def divisor_at(self, tau: int) -> int:
        """D(τ).  Arithmetic mode: D(τ) = ℓ(τ)/τ with one division
        (§A.3); roots mode: τ^m − 1."""
        p = self.field.p
        if self.mode == "roots":
            return (pow(tau, self.m, p) - 1) % p
        acc = 1
        for s in self.sigma:
            acc = acc * ((tau - s) % p) % p
        return acc


def build_qap(system: QuadraticSystem, *, mode: str = "arithmetic") -> QAPInstance:
    """Construct the QAP for a canonical quadratic system."""
    return QAPInstance(field=system.field, system=system, mode=mode)
