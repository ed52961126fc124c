"""Arithmetic-mode H(t) from point values against the division route.

``compute_h`` builds H by extrapolating A, B, C to m+1..2m+1 and
interpolating once; ``h_oracle.DivisionOracle`` is the paper's route
(three interpolations over 0..m, a product, exact division by D).
Both must agree bit for bit — values and failures — on random
programs over every field size, with m on both sides of each
multiplication cutover the extrapolation product crosses.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.field import GOLDILOCKS, P128, P192, PrimeField
from repro.poly import (
    clear_plan_caches,
    get_barycentric_weights,
    interpolate_lagrange_naive,
    mul_strategy,
    poly_eval,
)
from repro.poly.divide import INEXACT_DIVISION
from repro.qap import build_qap, compute_h
from repro.qap.prover import compute_h_batch
from repro.qap.qap import PointValueTree

from .h_oracle import DivisionOracle, random_program

FIELDS = {
    name: PrimeField(params, check_prime=False)
    for name, params in (("goldilocks", GOLDILOCKS), ("p128", P128), ("p192", P192))
}

#: m = 1, and m on each side of the schoolbook/Karatsuba (31|32) and
#: Karatsuba/NTT (85|86) cutovers of the (m+1) × (2m+1) extrapolation
#: product — pinned by test_sizes_straddle_the_cutovers
SIZES = (1, 31, 32, 85, 86)


def perturbed(w, rng: random.Random, p: int) -> list[int]:
    bad = list(w)
    index = rng.randint(1, len(bad) - 1)
    bad[index] = (bad[index] + rng.randrange(1, p)) % p
    return bad


def test_sizes_straddle_the_cutovers():
    field = FIELDS["p128"]
    strategies = [mul_strategy(field, m + 1, 2 * m + 1) for m in SIZES]
    assert strategies == ["naive", "naive", "karatsuba", "karatsuba", "ntt"]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from(SIZES),
    st.integers(min_value=0, max_value=2**32),
)
def test_compute_h_matches_division_route(field_name, m, seed):
    field = FIELDS[field_name]
    rng = random.Random(seed)
    system, sample = random_program(field, m, rng)
    w = sample(rng)
    qap = build_qap(system)
    oracle = DivisionOracle(qap)
    assert compute_h(qap, w) == oracle.compute_h(w)
    bad = perturbed(w, rng, field.p)
    if system.is_satisfied(bad):  # pragma: no cover - astronomically rare
        return
    with pytest.raises(ValueError) as got:
        compute_h(qap, bad)
    with pytest.raises(ValueError) as want:
        oracle.compute_h(bad)
    assert str(got.value) == str(want.value) == INEXACT_DIVISION


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from(SIZES),
    st.integers(min_value=0, max_value=2**32),
)
def test_batch_rows_match_per_row_compute_h(field_name, m, seed):
    """Every compute_h_batch row — failures included — equals what
    compute_h returns or raises for that witness, and the oracle's."""
    field = FIELDS[field_name]
    rng = random.Random(seed)
    system, sample = random_program(field, m, rng)
    qap = build_qap(system)
    witnesses = [sample(rng) for _ in range(4)]
    witnesses[1] = perturbed(witnesses[1], rng, field.p)
    witnesses[3] = perturbed(witnesses[3], rng, field.p)
    rows = compute_h_batch(qap, witnesses)
    expected = DivisionOracle(qap).compute_h_rows(witnesses)
    assert len(rows) == len(witnesses)
    for row, want, witness in zip(rows, expected, witnesses):
        if isinstance(want, ValueError):
            assert isinstance(row, ValueError)
            assert str(row) == str(want)
            with pytest.raises(ValueError, match="nonzero remainder"):
                compute_h(qap, witness)
        else:
            assert row == want == compute_h(qap, witness)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from((0,) + SIZES),
    st.integers(min_value=0, max_value=2**32),
)
def test_extrapolation_matches_lagrange(field_name, m, seed):
    field = FIELDS[field_name]
    rng = random.Random(seed)
    tree = PointValueTree(field, m, get_barycentric_weights(field, m + 1))
    rows = [[rng.randrange(field.p) for _ in range(m + 1)] for _ in range(2)]
    got = tree.extrapolate(rows)
    for values, ext in zip(rows, got):
        poly = interpolate_lagrange_naive(field, list(range(m + 1)), values)
        assert ext == [poly_eval(field, poly, x) for x in range(m + 1, 2 * m + 2)]


def test_tree_constants_are_the_closed_forms(p128):
    m = 9
    qap_tree = PointValueTree(p128, m, list(range(1, m + 2)))
    p = p128.p
    for k in range(m + 1):
        x = m + 1 + k
        divisor = 1
        for j in range(1, m + 1):
            divisor = divisor * (x - j) % p
        assert qap_tree.inv_divisor[k] * divisor % p == 1
        ell = 1
        for i in range(m + 1):
            ell = ell * (x - i) % p
        assert qap_tree.scale[k] == ell
    assert [k * v % p for k, v in enumerate(qap_tree.kernel, 1)] == [1] * (2 * m + 1)


class TestWarm:
    """After ``QAPInstance.warm()`` the prover builds nothing: forked
    workers inherit every structure ``compute_h`` reads."""

    @pytest.fixture(params=["arithmetic", "roots"])
    def mode(self, request):
        return request.param

    def _misses(self, qap, w) -> int:
        tracer = telemetry.enable()
        try:
            with telemetry.span("instance"):
                compute_h(qap, w)
        finally:
            telemetry.disable()
        return tracer.total_counters().get("poly.plan_misses", 0)

    def test_no_plan_misses_after_warm(self, mode, p128):
        rng = random.Random(3)
        system, sample = random_program(p128, 200, rng)  # NTT-sized in both modes
        w = sample(rng)
        clear_plan_caches()
        qap = build_qap(system, mode=mode).warm()
        assert self._misses(qap, w) == 0

    def test_cold_qap_misses(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        w = sumsq_program.solve([1, 2, 3]).quadratic_witness
        assert self._misses(qap, w) >= 1  # builds the point-value tree
        assert self._misses(qap, w) == 0

    def test_registered_program_warms_the_prover(self, sumsq_program):
        from repro.argument import ArgumentConfig
        from repro.argument.serve import RegisteredProgram

        entry = RegisteredProgram(sumsq_program, ArgumentConfig()).warm()
        qap = entry.qap("arithmetic")
        assert "subproduct_tree" in vars(qap)
        w = sumsq_program.solve([1, 2, 3]).quadratic_witness
        assert self._misses(qap, w) == 0

    def test_parallel_batch_warms_before_forking(self, sumsq_program, monkeypatch):
        from repro.argument import ArgumentConfig, ZaatarArgument, run_parallel_batch
        from repro.pcp import SoundnessParams
        from repro.qap import QAPInstance

        calls = []
        real_warm = QAPInstance.warm

        def spy(qap):
            calls.append("subproduct_tree" in vars(qap))
            return real_warm(qap)

        monkeypatch.setattr(QAPInstance, "warm", spy)
        argument = ZaatarArgument(
            sumsq_program, ArgumentConfig(params=SoundnessParams(rho_lin=2, rho=1))
        )
        result = run_parallel_batch(argument, [[1, 2, 3], [2, 3, 4]], num_workers=2)
        assert calls == [False]  # warmed once, in the parent
        assert "subproduct_tree" in vars(argument.qap)
        assert result.result.all_accepted
