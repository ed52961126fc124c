"""Batch-amortized QAP structures: caches are shared, not rebuilt."""

import pytest

from repro.qap import build_qap, compute_h


class TestCachedStructures:
    def test_subproduct_tree_cached(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.subproduct_tree is qap.subproduct_tree

    def test_divisor_poly_cached(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.divisor_poly is qap.divisor_poly

    def test_barycentric_weights_cached(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.barycentric_weights is qap.barycentric_weights

    def test_one_qap_serves_many_instances(self, sumsq_program):
        """The same QAP instance proves every batch member (the shared
        structure behind §2.2 batching)."""
        qap = build_qap(sumsq_program.quadratic)
        for inputs in ([1, 2, 3], [4, 5, 6], [7, 8, 9]):
            sol = sumsq_program.solve(inputs)
            h = compute_h(qap, sol.quadratic_witness)
            assert len(h) == qap.h_length

    def test_prover_points_match_tree(self, sumsq_program):
        qap = build_qap(sumsq_program.quadratic)
        assert qap.subproduct_tree.points == list(range(qap.m + 1, 2 * qap.m + 2))
        assert qap.prover_points[0] == 0  # σ₀ pinning point
        assert qap.prover_points[1:] == qap.sigma


class TestPaperScaleCompiles:
    def test_bisection_paper_sizes_compile(self, gold):
        """The paper's bisection configuration (m=256, L=8) is
        compile-feasible even in pure Python — witness the K₂ ≈ m²/2
        dense-form blowup the evaluation discusses.  (num_bits scaled
        to 4 so comparison widths fit the 64-bit test field; the
        paper's 32-bit inputs need its 220-bit field.)"""
        import random

        from repro.apps import BISECTION

        sizes = {"m": 256, "L": 8, "num_bits": 4}
        prog = BISECTION.compile(gold, sizes)
        stats = prog.stats()
        assert stats.k2_terms >= 256 * 257 // 2
        # and it solves correctly at that size
        inputs = BISECTION.generate_inputs(random.Random(0), sizes)
        expected = BISECTION.reference(inputs, sizes)
        assert prog.solve(inputs).output_values == expected

    def test_bisection_width_guard(self, gold):
        """Parameters whose comparisons exceed the field raise a clear
        error instead of wrapping silently (the paper's reason for the
        220-bit field, §5.1, surfaced as a compile-time check)."""
        from repro.apps import BISECTION

        with pytest.raises(ValueError, match="220 bits"):
            BISECTION.compile(gold, {"m": 256, "L": 8, "num_bits": 32})

    def test_bisection_paper_field_takes_paper_bits(self):
        """With the paper's 220-bit field, 32-bit numerators compile."""
        from repro.apps import BISECTION
        from repro.field import P220, PrimeField

        field = PrimeField(P220, check_prime=False)
        prog = BISECTION.compile(field, {"m": 16, "L": 8, "num_bits": 32})
        assert prog.quadratic.num_constraints > 0


class TestDivisorInverseCache:
    """The Newton inverse of the (reversed) divisor polynomial is a
    batch-level artifact: computed for the first instance, reused
    bit-identically by every later one."""

    @pytest.fixture()
    def big_qap(self, gold):
        """A QAP over the Newton cutoff, so compute_h actually divides
        through the cached series (small systems use schoolbook)."""
        import random

        from repro.apps import MATMUL
        from repro.poly.divide import _NEWTON_CUTOFF

        prog = MATMUL.compile(gold, {"m": 4})
        qap = build_qap(prog.quadratic)
        assert qap.m >= _NEWTON_CUTOFF
        rng = random.Random(7)
        inputs = MATMUL.generate_inputs(rng, {"m": 4})
        return prog, qap, inputs

    def test_series_cached_and_correct(self, big_qap, gold):
        from repro.poly import poly_mul, trim
        from repro.poly.divide import _series_inverse

        _, qap, _ = big_qap
        inv = qap.divisor_inverse_series()
        assert qap.divisor_inverse_series() is inv
        assert len(inv) == qap.h_length
        fresh = _series_inverse(
            gold, list(reversed(qap.divisor_poly)), qap.h_length
        )
        assert trim(list(inv)) == trim(fresh)
        # rev(D) · inv ≡ 1 (mod t^h_length)
        prod = poly_mul(gold, list(reversed(qap.divisor_poly)), inv)
        assert trim(prod[: qap.h_length]) == [1]

    def test_compute_h_bit_identical_to_uncached(self, big_qap):
        """Dividing through the cached inverse must change nothing —
        same h, instance after instance, as a fresh uncached QAP."""
        prog, qap, inputs = big_qap
        w = prog.solve(inputs).quadratic_witness
        h_first = compute_h(qap, w)  # builds the cache
        h_again = compute_h(qap, w)  # uses it
        assert h_again == h_first
        fresh_qap = build_qap(prog.quadratic)
        assert compute_h(fresh_qap, w) == h_first

    def test_plan_hits_after_first_instance(self, big_qap):
        from repro import telemetry

        prog, _, inputs = big_qap
        qap = build_qap(prog.quadratic)  # fresh: no warm divisor inverse
        w = prog.solve(inputs).quadratic_witness
        tracer = telemetry.enable()
        try:
            with telemetry.span("batch"):
                compute_h(qap, w)
                first = dict(tracer.total_counters())
                compute_h(qap, w)
        finally:
            telemetry.disable()
        totals = tracer.total_counters()
        assert first.get("poly.plan_misses", 0) >= 1  # first instance builds
        # the second instance adds hits but no new divisor-inverse miss
        assert totals.get("poly.plan_hits", 0) > first.get("poly.plan_hits", 0)
        assert totals.get("poly.plan_misses", 0) == first.get("poly.plan_misses", 0)

    def test_small_systems_skip_series_path(self, sumsq_program):
        """Below the cutoff the prover keeps schoolbook division: the
        divisor-inverse cache is never populated."""
        from repro.poly.divide import _NEWTON_CUTOFF

        qap = build_qap(sumsq_program.quadratic)
        assert qap.m < _NEWTON_CUTOFF
        sol = sumsq_program.solve([1, 2, 3])
        compute_h(qap, sol.quadratic_witness)
        assert qap._divisor_inverse is None
