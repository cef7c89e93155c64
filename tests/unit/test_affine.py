"""Unit tests for affine subscript analysis."""

import pytest

from repro.analysis.affine import (
    AffineExpr, all_uniformly_generated, collect_accesses,
    group_uniformly_generated, linearize,
)
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir import LoopNest
from repro.ir.builder import add, arr, binop, lit, mul, neg, sub, var


class TestLinearize:
    def test_simple_sum(self):
        affine = linearize(add("i", "j"), ["i", "j"])
        assert affine.coefficients == {"i": 1, "j": 1}
        assert affine.constant == 0

    def test_coefficients_and_constant(self):
        affine = linearize(add(mul(2, "i"), add(mul("j", 3), 5)), ["i", "j"])
        assert affine.coefficients == {"i": 2, "j": 3}
        assert affine.constant == 5

    def test_subtraction_and_negation(self):
        affine = linearize(sub(neg(var("i")), 1), ["i"])
        assert affine.coefficients == {"i": -1}
        assert affine.constant == -1

    def test_shift_as_multiply(self):
        affine = linearize(binop("<<", var("i"), lit(2)), ["i"])
        assert affine.coefficients == {"i": 4}

    def test_cancellation_drops_term(self):
        affine = linearize(sub(add("i", "j"), var("i")), ["i", "j"])
        assert affine.coefficients == {"j": 1}

    def test_non_affine_product(self):
        with pytest.raises(AnalysisError, match="non-linear"):
            linearize(mul("i", "j"), ["i", "j"])

    def test_non_index_variable(self):
        with pytest.raises(AnalysisError, match="non-index variable"):
            linearize(add("i", "n"), ["i"])

    def test_array_in_subscript(self):
        with pytest.raises(AnalysisError):
            linearize(arr("A", "i"), ["i"])

    def test_form_is_derived_once_per_node(self):
        expr = add(mul(2, "i"), 1)
        first = linearize(expr, ["i", "j"])
        assert linearize(expr, ("i",)) is first
        assert expr == add(mul(2, "i"), 1)  # equality ignores the form

    def test_cached_form_still_checks_the_index_variables(self):
        expr = add("i", "j")
        linearize(expr, ["i", "j"])
        with pytest.raises(AnalysisError, match="non-index variable"):
            linearize(expr, ["i"])

    def test_cancelled_variable_still_checked(self):
        expr = sub(add("i", "n"), var("n"))
        assert linearize(expr, ["i", "n"]).coefficients == {"i": 1}
        with pytest.raises(AnalysisError, match="non-index variable"):
            linearize(expr, ["i"])

    def test_non_affine_raises_every_time(self):
        expr = mul("i", "j")
        for _ in range(2):
            with pytest.raises(AnalysisError, match="non-linear"):
                linearize(expr, ["i", "j"])


class TestAffineExpr:
    def test_evaluate(self):
        affine = AffineExpr.from_parts({"i": 2, "j": -1}, 3)
        assert affine.evaluate({"i": 4, "j": 1}) == 10

    def test_same_linear_part(self):
        a = AffineExpr.from_parts({"i": 1, "j": 1}, 0)
        b = AffineExpr.from_parts({"j": 1, "i": 1}, 5)
        c = AffineExpr.from_parts({"i": 2, "j": 1}, 0)
        assert a.same_linear_part(b)
        assert not a.same_linear_part(c)

    def test_substituted(self):
        affine = AffineExpr.from_parts({"i": 2}, 1)
        result = affine.substituted("i", AffineExpr.from_parts({"t": 1}, 3))
        assert result.coefficients == {"t": 2}
        assert result.constant == 7

    def test_zero_coefficients_dropped(self):
        affine = AffineExpr.from_parts({"i": 0, "j": 1}, 0)
        assert affine.variables == ("j",)

    def test_str(self):
        affine = AffineExpr.from_parts({"i": 1, "j": -2}, 4)
        assert str(affine) == "i - 2*j + 4"


class TestCollect:
    def test_fir_accesses(self, fir_program):
        accesses = collect_accesses(LoopNest(fir_program))
        # D read, S read, C read, D write
        assert len(accesses) == 4
        writes = [a for a in accesses if a.is_write]
        assert len(writes) == 1 and writes[0].array == "D"

    def test_reads_precede_write_of_same_statement(self, fir_program):
        accesses = collect_accesses(LoopNest(fir_program))
        assert accesses[-1].is_write

    def test_depth_recorded(self, mm_program):
        accesses = collect_accesses(LoopNest(mm_program))
        assert all(a.depth == 2 for a in accesses)


class TestUniformlyGenerated:
    def test_fir_grouping(self, fir_program):
        accesses = collect_accesses(LoopNest(fir_program))
        groups = group_uniformly_generated(accesses)
        by_array = {}
        for (array, _sig), members in groups.items():
            by_array.setdefault(array, []).append(members)
        assert len(by_array["D"]) == 1 and len(by_array["D"][0]) == 2
        assert len(by_array["S"]) == 1
        assert len(by_array["C"]) == 1

    def test_mixed_strides_split_groups(self):
        src = """
        int A[64]; int x;
        for (i = 0; i < 8; i++) x = x + A[i] + A[2 * i];
        """
        nest = LoopNest(compile_source(src))
        accesses = collect_accesses(nest)
        assert not all_uniformly_generated(accesses, "A")
        assert len(group_uniformly_generated(accesses)) == 2
