"""Unit tests for expression nodes, substitution, and constant folding."""

import pytest

from repro.ir.builder import add, arr, binop, call, ex, lit, mul, neg, sub, var
from repro.ir.expr import (
    ArrayRef, BinOp, Call, IntLit, UnOp, VarRef,
    array_refs, fold_constants, referenced_arrays, referenced_scalars,
    substitute, substitute_folded,
)


class TestConstruction:
    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp("**", lit(1), lit(2))

    def test_unknown_unop_rejected(self):
        with pytest.raises(ValueError):
            UnOp("++", lit(1))

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(ValueError):
            Call("sqrt", (lit(4),))

    def test_intrinsic_arity_checked(self):
        with pytest.raises(ValueError):
            Call("abs", (lit(1), lit(2)))
        with pytest.raises(ValueError):
            Call("min", (lit(1),))

    def test_array_ref_needs_subscript(self):
        with pytest.raises(ValueError):
            ArrayRef("A", ())

    def test_commutativity_flag(self):
        assert add(1, 2).is_commutative
        assert mul("i", "j").is_commutative
        assert not sub(1, 2).is_commutative
        assert not binop("/", 4, 2).is_commutative


class TestWalk:
    def test_walk_preorder(self):
        expr = add(mul("a", "b"), 3)
        kinds = [type(node).__name__ for node in expr.walk()]
        assert kinds == ["BinOp", "BinOp", "VarRef", "VarRef", "IntLit"]

    def test_referenced_scalars(self):
        expr = add(mul("a", arr("X", "i")), var("b"))
        assert referenced_scalars(expr) == {"a", "b", "i"}

    def test_referenced_arrays(self):
        expr = add(arr("X", "i"), arr("Y", add("i", 1)))
        assert referenced_arrays(expr) == {"X", "Y"}

    def test_array_refs_keeps_duplicates(self):
        expr = add(arr("X", "i"), arr("X", "i"))
        assert len(array_refs(expr)) == 2


class TestSubstitute:
    def test_simple_substitution(self):
        expr = add("i", 1)
        replaced = substitute(expr, {"i": add("i", 2)})
        assert str(replaced) == "((i + 2) + 1)"

    def test_substitution_inside_subscripts(self):
        expr = arr("A", add("i", "j"))
        replaced = substitute(expr, {"i": lit(5)})
        assert replaced == arr("A", add(5, "j"))

    def test_substitution_misses_other_names(self):
        expr = mul("i", "j")
        assert substitute(expr, {"k": lit(0)}) == expr

    def test_substitution_in_calls(self):
        expr = call("max", "i", 0)
        replaced = substitute(expr, {"i": lit(-3)})
        assert replaced == call("max", -3, 0)


class TestFolding:
    def test_literal_arithmetic(self):
        assert fold_constants(add(2, 3)) == lit(5)
        assert fold_constants(mul(4, -2)) == lit(-8)

    def test_additive_identity(self):
        assert fold_constants(add("i", 0)) == var("i")
        assert fold_constants(add(0, "i")) == var("i")
        assert fold_constants(sub("i", 0)) == var("i")

    def test_multiplicative_identities(self):
        assert fold_constants(mul("i", 1)) == var("i")
        assert fold_constants(mul(1, "i")) == var("i")
        assert fold_constants(mul("i", 0)) == lit(0)

    def test_nested_folding(self):
        # (i + 1) + 1 folds subscript constants after unrolling... but
        # folding is not re-association: ((i + 1) + 1) stays because the
        # constant is attached to an inner node.  Literals-only subtrees
        # do fold.
        expr = add(add(2, 3), add("i", 0))
        assert fold_constants(expr) == add(5, "i")

    def test_division_semantics_are_c_like(self):
        assert fold_constants(binop("/", -7, 2)) == lit(-3)  # truncation
        assert fold_constants(binop("%", -7, 2)) == lit(-1)

    def test_division_by_zero_left_unfolded(self):
        expr = binop("/", 1, 0)
        assert fold_constants(expr) == expr

    def test_comparison_folds_to_bool(self):
        folded = fold_constants(binop("<", 1, 2))
        assert folded.value == 1
        assert folded.type.width == 1

    def test_intrinsic_folding(self):
        assert fold_constants(call("abs", -5)).value == 5
        assert fold_constants(call("min", 3, -1)).value == -1
        assert fold_constants(call("max", 3, -1)).value == 3

    def test_unary_folding(self):
        assert fold_constants(neg(lit(5))).value == -5
        assert fold_constants(UnOp("!", lit(0))).value == 1

    def test_nothing_to_fold_returns_the_same_node(self):
        expr = add(arr("A", add("i", 1)), call("abs", var("x")))
        assert fold_constants(expr) is expr
        partly = add(arr("A", add("i", 1)), add(2, 3))
        folded = fold_constants(partly)
        assert folded.left is partly.left and folded.right == lit(5)


class TestSubstituteFolded:
    CASES = [
        add(arr("A", add("i", "j")), mul("j", 1)),
        mul(sub("j", 0), add(2, 3)),
        binop("<", add("j", 0), lit(4)),
        call("max", neg(var("j")), add(0, "k")),
        mul(add("j", "k"), lit(0)),
    ]

    @pytest.mark.parametrize("expr", CASES)
    @pytest.mark.parametrize("bindings", [
        {"j": add("j", 2)},
        {"j": add(0, mul(2, "j")), "k": var("k2")},
        {"j": lit(3)},
        {},
    ])
    def test_equals_fold_after_substitute(self, expr, bindings):
        assert substitute_folded(expr, bindings) == fold_constants(
            substitute(expr, bindings)
        )

    def test_references_are_always_new(self):
        expr = arr("A", var("i"))
        assert substitute_folded(expr, {}) == expr
        assert substitute_folded(expr, {}) is not expr


class TestBuilderCoercion:
    def test_ex_coerces(self):
        assert ex(5) == IntLit(5)
        assert ex("x") == VarRef("x")
        assert ex(lit(1)) == lit(1)

    def test_ex_rejects_bool(self):
        with pytest.raises(TypeError):
            ex(True)

    def test_ex_rejects_junk(self):
        with pytest.raises(TypeError):
            ex(3.14)
