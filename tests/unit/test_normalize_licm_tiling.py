"""Unit tests for loop normalization, LICM, and tiling."""

import pytest

from repro.errors import TransformError
from repro.frontend import compile_source
from repro.ir import LoopNest, print_program, run_program
from repro.kernels import FIR
from repro.transform.licm import hoist_invariants
from repro.transform.normalize import normalize_loops
from repro.transform.tiling import tile_loop
from repro.transform.unroll import UnrollVector, unroll_and_jam


class TestNormalize:
    def test_strided_loop_normalizes(self):
        src = "int A[16]; for (i = 4; i < 16; i += 2) A[i] = i;"
        program = compile_source(src)
        normalized = normalize_loops(program)
        nest = LoopNest(normalized)
        assert (nest.outermost.lower, nest.outermost.step) == (0, 1)
        assert nest.outermost.trip_count == 6
        expected = run_program(program).arrays["A"].cells
        assert run_program(normalized).arrays["A"].cells == expected

    def test_already_normal_untouched(self, fir_program):
        assert print_program(normalize_loops(fir_program)) == print_program(fir_program)

    def test_unrolled_fir_normalizes_with_semantics(self, fir_program):
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(2, 2))
        normalized = normalize_loops(unrolled)
        nest = LoopNest(normalized)
        assert nest.trip_counts == (32, 16)
        inputs = FIR.random_inputs(4)
        expected = run_program(fir_program, inputs).arrays["D"].cells
        assert run_program(normalized, inputs).arrays["D"].cells == expected

    def test_subscripts_fold_strides(self, fir_program):
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(2, 2))
        text = print_program(normalize_loops(unrolled))
        assert "2 * i" in text  # stride folded into the subscript


class TestLICM:
    def test_invariant_assignment_hoisted(self):
        src = """
        int A[8]; int base;
        for (i = 0; i < 8; i++) {
          base = 5;
          A[i] = base + i;
        }
        """
        hoisted = hoist_invariants(compile_source(src))
        text = print_program(hoisted)
        assert text.index("base = 5;") < text.index("for (")

    def test_hoist_chain(self):
        src = """
        int A[8]; int a; int b;
        for (i = 0; i < 8; i++) {
          a = 5;
          b = a + 2;
          A[i] = b + i;
        }
        """
        program = compile_source(src)
        hoisted = hoist_invariants(program)
        text = print_program(hoisted)
        assert text.index("b = a + 2;") < text.index("for (")
        assert run_program(hoisted).arrays["A"].cells == \
            run_program(program).arrays["A"].cells

    def test_variant_value_stays(self):
        src = """
        int A[8]; int t;
        for (i = 0; i < 8; i++) {
          t = i * 2;
          A[i] = t;
        }
        """
        hoisted = hoist_invariants(compile_source(src))
        text = print_program(hoisted)
        assert text.index("for (") < text.index("t = i * 2;")

    def test_read_before_write_in_body_blocks_hoist(self):
        src = """
        int A[8]; int t;
        for (i = 0; i < 8; i++) {
          A[i] = t;
          t = 5;
        }
        """
        program = compile_source(src)
        hoisted = hoist_invariants(program)
        inputs = {"t": 42}
        assert run_program(hoisted, inputs).arrays["A"].cells == \
            run_program(program, inputs).arrays["A"].cells

    def test_self_accumulation_never_hoisted(self):
        """Regression: `s = s + c` reads its own target — hoisting it
        would collapse the reduction to one step."""
        src = """
        int A[1]; int s;
        for (i = 0; i < 4; i++) {
          s = s + 3;
        }
        """
        program = compile_source(src)
        hoisted = hoist_invariants(program)
        assert run_program(hoisted).scalars["s"] == 12
        text = print_program(hoisted)
        assert text.index("for (") < text.index("s = s + 3;")

    def test_zero_trip_loop_untouched(self):
        src = """
        int A[8]; int t;
        for (i = 5; i < 5; i++) {
          t = 7;
          A[0] = t;
        }
        """
        program = compile_source(src)
        hoisted = hoist_invariants(program)
        assert run_program(hoisted).scalars["t"] == 0  # never executed

    def test_nothing_to_hoist_returns_the_input(self, fir_program):
        assert hoist_invariants(fir_program) is fir_program
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(2, 2))
        assert hoist_invariants(unrolled) is unrolled

    def test_hoist_keeps_untouched_statements(self):
        src = """
        int A[8]; int t; int s;
        for (i = 0; i < 8; i++) {
          t = 5;
          s = s + i;
          A[i] = t;
        }
        """
        program = compile_source(src)
        hoisted = hoist_invariants(program)
        loop = program.body[0]
        assert hoisted.body[0] is loop.body[0]  # ``t = 5`` moved out as is
        assert hoisted.body[1].body[0] is loop.body[1]


class TestTiling:
    def test_tile_structure(self):
        src = "int A[16]; for (i = 0; i < 16; i++) A[i] = i;"
        tiled = tile_loop(compile_source(src), "i", 4)
        nest = LoopNest(tiled)
        assert nest.depth == 2
        assert nest.trip_counts == (4, 4)
        assert nest.index_vars == ("i_t", "i")

    def test_tile_semantics(self):
        src = "int A[16]; for (i = 0; i < 16; i++) A[i] = i * 3;"
        program = compile_source(src)
        expected = run_program(program).arrays["A"].cells
        tiled = tile_loop(program, "i", 4)
        assert run_program(tiled).arrays["A"].cells == expected

    def test_tile_inner_of_nest(self, fir_program):
        tiled = tile_loop(fir_program, "i", 8)
        from repro.kernels import FIR
        inputs = FIR.random_inputs(6)
        expected = run_program(fir_program, inputs).arrays["D"].cells
        assert run_program(tiled, inputs).arrays["D"].cells == expected

    def test_tile_and_hoist_reduces_rotating_registers(self, fir_program):
        """Section 5.4: strip-mine i and hoist the tile loop above the
        carrier j, so the rotating bank spans one tile of C."""
        from repro.analysis.reuse import ReuseAnalysis
        from repro.kernels import FIR
        from repro.transform.interchange import interchange_loops
        before = ReuseAnalysis.run(LoopNest(fir_program)).total_registers()
        tiled = tile_loop(fir_program, "i", 8)
        hoisted = interchange_loops(tiled, "j", "i_t")
        after = ReuseAnalysis.run(LoopNest(hoisted)).total_registers()
        assert before == 33
        assert after == 8 + 1  # one tile of C plus the D accumulator
        inputs = FIR.random_inputs(13)
        expected = run_program(fir_program, inputs).arrays["D"].cells
        assert run_program(hoisted, inputs).arrays["D"].cells == expected

    def test_nondivisor_tile_rejected(self):
        src = "int A[16]; for (i = 0; i < 16; i++) A[i] = i;"
        with pytest.raises(TransformError, match="does not divide"):
            tile_loop(compile_source(src), "i", 5)

    def test_unnormalized_loop_rejected(self):
        src = "int A[16]; for (i = 0; i < 16; i += 2) A[i] = i;"
        with pytest.raises(TransformError, match="normalized"):
            tile_loop(compile_source(src), "i", 4)

    def test_tile_of_full_trip_is_identity(self):
        src = "int A[16]; for (i = 0; i < 16; i++) A[i] = i;"
        program = compile_source(src)
        assert print_program(tile_loop(program, "i", 16)) == print_program(program)
