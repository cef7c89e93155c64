"""Unit tests for unroll-and-jam."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import TransformError
from repro.frontend import compile_source
from repro.ir import For, LoopNest, print_program, run_program
from repro.transform.unroll import UnrollVector, unroll_and_jam


class TestUnrollVector:
    def test_product(self):
        assert UnrollVector.of(2, 3, 4).product == 24
        assert UnrollVector.ones(3).product == 1

    def test_nonpositive_rejected(self):
        with pytest.raises(TransformError):
            UnrollVector.of(2, 0)

    def test_dominates(self):
        assert UnrollVector.of(4, 2).dominates(UnrollVector.of(2, 2))
        assert not UnrollVector.of(4, 1).dominates(UnrollVector.of(2, 2))

    def test_with_factor(self):
        assert UnrollVector.of(1, 1).with_factor(0, 8) == UnrollVector.of(8, 1)

    def test_clamped(self):
        assert UnrollVector.of(10, 10).clamped((4, 64)) == UnrollVector.of(4, 10)


class TestStructure:
    def test_step_multiplies(self, fir_program):
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(2, 4))
        nest = LoopNest(unrolled)
        assert nest.outermost.step == 2
        assert nest.innermost.step == 4

    def test_body_replication(self, fir_program):
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(2, 2))
        nest = LoopNest(unrolled)
        assert len(nest.innermost_body) == 4

    def test_iteration_space_preserved(self, fir_program):
        before = LoopNest(fir_program)
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(4, 8))
        after = LoopNest(unrolled)
        total_before = before.iteration_space_size()
        total_after = after.iteration_space_size() * 32
        assert total_before == total_after

    def test_figure_1b_shape(self, fir_program):
        """The unrolled FIR of Figure 1(b): four MACs per body."""
        text = print_program(unroll_and_jam(fir_program, UnrollVector.of(2, 2)))
        assert text.count("D[j] =") == 2
        assert text.count("D[j + 1] =") == 2
        assert "C[i + 1]" in text

    def test_factor_one_is_identity_semantics(self, fir_program):
        unrolled = unroll_and_jam(fir_program, UnrollVector.ones(2))
        assert print_program(unrolled) == print_program(fir_program)

    def test_wrong_arity_rejected(self, fir_program):
        with pytest.raises(TransformError, match="entries"):
            unroll_and_jam(fir_program, UnrollVector.of(2))

    def test_factor_beyond_trip_rejected(self, fir_program):
        with pytest.raises(TransformError, match="exceeds trip count"):
            unroll_and_jam(fir_program, UnrollVector.of(128, 1))


class TestEpilogues:
    def test_nondivisor_creates_epilogue(self, fir_program):
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(3, 1))
        loops = [s for s in unrolled.body if isinstance(s, For)]
        assert len(loops) == 2  # main + epilogue
        main, epilogue = loops
        assert main.step == 3 and main.upper == 63
        assert epilogue.step == 1 and (epilogue.lower, epilogue.upper) == (63, 64)

    def test_divisor_has_no_epilogue(self, fir_program):
        unrolled = unroll_and_jam(fir_program, UnrollVector.of(4, 1))
        loops = [s for s in unrolled.body if isinstance(s, For)]
        assert len(loops) == 1


class TestSemantics:
    @pytest.mark.parametrize("factors", [(2, 2), (4, 1), (1, 32), (3, 5), (7, 3), (64, 32)])
    def test_fir_equivalence(self, fir_program, factors):
        from repro.kernels import FIR
        inputs = FIR.random_inputs(11)
        expected = run_program(fir_program, inputs).snapshot_arrays()
        actual = run_program(
            unroll_and_jam(fir_program, UnrollVector.of(*factors)), inputs
        ).snapshot_arrays()
        assert actual == expected

    def test_scalar_accumulator_survives_jam(self):
        src = """
        int A[8][8]; int total;
        for (i = 0; i < 8; i++)
          for (j = 0; j < 8; j++)
            total = total + A[i][j];
        """
        program = compile_source(src)
        inputs = {"A": list(range(64))}
        expected = run_program(program, inputs).scalars["total"]
        for factors in [(2, 2), (4, 8), (8, 1)]:
            unrolled = unroll_and_jam(program, UnrollVector.of(*factors))
            assert run_program(unrolled, inputs).scalars["total"] == expected

    def test_privatizes_body_temporaries(self):
        src = """
        int A[16]; int B[16]; int t;
        for (i = 0; i < 16; i++) {
          t = A[i] * 3;
          B[i] = t + 1;
        }
        """
        program = compile_source(src)
        inputs = {"A": list(range(16))}
        expected = run_program(program, inputs).arrays["B"].cells
        unrolled = unroll_and_jam(program, UnrollVector.of(4))
        assert run_program(unrolled, inputs).arrays["B"].cells == expected
        # the temporary got per-copy clones
        assert any(d.name.startswith("t__u") for d in unrolled.decls)

    def test_read_before_write_temp_not_privatized(self):
        src = """
        int A[16]; int B[16]; int t;
        for (i = 0; i < 16; i++) {
          B[i] = t;
          t = A[i];
        }
        """
        program = compile_source(src)
        inputs = {"A": [v * 2 for v in range(16)], "t": 99}
        expected = run_program(program, inputs).arrays["B"].cells
        unrolled = unroll_and_jam(program, UnrollVector.of(4))
        assert run_program(unrolled, inputs).arrays["B"].cells == expected
        assert not any(d.name.startswith("t__u") for d in unrolled.decls)

    def test_private_names_do_not_depend_on_the_hash_seed(self):
        """Two privatized scalars get their per-copy names in a fixed
        order, so the printed IR (and every memo key hashed from it) is
        the same in every process."""
        script = (
            "import random\n"
            "from repro.fuzz import generate_program\n"
            "from repro.ir import print_program\n"
            "from repro.transform import UnrollVector, compile_design\n"
            "program = generate_program(random.Random('dig:107'))\n"
            "design = compile_design(program, UnrollVector.of(2, 4), 4)\n"
            "print(print_program(design.program))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        printed = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            printed.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(printed) == 1
        assert "__u0" in printed.pop()
