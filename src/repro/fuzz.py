"""Differential fuzzing: random affine loop nests vs. the interpreter.

The pipeline's correctness story leans on two oracles:

* the **printer/parser round trip** — every program the generator emits
  must survive ``parse(print(p)) == p`` structurally, the same pin the
  kernels carry in ``tests/unit/test_printer.py``;
* the **reference interpreter** (:mod:`repro.ir.interp`) — a transform
  is semantics-preserving iff the transformed program computes the same
  array contents as the original on concrete inputs.

``run_fuzz`` draws seeded random near-perfect affine loop nests, checks
both oracles, and differentially tests unroll-and-jam (divisor vectors
gated by :func:`check_unroll_legality`, plus always-legal innermost
epilogue unrolling), loop peeling, tiling, and the whole Figure-3
pipeline (:func:`repro.transform.compile_design`: scalar replacement,
LICM, normalization and data layout included, its output run on the
layout plan's distributed inputs and gathered back per original array).
Every transformed program additionally passes the IR verifier with the
affine contract (:func:`repro.ir.verify.check_ir`); the pipeline checks
each stage's output itself.

Determinism: iteration ``k`` of ``run_fuzz(seed=s)`` derives its RNG
from the string ``"{s}:{k}"``, so any failure reproduces from
``(seed, iteration)`` alone — which is exactly what a crash artifact
records.  Scalar temporaries are *not* compared (unroll privatizes and
renames them); array state is the semantics.

Failure policy: a mismatch, verifier violation, or unexpected exception
becomes a :class:`FuzzFailure` in the report — ``run_fuzz`` itself never
raises on a bad program, so a CI fuzz job distinguishes "found a bug"
(report, artifacts) from "the harness crashed" (non-zero for the wrong
reason).  :class:`~repro.ir.interp.InterpBudgetExceeded` and illegal
unroll vectors are *skips*, not bugs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError, TransformError, failure_kind
from repro.frontend import compile_source
from repro.ir.expr import ArrayRef, BinOp, Expr, IntLit, UnOp, VarRef
from repro.ir.interp import InterpBudgetExceeded, Interpreter
from repro.ir.printer import print_program
from repro.ir.stmt import Assign, For, If, Stmt
from repro.ir.symbols import Program, VarDecl
from repro.ir.verify import check_ir
from repro.transform.peel import peel_loop
from repro.transform.pipeline import check_unroll_legality, compile_design
from repro.transform.tiling import tile_loop
from repro.transform.unroll import UnrollVector, unroll_and_jam

#: Generated nests execute at most a few hundred statements; anything
#: past this budget is a runaway and is counted as a skip.
DEFAULT_MAX_STEPS = 200_000

#: Physical memories the pipeline check lays arrays out across.
PIPELINE_MEMORIES = 4


# -- the generator -----------------------------------------------------------


@dataclass(frozen=True)
class _LoopSpec:
    var: str
    lower: int
    step: int
    trip: int

    @property
    def upper(self) -> int:
        return self.lower + self.trip * self.step

    @property
    def max_value(self) -> int:
        """Largest value the index variable takes."""
        return self.lower + (self.trip - 1) * self.step


class _ArraySpec:
    def __init__(self, name: str, dims: Tuple[int, ...]):
        self.name = name
        self.dims = dims


class _NestGenerator:
    """Builds one random, in-bounds, affine near-perfect loop nest."""

    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.name = name
        self.loops: List[_LoopSpec] = []
        self.arrays: List[_ArraySpec] = []
        self.out: Optional[_ArraySpec] = None
        self.has_temp = False
        self.temp_live = False

    def generate(self) -> Program:
        rng = self.rng
        depth = rng.choice((1, 2, 2, 3))
        for d in range(depth):
            self.loops.append(_LoopSpec(
                var=f"i{d}",
                lower=rng.choice((0, 0, 0, 1)),
                step=rng.choice((1, 1, 1, 2)),
                trip=rng.randint(2, 6),
            ))
        for k in range(rng.randint(1, 2)):
            self.arrays.append(self._make_array(chr(ord("a") + k)))
        self.out = self._make_array("out")
        self.has_temp = rng.random() < 0.5

        body = self._innermost_body()
        stmt: Stmt = None  # type: ignore[assignment]
        for spec in reversed(self.loops):
            inner: Tuple[Stmt, ...] = body if stmt is None else (stmt,)
            stmt = For(spec.var, spec.lower, spec.upper, spec.step, inner)
            body = ()

        decls = [
            VarDecl(a.name, dims=a.dims) for a in self.arrays + [self.out]
        ]
        if self.has_temp:
            decls.append(VarDecl("t"))
        return Program(self.name, tuple(decls), (stmt,))

    def _make_array(self, name: str) -> _ArraySpec:
        rng = self.rng
        rank = rng.randint(1, min(2, len(self.loops)))
        dims = []
        for _ in range(rank):
            anchor = rng.choice(self.loops)
            coeff = rng.choice((1, 1, 2))
            dims.append(coeff * anchor.max_value + rng.randint(0, 2) + 1)
        return _ArraySpec(name, tuple(dims))

    def _innermost_body(self) -> Tuple[Stmt, ...]:
        rng = self.rng
        stmts: List[Stmt] = []
        if self.has_temp:
            stmts.append(Assign(VarRef("t"), self._expr(2)))
            self.temp_live = True
        for _ in range(rng.randint(1, 2)):
            write = Assign(
                ArrayRef(self.out.name, self._subscript(self.out)),
                self._expr(2),
            )
            if rng.random() < 0.3:
                guard = rng.choice(self.loops)
                cond = BinOp(
                    rng.choice(("<", "<=", "==", "!=")),
                    VarRef(guard.var),
                    IntLit(rng.randint(guard.lower, guard.max_value)),
                )
                stmts.append(If(cond, (write,), ()))
            else:
                stmts.append(write)
        return tuple(stmts)

    def _subscript(self, array: _ArraySpec) -> Tuple[Expr, ...]:
        return tuple(self._index_expr(extent) for extent in array.dims)

    def _index_expr(self, extent: int) -> Expr:
        """An affine, provably in-bounds index for a dimension of size
        ``extent`` (coefficients nonnegative, so the max lands at the
        anchor loop's last iteration)."""
        rng = self.rng
        anchor = rng.choice(self.loops)
        top = anchor.max_value
        coeffs = [c for c in (0, 1, 1, 1, 2) if c * top <= extent - 1]
        coeff = rng.choice(coeffs or [0])
        offset = rng.randint(0, extent - 1 - coeff * top)
        if coeff == 0:
            return IntLit(offset)
        term: Expr = VarRef(anchor.var)
        if coeff != 1:
            term = BinOp("*", IntLit(coeff), term)
        if offset:
            term = BinOp("+", term, IntLit(offset))
        return term

    def _expr(self, budget: int) -> Expr:
        rng = self.rng
        if budget <= 0 or rng.random() < 0.35:
            return self._leaf()
        op = rng.choice(("+", "+", "-", "*"))
        return BinOp(op, self._expr(budget - 1), self._expr(budget - 1))

    def _leaf(self) -> Expr:
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            value = rng.randint(-4, 4)
            # Negative literals do not round-trip structurally (the
            # parser reads "-3" as unary minus), so spell them that way.
            if value < 0:
                return UnOp("-", IntLit(-value))
            return IntLit(value)
        if roll < 0.45:
            return VarRef(rng.choice(self.loops).var)
        if roll < 0.55 and self.temp_live:
            return VarRef("t")
        # Mostly read inputs; occasionally read the output array to
        # create loop-carried dependences the legality check must judge.
        pool = list(self.arrays)
        if rng.random() < 0.2:
            pool.append(self.out)
        array = rng.choice(pool)
        return ArrayRef(array.name, self._subscript(array))


def generate_program(rng: random.Random, name: str = "fuzz") -> Program:
    """One random affine near-perfect loop nest (see module docstring)."""
    return _NestGenerator(rng, name).generate()


# -- reporting ---------------------------------------------------------------


@dataclass(frozen=True)
class FuzzFailure:
    """One fuzz finding, with everything needed to reproduce it."""

    iteration: int
    seed: str
    stage: str
    kind: str
    message: str
    source: str
    unroll: Optional[Tuple[int, ...]] = None

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "iteration": self.iteration,
            "seed": self.seed,
            "stage": self.stage,
            "kind": self.kind,
            "message": self.message,
        }
        if self.unroll is not None:
            record["unroll"] = list(self.unroll)
        return record

    def __str__(self) -> str:
        extra = f" U={self.unroll}" if self.unroll else ""
        return (
            f"iteration {self.iteration} (seed {self.seed}) "
            f"[{self.stage}{extra}] {self.kind}: {self.message}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    iterations: int
    seed: int
    checked: int = 0
    skipped: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.iterations} iterations (seed {self.seed}), "
            f"{self.checked} checks, {self.skipped} skipped, "
            f"{len(self.failures)} failures"
        ]
        for failure in self.failures:
            lines.append(f"  {failure}")
        for path in self.artifacts:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


# -- the harness -------------------------------------------------------------


def _divisors(n: int) -> List[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class _Iteration:
    """One generated program and its battery of checks."""

    def __init__(
        self,
        index: int,
        seed: str,
        rng: random.Random,
        max_steps: int,
        report: FuzzReport,
    ):
        self.index = index
        self.seed = seed
        self.rng = rng
        self.max_steps = max_steps
        self.report = report
        self.program: Optional[Program] = None
        self.source = ""
        self.inputs: Dict[str, Sequence[int]] = {}
        self.baseline: Optional[Dict[str, Tuple[int, ...]]] = None

    def fail(
        self,
        stage: str,
        message: str,
        kind: str = "fuzz",
        unroll: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.report.failures.append(FuzzFailure(
            iteration=self.index, seed=self.seed, stage=stage, kind=kind,
            message=message, source=self.source, unroll=unroll,
        ))

    def run(self) -> None:
        try:
            self.program = generate_program(self.rng, name=f"fuzz_{self.index}")
            self.source = print_program(self.program)
        except Exception as error:  # generator bug: report, keep fuzzing
            self.fail("generate", str(error), kind=failure_kind(error))
            return
        for check in (self._check_wellformed, self._check_roundtrip,
                      self._check_baseline):
            if not self._guarded(check.__name__, check):
                return
        for check in (self._check_unroll_divisor, self._check_unroll_epilogue,
                      self._check_peel, self._check_tiling,
                      self._check_pipeline):
            self._guarded(check.__name__, check)

    def _guarded(self, label: str, check) -> bool:
        """Run one check, converting unexpected exceptions to findings.
        Returns False when later checks cannot proceed."""
        stage = label.replace("_check_", "")
        try:
            check()
            return True
        except InterpBudgetExceeded:
            self.report.skipped += 1
            return False
        except Exception as error:
            self.fail(stage, str(error), kind=failure_kind(error))
            return False

    # -- individual checks ---------------------------------------------------

    def _check_wellformed(self) -> None:
        check_ir(self.program, require_affine=True, stage="generate")
        self.report.checked += 1

    def _check_roundtrip(self) -> None:
        reparsed = compile_source(self.source, name=self.program.name)
        if reparsed != self.program:
            self.fail(
                "roundtrip",
                "parse(print(p)) != p: the printed form does not "
                "reconstruct the generated program",
            )
            return
        self.report.checked += 1

    def _check_baseline(self) -> None:
        data = random.Random(f"{self.seed}:data")
        for decl in self.program.decls:
            if decl.is_array:
                self.inputs[decl.name] = [
                    data.randint(-20, 20) for _ in range(decl.element_count)
                ]
        state = Interpreter(self.program, max_steps=self.max_steps).run(self.inputs)
        self.baseline = state.snapshot_arrays()
        self.report.checked += 1

    def _differential(
        self, stage: str, transformed: Program,
        unroll: Optional[Tuple[int, ...]] = None,
    ) -> None:
        check_ir(transformed, require_affine=True, stage=stage,
                 kernel=self.program.name)
        state = Interpreter(transformed, max_steps=self.max_steps).run(self.inputs)
        after = state.snapshot_arrays()
        for name, cells in self.baseline.items():
            if after.get(name) != cells:
                self.fail(
                    stage,
                    f"array {name!r} diverged from the reference "
                    f"interpretation (expected {cells}, got {after.get(name)})",
                    unroll=unroll,
                )
                return
        self.report.checked += 1

    def _legal_divisor_vector(self) -> Optional[UnrollVector]:
        """A random divisor vector (not all ones when some loop can
        unroll), or ``None`` — counted as a skip — when unroll-and-jam by
        it is illegal: that is the legality check doing its job, not a
        finding."""
        specs = self._loop_specs()
        factors = tuple(
            self.rng.choice(_divisors(spec.trip)) for spec in specs
        )
        if all(f == 1 for f in factors):
            boostable = [i for i, s in enumerate(specs) if s.trip > 1]
            if boostable:
                i = self.rng.choice(boostable)
                choices = [d for d in _divisors(specs[i].trip) if d > 1]
                factors = factors[:i] + (self.rng.choice(choices),) + factors[i + 1:]
        vector = UnrollVector(factors)
        try:
            check_unroll_legality(self.program, vector)
        except (TransformError, AnalysisError):
            self.report.skipped += 1
            return None
        return vector

    def _check_unroll_divisor(self) -> None:
        """Unroll-and-jam with a legality-checked divisor vector (the
        epilogue check still exercises unrolling when it is illegal)."""
        vector = self._legal_divisor_vector()
        if vector is None:
            return
        self._differential(
            "unroll", unroll_and_jam(self.program, vector),
            unroll=vector.factors,
        )

    def _check_unroll_epilogue(self) -> None:
        """Innermost-only unrolling by an arbitrary (possibly non-divisor)
        factor — always order-preserving, so never needs a legality gate
        and covers the epilogue-loop path."""
        specs = self._loop_specs()
        inner = specs[-1]
        if inner.trip < 2:
            self.report.skipped += 1
            return
        factor = self.rng.randint(2, inner.trip)
        factors = (1,) * (len(specs) - 1) + (factor,)
        self._differential(
            "unroll_epilogue",
            unroll_and_jam(self.program, UnrollVector(factors)),
            unroll=factors,
        )

    def _check_peel(self) -> None:
        spec = self.rng.choice(self._loop_specs())
        self._differential("peel", peel_loop(self.program, spec.var))

    def _check_tiling(self) -> None:
        candidates = [
            spec for spec in self._loop_specs()
            if spec.lower == 0 and spec.step == 1
            and any(1 < d < spec.trip for d in _divisors(spec.trip))
        ]
        if not candidates:
            self.report.skipped += 1
            return
        spec = self.rng.choice(candidates)
        tile = self.rng.choice(
            [d for d in _divisors(spec.trip) if 1 < d < spec.trip]
        )
        self._differential(
            "tiling", tile_loop(self.program, spec.var, tile)
        )

    def _check_pipeline(self) -> None:
        """The whole Figure-3 pipeline at a legality-checked divisor
        vector: every original array, gathered back from the layout's
        banks, must match the reference interpretation."""
        vector = self._legal_divisor_vector()
        if vector is None:
            return
        design = compile_design(self.program, vector, PIPELINE_MEMORIES)
        plan = design.plan
        state = Interpreter(design.program, max_steps=self.max_steps).run(
            plan.distribute_inputs(self.inputs)
        )
        after = state.snapshot_arrays()
        for name, cells in self.baseline.items():
            gathered = tuple(plan.gather_array(after, name))
            if gathered != cells:
                self.fail(
                    "pipeline",
                    f"array {name!r} diverged from the reference "
                    f"interpretation (expected {cells}, got {gathered})",
                    unroll=vector.factors,
                )
                return
        self.report.checked += 1

    def _loop_specs(self) -> List[_LoopSpec]:
        specs = []
        for stmt in _walk_fors(self.program.body):
            specs.append(_LoopSpec(
                stmt.var, stmt.lower, stmt.step, stmt.trip_count
            ))
        return specs


def _walk_fors(body: Sequence[Stmt]):
    for stmt in body:
        if isinstance(stmt, For):
            yield stmt
            yield from _walk_fors(stmt.body)


def run_fuzz(
    iterations: int,
    seed: int = 0,
    artifact_dir: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> FuzzReport:
    """Run ``iterations`` seeded fuzz iterations; never raises on a bad
    program (findings land in the report; artifacts go to
    ``artifact_dir`` when given)."""
    report = FuzzReport(iterations=iterations, seed=seed)
    for k in range(iterations):
        iter_seed = f"{seed}:{k}"
        before = len(report.failures)
        iteration = _Iteration(
            k, iter_seed, random.Random(iter_seed), max_steps, report
        )
        iteration.run()
        if artifact_dir and len(report.failures) > before:
            report.artifacts.extend(
                _write_artifacts(
                    artifact_dir, iteration,
                    report.failures[before:],
                )
            )
    return report


def _write_artifacts(
    artifact_dir: str, iteration: _Iteration, failures: List[FuzzFailure]
) -> List[str]:
    directory = Path(artifact_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"crash_s{iteration.seed.replace(':', '_i')}"
    written: List[str] = []
    source_path = directory / f"{stem}.c"
    source_path.write_text(iteration.source or "// generator failed\n")
    written.append(str(source_path))
    meta_path = directory / f"{stem}.json"
    meta_path.write_text(json.dumps(
        {"failures": [f.as_dict() for f in failures]}, indent=2,
    ) + "\n")
    written.append(str(meta_path))
    return written
