"""Dataflow graph construction for one region.

Each region becomes a DAG of operation nodes:

* ``read`` / ``write`` — external memory accesses, tagged with the
  physical memory their array maps to;
* arithmetic/logic/compare/intrinsic nodes — one per operator in the
  expression trees;
* ``select`` — the multiplexer materialized by if-conversion of an
  ``if`` statement (both arms execute; predicated writes still occupy
  their memory port, per the paper's conditional-memory-access rule);
* ``rotate`` — a register-bank rotation (one cycle, no operator area).

Register reads/writes are free: a scalar assignment aliases its
right-hand side's node.  Subscript (address) expressions do *not*
generate datapath nodes — address generation lives in the FSM/counter
logic, which the area model charges per memory port — so memory nodes
issue as soon as their ordering predecessors allow.

Edges encode: scalar def-use, memory RAW/WAR/WAW ordering per physical
memory bank, and the anti-dependences of rotations (a rotation must wait
for every use of the old register values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import SynthesisError
from repro.ir.expr import (
    COMPARE_OPS, LOGICAL_OPS, ArrayRef, BinOp, Call, Expr, IntLit, UnOp, VarRef,
)
from repro.ir.stmt import Assign, If, RotateRegisters, Stmt
from repro.ir.symbols import Program
from repro.layout.plan import InterleavedArray
from repro.synthesis.regions import Region


@dataclass
class Node:
    """One scheduled operation."""

    index: int
    kind: str                 # operator kind, "read", "write", "select", "rotate"
    width: int
    preds: List["Node"] = field(default_factory=list)
    #: for read/write nodes: the array and its physical memory.
    array: Optional[str] = None
    memory: Optional[int] = None
    predicated: bool = False

    @property
    def is_memory(self) -> bool:
        return self.kind in ("read", "write")

    @property
    def is_write(self) -> bool:
        return self.kind == "write"

    @property
    def is_datapath_op(self) -> bool:
        """True for nodes that bind to a datapath operator (area + compute
        delay); memory accesses and rotations are excluded."""
        return not self.is_memory and self.kind != "rotate"

    def __repr__(self) -> str:
        return f"Node({self.index}:{self.kind}/{self.width})"


@dataclass
class Dataflow:
    """The DAG for one region, nodes in topological (creation) order."""

    nodes: List[Node]

    @property
    def memory_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.is_memory]

    @property
    def op_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.is_datapath_op]

    def memory_bits(self) -> int:
        return sum(n.width for n in self.memory_nodes)


class DataflowBuilder:
    """Builds the DAG for a region, given type and layout context."""

    def __init__(
        self,
        program: Program,
        memory_of: Mapping[str, int],
        index_widths: Optional[Mapping[str, int]] = None,
        interleaved: Optional[Mapping[str, "InterleavedArray"]] = None,
    ):
        self.symbols = program.symbol_table
        self.memory_of = memory_of
        self.index_widths = dict(index_widths or {})
        self.interleaved = dict(interleaved or {})
        self.nodes: List[Node] = []
        # dataflow state
        self.last_def: Dict[str, Optional[Node]] = {}
        self.last_uses: Dict[str, List[Node]] = {}
        self.last_write: Dict[str, Optional[Node]] = {}
        self.reads_since_write: Dict[str, List[Node]] = {}
        # names assigned inside currently-open `if` branches (a stack, for
        # nesting); drives select insertion at branch merges.
        self._assignment_logs: List[set] = []

    # -- public -------------------------------------------------------------

    def build(self, region: Region) -> Dataflow:
        for stmt in region.statements:
            self._visit_stmt(stmt, predicate=None)
        return Dataflow(self.nodes)

    # -- statements -----------------------------------------------------------

    def _visit_stmt(self, stmt: Stmt, predicate: Optional[Node]) -> None:
        if isinstance(stmt, Assign):
            value = self._visit_expr(stmt.value, predicate)
            if isinstance(stmt.target, VarRef):
                self._define(stmt.target.name, value, predicate)
            else:
                write = self._emit_write(stmt.target, value, predicate)
                if isinstance(stmt.value, VarRef):
                    self.last_uses.setdefault(stmt.value.name, []).append(write)
        elif isinstance(stmt, If):
            self._visit_if(stmt, predicate)
        elif isinstance(stmt, RotateRegisters):
            self._visit_rotate(stmt, predicate)
        else:
            raise SynthesisError(f"cannot synthesize statement {type(stmt).__name__}")

    def _visit_if(self, stmt: If, predicate: Optional[Node]) -> None:
        cond = self._visit_expr(stmt.cond, predicate)
        guard = self._combine_predicates(predicate, cond)
        before = dict(self.last_def)
        then_assigned, after_then = self._visit_branch(stmt.then_body, guard, before)
        else_assigned, after_else = self._visit_branch(stmt.else_body, guard, before)
        # Merge: any scalar assigned under the guard needs a mux between
        # its two incoming values — even when both are constants (no
        # producing node), the hardware still selects between them.
        merged = dict(before)
        for name in then_assigned | else_assigned:
            then_def = after_then.get(name, before.get(name))
            else_def = after_else.get(name, before.get(name))
            both_sides = name in then_assigned and name in else_assigned
            if both_sides and then_def is else_def and then_def is not None:
                merged[name] = then_def
                continue
            width = self._scalar_width(name)
            preds = [n for n in (guard, then_def, else_def) if n is not None]
            merged[name] = self._new_node("select", width, preds)
        self.last_def = merged

    def _visit_branch(
        self, body: Tuple[Stmt, ...], guard: Optional[Node], before: Dict
    ) -> Tuple[set, Dict]:
        """Visit one branch from the pre-if state; returns the names it
        assigned and its final definition map."""
        self.last_def = dict(before)
        self._assignment_logs.append(set())
        for stmt in body:
            self._visit_stmt(stmt, guard)
        assigned = self._assignment_logs.pop()
        for log in self._assignment_logs:
            log |= assigned  # nested branch assignments surface outward
        return assigned, dict(self.last_def)

    def _visit_rotate(self, stmt: RotateRegisters, predicate: Optional[Node]) -> None:
        preds: List[Node] = []
        for name in stmt.registers:
            definition = self.last_def.get(name)
            if definition is not None:
                preds.append(definition)
            preds.extend(self.last_uses.get(name, ()))
        if predicate is not None:
            preds.append(predicate)
        width = self._scalar_width(stmt.registers[0])
        node = self._new_node("rotate", width, preds, predicated=predicate is not None)
        for name in stmt.registers:
            self.last_def[name] = node
            self.last_uses[name] = []

    # -- expressions -----------------------------------------------------------

    def _visit_expr(self, expr: Expr, predicate: Optional[Node]) -> Optional[Node]:
        """Returns the node producing the expression's value, or ``None``
        when the value is available without computation (literals,
        loop indices, scalars defined outside the region)."""
        return self._visit(expr, predicate)[0]

    def _visit(
        self, expr: Expr, predicate: Optional[Node]
    ) -> Tuple[Optional[Node], int]:
        """:meth:`_visit_expr` plus the expression's bit width, so every
        node is sized once, from its operands' widths."""
        if isinstance(expr, IntLit):
            return None, max(expr.value.bit_length() + 1, 2)
        if isinstance(expr, VarRef):
            return self.last_def.get(expr.name), self._scalar_width(expr.name)
        if isinstance(expr, ArrayRef):
            node = self._emit_read(expr, predicate)
            return node, node.width
        if isinstance(expr, UnOp):
            operand, operand_width = self._visit(expr.operand, predicate)
            width = 1 if expr.op == "!" else operand_width
            node = self._new_node(expr.op, width, _drop_none([operand]))
            self._record_register_uses(node, (expr.operand,))
            return node, width
        if isinstance(expr, Call):
            visited = [self._visit(a, predicate) for a in expr.args]
            width = max(arg_width for _, arg_width in visited)
            node = self._new_node(
                expr.name, width, _drop_none([arg for arg, _ in visited])
            )
            self._record_register_uses(node, expr.args)
            return node, width
        if isinstance(expr, BinOp):
            left, left_width = self._visit(expr.left, predicate)
            right, right_width = self._visit(expr.right, predicate)
            if expr.op in COMPARE_OPS or expr.op in LOGICAL_OPS:
                width = 1
            else:
                width = max(left_width, right_width)
            kind = expr.op
            # Strength reduction, as logic synthesis performs it: division
            # or multiplication by a power-of-two literal is wiring plus a
            # shift, not a divider/multiplier.
            if kind in ("/", "*", "%") and _power_of_two_literal(expr.right):
                kind = ">>" if kind == "/" else ("<<" if kind == "*" else "&")
            elif kind == "*" and _power_of_two_literal(expr.left):
                kind = "<<"
            node = self._new_node(kind, width, _drop_none([left, right]))
            self._record_register_uses(node, (expr.left, expr.right))
            return node, width
        raise SynthesisError(f"cannot synthesize expression {type(expr).__name__}")

    def _record_register_uses(self, consumer: Node, operands: Tuple[Expr, ...]) -> None:
        """Register the consumer as a use of directly-referenced scalars —
        rotation anti-dependences need to wait for these consumers."""
        for operand in operands:
            if isinstance(operand, VarRef):
                self.last_uses.setdefault(operand.name, []).append(consumer)

    # -- memory ------------------------------------------------------------------

    def _emit_read(self, ref: ArrayRef, predicate: Optional[Node]) -> Node:
        memory = self._memory_of_ref(ref)
        width = self._element_width(ref.array)
        preds = _drop_none([self.last_write.get(ref.array), predicate])
        node = self._new_node(
            "read", width, preds, array=ref.array, memory=memory,
            predicated=predicate is not None,
        )
        self.reads_since_write.setdefault(ref.array, []).append(node)
        return node

    def _emit_write(
        self, ref: ArrayRef, value: Optional[Node], predicate: Optional[Node]
    ) -> Node:
        memory = self._memory_of_ref(ref)
        width = self._element_width(ref.array)
        preds = _drop_none(
            [value, self.last_write.get(ref.array), predicate]
            + self.reads_since_write.get(ref.array, [])
        )
        node = self._new_node(
            "write", width, preds, array=ref.array, memory=memory,
            predicated=predicate is not None,
        )
        self.last_write[ref.array] = node
        self.reads_since_write[ref.array] = []
        return node

    # -- helpers -----------------------------------------------------------------

    def _define(self, name: str, value: Optional[Node], predicate: Optional[Node]) -> None:
        self.last_def[name] = value
        self.last_uses[name] = []
        for log in self._assignment_logs:
            log.add(name)

    def _combine_predicates(
        self, outer: Optional[Node], cond: Optional[Node]
    ) -> Optional[Node]:
        if outer is None:
            return cond
        if cond is None:
            return outer
        return self._new_node("&&", 1, [outer, cond])

    def _new_node(
        self, kind: str, width: int, preds: List[Node],
        array: Optional[str] = None, memory: Optional[int] = None,
        predicated: bool = False,
    ) -> Node:
        node = Node(
            index=len(self.nodes), kind=kind, width=width, preds=list(preds),
            array=array, memory=memory, predicated=predicated,
        )
        self.nodes.append(node)
        return node

    def _memory_of_ref(self, ref: ArrayRef) -> int:
        """Physical memory serving this reference.

        Interleaved arrays cycle elements across several memories; the
        access's constant subscript offset (modulo the interleave) picks
        the port it occupies each iteration — distinct offsets never
        collide, same offsets always do, which is exactly what the
        scheduler must see.
        """
        spec = self.interleaved.get(ref.array)
        if spec is None:
            try:
                return self.memory_of[ref.array]
            except KeyError:
                raise SynthesisError(
                    f"array {ref.array!r} has no physical memory assignment"
                ) from None
        from repro.analysis.affine import linearize
        from repro.errors import AnalysisError
        index_expr = ref.indices[spec.dim]
        try:
            affine = linearize(index_expr, list(self.index_widths))
            constant = affine.constant
        except AnalysisError:
            constant = 0  # non-affine: conservatively share port 0's slot
        return spec.memory_for_offset(constant)

    def _element_width(self, array: str) -> int:
        decl = self.symbols.get(array)
        if decl is None or not decl.is_array:
            raise SynthesisError(f"{array!r} is not a declared array")
        return decl.type.width

    def _scalar_width(self, name: str) -> int:
        decl = self.symbols.get(name)
        if decl is not None:
            return decl.type.width
        return self.index_widths.get(name, 32)


def _drop_none(items: List[Optional[Node]]) -> List[Node]:
    return [item for item in items if item is not None]


def _power_of_two_literal(expr: Expr) -> bool:
    return (
        isinstance(expr, IntLit)
        and expr.value > 0
        and expr.value & (expr.value - 1) == 0
    )
