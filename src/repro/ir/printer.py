"""Pretty-printer: render IR back to compilable C-subset source.

The printed form round-trips through the frontend (tested in
``tests/unit/test_printer.py``), which is how we validate that transformed
programs remain inside the accepted language.  ``rotate_registers`` prints
as a call-like statement the parser also accepts.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.expr import ArrayRef, BinOp, Call, Expr, IntLit, UnOp, VarRef
from repro.ir.stmt import Assign, For, If, RotateRegisters, Stmt
from repro.ir.symbols import Program

_INDENT = "  "

# Precedence table for minimal-parenthesis printing, mirroring C.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_UNARY_PRECEDENCE = 11


def print_expr(expr: Expr, parent_precedence: int = 0) -> str:
    """Render an expression with only the parentheses C requires."""
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, BinOp):
        precedence = _PRECEDENCE[expr.op]
        left = print_expr(expr.left, precedence)
        # Right child of a same-precedence non-commutative op needs parens
        # (a - (b - c) must keep them), so bump the requirement by one.
        right = print_expr(expr.right, precedence + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if parent_precedence > precedence else text
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, ArrayRef):
        subs = "".join([f"[{print_expr(index)}]" for index in expr.indices])
        return f"{expr.array}{subs}"
    if isinstance(expr, Call):
        args = ", ".join(print_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, UnOp):
        inner = print_expr(expr.operand, _UNARY_PRECEDENCE)
        if inner.startswith(("-", "+", "~", "!")):
            # "--x" / "--1" would lex as the decrement operator (and
            # negative literals print with a sign); keep "-(-x)".
            inner = f"({inner})"
        text = f"{expr.op}{inner}"
        return f"({text})" if parent_precedence > _UNARY_PRECEDENCE else text
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def print_stmt(stmt: Stmt, depth: int = 0) -> List[str]:
    """Render one statement as a list of indented source lines."""
    pad = _INDENT * depth
    if isinstance(stmt, Assign):
        return [pad + _assignment_text(stmt)]
    if isinstance(stmt, RotateRegisters):
        return [f"{pad}rotate_registers({', '.join(stmt.registers)});"]
    if isinstance(stmt, If):
        lines = [f"{pad}if ({print_expr(stmt.cond)}) {{"]
        for inner in stmt.then_body:
            lines.extend(print_stmt(inner, depth + 1))
        if stmt.else_body:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.else_body:
                lines.extend(print_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, For):
        incr = f"{stmt.var}++" if stmt.step == 1 else f"{stmt.var} += {stmt.step}"
        header = f"{pad}for ({stmt.var} = {stmt.lower}; {stmt.var} < {stmt.upper}; {incr}) {{"
        lines = [header]
        for inner in stmt.body:
            lines.extend(print_stmt(inner, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"unknown statement node: {type(stmt).__name__}")


def _assignment_text(stmt: Assign) -> str:
    """An assignment's line without indentation.

    Transforms pass untouched statements through to their output, so one
    assignment is printed for several stage outputs; its text depends
    only on the (immutable) node and is kept on it, outside the
    dataclass fields.
    """
    text = getattr(stmt, _TEXT, None)
    if text is None:
        text = f"{print_expr(stmt.target)} = {print_expr(stmt.value)};"
        object.__setattr__(stmt, _TEXT, text)
    return text


#: The attribute under which :func:`_assignment_text` keeps a line.
_TEXT = "_printed"


def print_program(program: Program) -> str:
    """Render a full program: declarations, then the statement sequence."""
    lines: List[str] = []
    for decl in program.decls:
        dims = "".join(f"[{d}]" for d in decl.dims)
        lines.append(f"{decl.type} {decl.name}{dims};")
    if program.decls and program.body:
        lines.append("")
    for stmt in program.body:
        lines.extend(print_stmt(stmt))
    return "\n".join(lines) + "\n"
