"""Variable declarations, symbol tables, and the top-level Program node.

A :class:`Program` is what the frontend produces and every later stage
consumes: a set of declarations plus a statement sequence whose
interesting part is a single loop nest (the paper maps one loop nest at a
time to hardware).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import SemanticError
from repro.ir.expr import ArrayRef, VarRef
from repro.ir.stmt import Assign, Stmt, walk_all
from repro.ir.types import INT32, IntType


@dataclass(frozen=True)
class VarDecl:
    """A scalar or array variable declaration.

    Attributes:
        name: C identifier.
        type: element type (scalars: the variable's own type).
        dims: array dimension extents, empty for scalars.  Constant, per
            the paper's input restrictions.
    """

    name: str
    type: IntType = INT32
    dims: Tuple[int, ...] = ()

    def __post_init__(self):
        for extent in self.dims:
            if extent <= 0:
                raise ValueError(f"array {self.name}: dimension extent must be positive")

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def element_count(self) -> int:
        """Total number of elements (1 for scalars)."""
        count = 1
        for extent in self.dims:
            count *= extent
        return count

    @property
    def size_bits(self) -> int:
        """Total storage footprint in bits."""
        return self.element_count * self.type.width

    def __str__(self) -> str:
        subs = "".join(f"[{d}]" for d in self.dims)
        return f"{self.type} {self.name}{subs};"


@dataclass(frozen=True)
class Program:
    """A compilation unit: declarations plus a statement sequence.

    The frontend guarantees every name referenced in ``body`` is declared
    (or is a loop index variable).  Transformations that introduce
    registers add declarations via :meth:`with_decl`.
    """

    name: str
    decls: Tuple[VarDecl, ...]
    body: Tuple[Stmt, ...]

    def __post_init__(self):
        seen = set()
        for decl in self.decls:
            if decl.name in seen:
                raise SemanticError(f"duplicate declaration of {decl.name!r}")
            seen.add(decl.name)

    @property
    def symbol_table(self) -> Dict[str, VarDecl]:
        return {decl.name: decl for decl in self.decls}

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the printed program (the memo's content hash).

        Computed on first use and kept on this object: a program never
        changes, and the digest goes when the program does.
        """
        from repro.ir.printer import print_program
        return hashlib.sha256(print_program(self).encode("utf-8")).hexdigest()

    def decl(self, name: str) -> VarDecl:
        """Look up a declaration, raising :class:`SemanticError` if missing."""
        for candidate in self.decls:
            if candidate.name == name:
                return candidate
        raise SemanticError(f"{name!r} is not declared in program {self.name!r}")

    def has_decl(self, name: str) -> bool:
        return any(decl.name == name for decl in self.decls)

    def with_decl(self, *new_decls: VarDecl) -> "Program":
        """A copy of this program with extra declarations appended."""
        return replace(self, decls=self.decls + tuple(new_decls))

    def with_body(self, body: Tuple[Stmt, ...]) -> "Program":
        """A copy of this program with a replaced statement sequence."""
        return replace(self, body=tuple(body))

    def arrays(self) -> Tuple[VarDecl, ...]:
        """All array declarations, in declaration order."""
        return tuple(decl for decl in self.decls if decl.is_array)

    def scalars(self) -> Tuple[VarDecl, ...]:
        """All scalar declarations, in declaration order."""
        return tuple(decl for decl in self.decls if not decl.is_array)

    def statements(self) -> Iterator[Stmt]:
        """Pre-order traversal of every statement in the program."""
        return walk_all(self.body)

    def written_arrays(self) -> frozenset:
        """Names of arrays that appear as assignment targets anywhere."""
        names = set()
        for stmt in self.statements():
            if isinstance(stmt, Assign) and isinstance(stmt.target, ArrayRef):
                names.add(stmt.target.array)
        return frozenset(names)

    def read_arrays(self) -> frozenset:
        """Names of arrays read anywhere (including in subscripts of writes)."""
        names = set()
        for stmt in self.statements():
            for expr in stmt.expressions():
                for node in expr.walk():
                    if isinstance(node, ArrayRef) and node is not getattr(stmt, "target", None):
                        names.add(node.array)
        return frozenset(names)
