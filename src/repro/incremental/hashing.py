"""Content hashing for the incremental-evaluation memo store.

Every memo domain keys on a SHA-256 over the *complete* set of inputs
the memoized computation reads, down to the units the incremental layer
reuses:

* **Programs** (:func:`program_hash`) — the printed IR.  Printing is
  ~5x cheaper than verifying and ~50x cheaper than scheduling, so a
  hash-then-lookup always costs less than the computation it may skip.
  The digest is kept on the :class:`~repro.ir.symbols.Program` itself
  (:attr:`~repro.ir.symbols.Program.digest`): IR trees are immutable,
  so a program's printed form — and hence its hash — cannot change, and
  the digest is freed with the program instead of pinning it in a
  process-wide cache.
* **Evaluation contexts** (:func:`context_fingerprint`) — board,
  operator library, pipeline options, and estimation backend: the
  ambient facts a design point's estimate depends on beyond its IR.
  Two walks with the same context share memo entries; changing any
  knob changes the fingerprint and misses cleanly.
* **Design points** (:func:`point_key`) — source program x unroll
  vector x context: the key under which a finished estimate is valid
  *across points, runs, and workers*.
* **Compiled designs** (:func:`design_key`) — printed IR x board x
  library x layout binding x backend: the provenance key stamped on
  every estimate, so a number in a report names exactly what produced
  it.
* **Regions** (:func:`region_fingerprint`) — one straight-line region's
  statements plus everything :func:`repro.synthesis.scheduling.
  schedule_region` reads: the layout binding, index widths, memory
  model, library calibration, and operator constraints.  Two regions
  with equal fingerprints schedule identically, which is what lets
  neighboring unroll points share schedule work.

A stale hit is impossible without a hash collision: there is no
invalidation *protocol*, only keys that stop being computed.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, Optional, Tuple

from repro.ir.printer import print_program, print_stmt
from repro.ir.symbols import Program

#: Field separator for fingerprint parts (never appears in printed IR).
_SEP = "\x1e"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_hash(program: Program) -> str:
    """The content hash of one program's printed IR, computed once per
    program object."""
    return program.digest


def library_fingerprint(library) -> str:
    """The operator-library calibration, serialized stably."""
    return _SEP.join(str(value) for value in (
        library.clock_ns, library.add_slices_per_bit, library.add_delay_ns,
        library.mul_delay_ns, library.div_delay_ns, library.fast_delay_ns,
        library.mul_latency, library.mul_area_divisor, library.div_latency,
        library.register_bits_per_slice,
    ))


def board_fingerprint(board) -> str:
    return _SEP.join(str(value) for value in (
        board.name, board.num_memories, board.clock_ns,
        board.memory.read_latency, board.memory.write_latency,
        board.memory.pipelined, board.fpga.capacity_slices,
    ))


def options_fingerprint(options) -> str:
    """Pipeline options, primitive fields only (stable across runs)."""
    parts = [
        str(options.exploit_outer_reuse), str(options.register_cap),
        str(options.apply_data_layout), str(options.run_licm),
        str(options.narrow_bitwidths), str(options.verify),
    ]
    ranges = options.input_value_ranges
    if ranges:
        parts.append(json.dumps(sorted(ranges.items()), default=str))
    return _SEP.join(parts)


def context_fingerprint(board, library, options, backend_id: str) -> str:
    """One digest over everything a point's estimate depends on beyond
    its source program and unroll vector."""
    return sha(_SEP.join((
        board_fingerprint(board), library_fingerprint(library),
        options_fingerprint(options), f"backend={backend_id}",
    )))


def point_key(source_hash: str, factors: Tuple[int, ...],
              context: str) -> str:
    """The memo key for one design point's finished estimate."""
    return sha(_SEP.join((
        source_hash, ",".join(str(f) for f in factors), context,
    )))


def _binding_parts(physical: Dict[str, int],
                   interleaved: Dict[str, Any]) -> Tuple[str, str]:
    """A layout binding (array -> memory, interleaving specs) as text."""
    return (
        json.dumps(sorted(physical.items())),
        json.dumps(sorted(
            (name, spec.dim, spec.modulus, list(spec.memories))
            for name, spec in interleaved.items()
        )),
    )


def design_key(program: Program, board, plan, library,
               backend_id: str) -> str:
    """The content hash behind ``Provenance.cache_key``.

    The analytic backend's key carries no backend part, so its digests
    match the format that predates pluggable backends; every other
    backend appends its id and can never share a key with analytic.
    """
    parts = [
        print_program(program), board_fingerprint(board),
        library_fingerprint(library),
    ]
    if plan is not None:
        parts.extend(_binding_parts(plan.physical, plan.interleaved))
    if backend_id != "analytic":
        parts.append(f"backend={backend_id}")
    return sha(_SEP.join(parts))


def schedule_context(
    physical: Dict[str, int],
    interleaved: Dict[str, Any],
    index_widths: Dict[str, int],
    memory,
    library,
    constraints,
) -> str:
    """The non-IR half of a region fingerprint: the layout binding and
    machine facts :func:`schedule_region` consults."""
    parts = [
        *_binding_parts(physical, interleaved),
        json.dumps(sorted(index_widths.items())),
        str(memory.read_latency), str(memory.write_latency),
        str(memory.pipelined),
        library_fingerprint(library),
    ]
    if constraints is not None:
        parts.append(json.dumps(list(constraints.limits)))
    return sha(_SEP.join(parts))


#: Identifier tokens in printed IR — every name a region references
#: (variables, arrays, rotated registers) appears textually in its
#: printed statements, so a lexical scan replaces a full IR re-walk.
_IDENT = re.compile(r"[A-Za-z_]\w*")


def region_symbols(body: str, symbols) -> str:
    """Declared types of every name a region's printed body mentions.

    The printed statements carry names but not declarations, and the
    dataflow builder sizes nodes from the symbol table — so a region's
    fingerprint must cover the declarations it reads or two regions
    with identical text but differently-typed symbols would collide.
    Only *mentioned* names enter the signature: scalar replacement
    mints new registers per unroll copy, and keying on the whole table
    would defeat cross-point sharing of untouched regions.  Tokens
    without a declaration (keywords, literals' suffixes) contribute
    nothing — the body text itself already distinguishes them.
    """
    parts = []
    for name in sorted(set(_IDENT.findall(body))):
        decl = symbols.get(name)
        if decl is not None:
            parts.append(str(decl))
    return ";".join(parts)


def region_fingerprint(statements, context: str, symbols=None) -> str:
    """The memo key for one region's schedule: its printed statements,
    the pre-digested :func:`schedule_context`, and (when a symbol table
    is given) the declarations of the names it mentions."""
    lines = []
    for stmt in statements:
        lines.extend(print_stmt(stmt))
    body = "\n".join(lines)
    if symbols is not None:
        body += _SEP + region_symbols(body, symbols)
    return sha(body + _SEP + context)
