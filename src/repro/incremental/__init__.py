"""``repro.incremental`` — cross-point reuse for design evaluation.

The paper's pitch is that compiler-level estimation makes exploration
fast; this layer makes it *incremental*: evaluating design point u+1
is cheap given point u, because everything the two points share —
dependence legality, verified stage outputs, region schedules, whole
finished estimates — is memoized under content hashes and reused
instead of recomputed.  See DESIGN.md §6.10 for the invalidation
rules, the equivalence contract, and the memo-journal format.

Layout:

* :mod:`~repro.incremental.hashing` — the content-hash keys (program,
  context, point, region fingerprints)
* :mod:`~repro.incremental.memo` — the :class:`MemoStore` domains,
  hit/miss/invalidation counters, the estimate and schedule codecs, and
  the ambient :func:`use_memo` context the pipeline and estimator consult
* :mod:`~repro.incremental.journal` — the persistent, flock-guarded,
  CRC-framed cross-run memo journal (``memo.jsonl`` segments) and the
  resident store worker entry points keep between jobs
* :mod:`~repro.incremental.delta` — structural region deltas between
  neighboring points, for the ``dse.point`` span attributes
"""

from repro.incremental.delta import RegionDelta, delta_for, region_delta
from repro.incremental.hashing import (
    context_fingerprint,
    point_key,
    program_hash,
    region_fingerprint,
    schedule_context,
)
from repro.incremental.memo import (
    MEMO_DOMAINS,
    MemoStore,
    PointStats,
    current_memo,
    decode_estimate,
    decode_schedule,
    encode_estimate,
    encode_schedule,
    use_memo,
)
from repro.incremental.journal import (
    MEMO_EVENT,
    MEMO_PREFIX,
    MemoJournal,
    open_memo,
    release_memo,
    resident_memo,
)

__all__ = [
    "MEMO_DOMAINS",
    "MEMO_EVENT",
    "MEMO_PREFIX",
    "MemoJournal",
    "MemoStore",
    "PointStats",
    "RegionDelta",
    "context_fingerprint",
    "current_memo",
    "decode_estimate",
    "decode_schedule",
    "delta_for",
    "encode_estimate",
    "encode_schedule",
    "open_memo",
    "point_key",
    "program_hash",
    "region_delta",
    "region_fingerprint",
    "release_memo",
    "resident_memo",
    "schedule_context",
    "use_memo",
]
