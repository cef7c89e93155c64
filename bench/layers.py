"""Per-layer attribution for the traced trial.

The program already opens spans at ``dse.explore``, ``dse.search``,
``dse.point``, ``estimate.call`` and each ``pipeline.<stage>``.  The
traced trial adds a span around each public layer function named in
:data:`REGISTRY`, patched in the module that calls it.  Nothing here is
installed in an untraced trial.

:func:`fold` turns the recorded span tree into per-layer self time: a
span's duration minus the time its child spans cover, so the self times
of all spans add up to the root spans' durations.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

#: ``(module, attribute path, layer)`` for every function the traced
#: trial wraps.  An attribute path may name a method (``Class.method``).
REGISTRY: Tuple[Tuple[str, str, str], ...] = (
    ("repro.transform.pipeline", "check_ir", "verify.check_ir"),
    ("repro.transform.pipeline", "program_hash", "incremental.program_hash"),
    ("repro.dse.space", "program_hash", "incremental.program_hash"),
    ("repro.incremental.hashing", "region_fingerprint",
     "incremental.region_fingerprint"),
    ("repro.synthesis.estimator", "DataflowBuilder.build",
     "synthesis.dfg_build"),
    ("repro.synthesis.estimator", "schedule_region",
     "synthesis.schedule_region"),
    ("repro.incremental.memo", "MemoStore.point_get", "incremental.memo_get"),
    ("repro.incremental.memo", "MemoStore.legality_get",
     "incremental.memo_get"),
    ("repro.incremental.memo", "MemoStore.verified", "incremental.memo_get"),
    ("repro.incremental.memo", "MemoStore.schedule_get",
     "incremental.memo_get"),
    ("repro.incremental.memo", "MemoStore.point_put", "incremental.memo_put"),
    ("repro.incremental.memo", "MemoStore.legality_put",
     "incremental.memo_put"),
    ("repro.incremental.memo", "MemoStore.note_verified",
     "incremental.memo_put"),
    ("repro.incremental.memo", "MemoStore.schedule_put",
     "incremental.memo_put"),
    ("repro.incremental.journal", "MemoJournal.flush",
     "incremental.journal_flush"),
    ("repro.incremental.journal", "MemoJournal.load",
     "incremental.journal_load"),
    ("repro.durable.journal", "DurableJournal.append", "durable.append"),
    ("repro.durable.journal", "os.fsync", "durable.fsync"),
    ("repro.kernels.base", "compile_source", "frontend.compile_source"),
    ("repro.dse.explorer", "analyze_saturation", "analysis.saturation"),
    ("repro.dse.strategy", "analyze_saturation", "analysis.saturation"),
    ("repro.analysis.dependence", "DependenceGraph.build",
     "analysis.dependence_build"),
)

#: Program span names and the layer each one reports as.
SPAN_LAYERS = {
    "pipeline": "transform.pipeline",
    "pipeline.legality": "transform.legality",
    "pipeline.unroll": "transform.unroll",
    "pipeline.scalar_replacement": "transform.scalar_replacement",
    "pipeline.peel": "transform.peel",
    "pipeline.licm": "transform.licm",
    "pipeline.normalize": "transform.normalize",
    "pipeline.layout": "layout.apply",
    "dse.explore": "dse.explore",
    "dse.search": "dse.search",
    "dse.point": "dse.point",
    "estimate.call": "estimate.call",
}

#: Where self time of any span no layer claims is reported (the
#: benchmark's own root spans, and any span the program adds later).
OTHER = "bench.other"

#: Layers reported with their self time, in report order.
SELF_TIME_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    list(SPAN_LAYERS.values()) + [layer for _, _, layer in REGISTRY]
    + [OTHER]
))

#: Layers whose call count is also reported.
COUNTED_LAYERS = (
    "verify.check_ir", "synthesis.dfg_build", "synthesis.schedule_region",
    "incremental.program_hash", "durable.append", "durable.fsync",
    "dse.point",
)

#: Memo domains whose hit ratio is reported.
MEMO_DOMAINS = ("point", "schedule", "verify", "legality")

_MARK = "__bench_layer__"


class MissingLayerTarget(RuntimeError):
    """A registry entry names a function the program no longer has."""


def _owner(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def resolve(registry: Iterable[Tuple[str, str, str]] = REGISTRY
            ) -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every entry; raises
    :class:`MissingLayerTarget` naming every entry that does not resolve
    to a callable, so a rename cannot silently report zero seconds."""
    resolved, missing = [], []
    for module, path, layer in registry:
        try:
            owner, name = _owner(module, path)
            target = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
            continue
        if not callable(target):
            missing.append(f"{module}.{path}")
            continue
        resolved.append((owner, name, layer))
    if missing:
        raise MissingLayerTarget(
            "layer registry names functions that do not exist: "
            + ", ".join(missing)
        )
    return resolved


def _wrap(function: Callable, layer: str) -> Callable:
    from repro.obs import current_tracer

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with current_tracer().span(layer):
            return function(*args, **kwargs)

    setattr(wrapper, _MARK, layer)
    return wrapper


def install(registry: Iterable[Tuple[str, str, str]] = REGISTRY) -> None:
    """Wrap every registry target in a span."""
    for owner, name, layer in resolve(registry):
        raw = owner.__dict__.get(name) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(_wrap(raw.__func__, layer)))
        else:
            setattr(owner, name, _wrap(getattr(owner, name), layer))


def installed(registry: Iterable[Tuple[str, str, str]] = REGISTRY) -> int:
    """How many registry targets are currently wrapped."""
    count = 0
    for owner, name, _ in resolve(registry):
        target = getattr(owner, name)
        target = getattr(target, "__func__", target)
        count += hasattr(target, _MARK)
    return count


def layer_of(name: str) -> str:
    """The layer a span name reports as."""
    if name in SPAN_LAYERS:
        return SPAN_LAYERS[name]
    if name in SELF_TIME_LAYERS:
        return name
    return OTHER


def _ids(span: Mapping[str, Any]) -> Tuple[Any, Any]:
    """A span's id and its parent's, qualified by the job whose tracer
    numbered them (server jobs each number their spans from ``s1``)."""
    job = (span.get("attributes") or {}).get("job")
    return (job, span["span_id"]), (job, span.get("parent_id"))


def fold(spans: Iterable[Mapping[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` (summed), ``calls`` and ``max_s`` (longest
    single span) from span records as :meth:`repro.obs.Span.to_dict`
    writes them."""
    spans = list(spans)
    child_time: Dict[Tuple[Any, Any], float] = {}
    for span in spans:
        _, parent = _ids(span)
        child_time[parent] = (child_time.get(parent, 0.0)
                              + (span.get("duration_s") or 0.0))
    by_layer: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span.get("duration_s") or 0.0
        entry = by_layer.setdefault(
            layer_of(span["name"]), {"self_s": 0.0, "calls": 0, "max_s": 0.0}
        )
        entry["self_s"] += max(0.0, duration
                               - child_time.get(_ids(span)[0], 0.0))
        entry["calls"] += 1
        entry["max_s"] = max(entry["max_s"], duration)
    return by_layer


def root_seconds(spans: Iterable[Mapping[str, Any]]) -> float:
    """Total duration of the spans whose parent is not in the set."""
    spans = list(spans)
    ids = {_ids(span)[0] for span in spans}
    return sum(span.get("duration_s") or 0.0 for span in spans
               if _ids(span)[1] not in ids)


def hit_ratio(hits: float, misses: float) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def layer_metrics(folded: Mapping[str, Mapping[str, float]],
                  memo_counts: Mapping[str, Tuple[float, float]],
                  ) -> Dict[str, float]:
    """The per-layer metric values one traced trial reports.

    ``memo_counts`` maps each memo domain to its ``(hits, misses)``.
    """
    def get(layer: str, field: str) -> float:
        return folded.get(layer, {}).get(field, 0.0)

    metrics: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = get(layer, "calls")
    metrics["dse.point.max_s"] = get("dse.point", "max_s")
    for domain in MEMO_DOMAINS:
        hits, misses = memo_counts.get(domain, (0.0, 0.0))
        metrics[f"incremental.hit_ratio.{domain}"] = hit_ratio(hits, misses)
    return metrics
