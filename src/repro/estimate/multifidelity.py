"""Multi-fidelity search: navigate cheap, confirm authoritative.

The Figure-2 walk touches tens of points; the final answer is two
designs (the selection and the no-unrolling baseline).  Multi-fidelity
mode keeps the walk on a cheap backend and re-estimates just those two
designs on a high-fidelity backend, recording *both* numbers — the
navigation estimate that drove the decision and the confirmation
estimate an implementer should trust.  Confirmation is fail-soft: a
confirmation backend that cannot estimate the design (the interp
backend refusing a program that faults) degrades to a recorded error,
never to a lost exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.dse.failures import POINT_FAILURES
from repro.estimate.backends import get_backend
from repro.synthesis.estimator import Estimate


@dataclass
class ConfirmationResult:
    """High-fidelity re-estimates of a run's selected and baseline designs."""

    backend: str                       # the confirming backend's id
    navigation_backend: str            # what the walk navigated on
    navigation_selected: Estimate
    selected: Optional[Estimate]       # None when confirmation failed
    navigation_baseline: Optional[Estimate] = None
    baseline: Optional[Estimate] = None
    error: Optional[str] = None

    @property
    def confirmed_speedup(self) -> Optional[float]:
        """Speedup recomputed entirely from confirmation estimates."""
        if self.selected is None or self.baseline is None:
            return None
        if self.selected.cycles == 0:
            return float("inf")
        return self.baseline.cycles / self.selected.cycles

    @property
    def selected_cycle_error(self) -> Optional[float]:
        """Relative cycle error of navigation vs confirmation on the
        selected design — the Section 6.4 accuracy number, per run."""
        if self.selected is None or self.selected.cycles == 0:
            return None
        return (
            abs(self.navigation_selected.cycles - self.selected.cycles)
            / self.selected.cycles
        )

    def as_dict(self) -> dict:
        """Primitives-only view for job payloads and ``--json`` output."""
        record: dict = {
            "backend": self.backend,
            "navigation_backend": self.navigation_backend,
            "navigation_cycles": self.navigation_selected.cycles,
            "error": self.error,
        }
        if self.selected is not None:
            record["cycles"] = self.selected.cycles
            record["space"] = self.selected.space
            record["clock_ns"] = self.selected.clock_ns
        if self.baseline is not None:
            record["baseline_cycles"] = self.baseline.cycles
        if self.confirmed_speedup is not None:
            record["confirmed_speedup"] = self.confirmed_speedup
        if self.selected_cycle_error is not None:
            record["cycle_error"] = self.selected_cycle_error
        return record


def confirm_selection(
    space: Any,
    selected: Any,
    baseline: Any,
    backend: Any,
) -> ConfirmationResult:
    """Re-estimate ``selected`` (and ``baseline``, when distinct) on the
    confirmation backend via ``space.reestimate``.

    ``space`` is the :class:`~repro.dse.space.DesignSpace` the walk
    navigated (its backend is the navigation backend);
    ``selected``/``baseline`` are its
    :class:`~repro.dse.space.DesignEvaluation` records.  ``baseline`` may
    be ``None`` or the same evaluation as ``selected`` (the
    degraded-baseline case), in which case only the selection is
    confirmed.
    """
    confirmer = get_backend(backend)
    result = ConfirmationResult(
        backend=confirmer.id,
        navigation_backend=space.backend.id,
        navigation_selected=selected.estimate,
        selected=None,
    )
    try:
        result.selected = space.reestimate(selected, confirmer)
    except POINT_FAILURES as error:
        result.error = f"selected design: {error}"
        return result
    if baseline is None or baseline.unroll == selected.unroll:
        return result
    result.navigation_baseline = baseline.estimate
    try:
        result.baseline = space.reestimate(baseline, confirmer)
    except POINT_FAILURES as error:
        result.error = f"baseline design: {error}"
    return result
