"""Unit tests for the estimation-backend subsystem (repro.estimate)."""

import pytest

from repro.errors import EstimationError
from repro.estimate import (
    AnalyticBackend, DEFAULT_BACKEND, EstimatorBackend, InterpBackend,
    PlaceRouteBackend, Provenance, backend_ids, get_backend, register_backend,
)
from repro.estimate.backends import _FACTORIES
from repro.kernels import FIR
from repro.synthesis import synthesize
from repro.target import wildstar_pipelined
from repro.transform import UnrollVector, compile_design


@pytest.fixture
def design():
    return compile_design(FIR.program(), UnrollVector.of(2, 1), 4)


@pytest.fixture
def board():
    return wildstar_pipelined()


class TestRegistry:
    def test_three_backends_registered(self):
        assert set(backend_ids()) >= {"analytic", "placeroute", "interp"}

    def test_sorted_by_fidelity(self):
        ids = [b for b in backend_ids()
               if b in ("analytic", "placeroute", "interp")]
        assert ids == ["analytic", "placeroute", "interp"]

    def test_none_resolves_to_default(self):
        backend = get_backend(None)
        assert backend.id == DEFAULT_BACKEND == "analytic"

    def test_instance_passes_through(self):
        instance = InterpBackend(max_steps=7)
        assert get_backend(instance) is instance

    def test_unknown_id_raises_with_catalog(self):
        with pytest.raises(EstimationError, match="analytic"):
            get_backend("spice")

    def test_register_replace_and_restore(self):
        class Fake(EstimatorBackend):
            id = "fake"
            fidelity = 9
        register_backend("fake", Fake)
        try:
            assert get_backend("fake").fidelity == 9
            assert backend_ids()[-1] == "fake"
        finally:
            del _FACTORIES["fake"]


class TestProvenance:
    def test_detail_lookup(self):
        provenance = Provenance(
            "x", 1, "key", details=(("a", 1), ("b", 2)),
        )
        assert provenance.detail("b") == 2
        assert provenance.detail("missing", "dflt") == "dflt"

    def test_dict_round_trip(self):
        provenance = Provenance("interp", 2, "abc", details=(("n", 3),))
        assert Provenance.from_dict(provenance.as_dict()) == provenance

    def test_estimate_carries_provenance(self, design, board):
        estimate = AnalyticBackend().estimate(
            design.program, board, design.plan
        )
        assert estimate.provenance.backend == "analytic"
        assert estimate.provenance.fidelity == 0
        assert estimate.provenance.cache_key

    def test_provenance_excluded_from_equality(self, design, board):
        bare = synthesize(design.program, board, design.plan)
        stamped = AnalyticBackend().estimate(
            design.program, board, design.plan
        )
        assert stamped == bare

    def test_cache_key_differs_per_backend(self, design, board):
        analytic = AnalyticBackend().cache_key(
            design.program, board, design.plan
        )
        interp = InterpBackend().cache_key(design.program, board, design.plan)
        assert analytic != interp

    @pytest.mark.parametrize("backend_id, digest", [
        ("analytic",
         "f88efc1ec4a223bb210ef76c1ee5924c3abbea73dfdd36be6a6a55167645a207"),
        ("placeroute",
         "ba00668eac875f35dcd84393a1932dfbb1e1c7bef013a57020478c4e435e5f6e"),
        ("interp",
         "d509c528fb5be8f0418c5e6ac2df4a1ef8397a8b8cd99a222d7ba749dbc2dcd3"),
    ])
    def test_cache_key_pinned(self, design, board, backend_id, digest):
        """The provenance key is an on-disk format: a refactor of the
        fingerprint must reproduce these digests byte for byte."""
        estimate = get_backend(backend_id).estimate(
            design.program, board, design.plan
        )
        assert estimate.provenance.cache_key == digest


class TestAnalyticBackend:
    def test_matches_direct_synthesis(self, design, board):
        via_backend = AnalyticBackend().estimate(
            design.program, board, design.plan
        )
        direct = synthesize(design.program, board, design.plan)
        assert via_backend.cycles == direct.cycles
        assert via_backend.space == direct.space


class TestPlaceRouteBackend:
    def test_cycles_preserved_space_and_clock_degraded(self, design, board):
        behavioral = synthesize(design.program, board, design.plan)
        placed = PlaceRouteBackend().estimate(
            design.program, board, design.plan
        )
        assert placed.cycles == behavioral.cycles
        assert placed.space >= behavioral.space
        assert placed.clock_ns >= behavioral.clock_ns
        assert placed.provenance.detail("behavioral_space") \
            == behavioral.space
        assert placed.provenance.detail("meets_target_clock") in (True, False)


class TestInterpBackend:
    def test_reproduces_analytic_cycles_on_fir(self, design, board):
        """The closed-form ``trip * (body + overhead)`` model and the
        per-iteration FSM walk must land on the same number for a
        rectangular nest."""
        interp = InterpBackend().estimate(design.program, board, design.plan)
        analytic = synthesize(design.program, board, design.plan)
        assert interp.cycles == analytic.cycles
        assert interp.provenance.detail("analytic_cycles") == analytic.cycles
        assert interp.provenance.detail("simulated") is True

    def test_semantic_execution_recorded(self, design, board):
        interp = InterpBackend().estimate(design.program, board, design.plan)
        assert interp.provenance.detail("memory_reads") > 0
        assert interp.provenance.detail("memory_writes") > 0

    def test_execute_false_skips_interpreter(self, design, board):
        interp = InterpBackend(execute=False).estimate(
            design.program, board, design.plan
        )
        assert interp.provenance.detail("memory_reads") is None
        assert interp.cycles > 0

    def test_step_budget_becomes_estimation_error(self, design, board):
        with pytest.raises(EstimationError, match="does not execute"):
            InterpBackend(max_steps=10).estimate(
                design.program, board, design.plan
            )

    def test_structural_fields_come_from_analytic(self, design, board):
        interp = InterpBackend().estimate(design.program, board, design.plan)
        analytic = synthesize(design.program, board, design.plan)
        assert interp.space == analytic.space
        assert interp.area.as_dict() == analytic.area.as_dict()
