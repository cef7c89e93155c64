"""Unit tests for saturation-point analysis (Section 5.1)."""

import pytest

from repro.dse.saturation import analyze_saturation, compute_psat
from repro.frontend import compile_source


class TestPsatFormula:
    def test_paper_formula(self):
        assert compute_psat(1, 1, 4) == 4
        assert compute_psat(2, 1, 4) == 4
        assert compute_psat(2, 2, 4) == 4
        assert compute_psat(3, 0, 4) == 12  # lcm(gcd(3,0)=3, 4)

    def test_degenerate_counts(self):
        assert compute_psat(0, 0, 4) == 4

    def test_more_memories(self):
        assert compute_psat(1, 1, 8) == 8


class TestFIR:
    def test_structure(self, fir_program):
        info = analyze_saturation(fir_program, 4)
        assert info.psat == 4
        # S survives as a read set; D as a read and a write set; C is
        # fully registered (rotating) and does not count.
        assert info.read_sets == 2
        assert info.write_sets == 1
        assert info.memory_varying_depths == (0, 1)

    def test_saturation_set_products(self, fir_program):
        info = analyze_saturation(fir_program, 4)
        products = {v.product for v in info.saturation_set}
        assert products == {4}
        factors = {v.factors for v in info.saturation_set}
        assert factors == {(4, 1), (2, 2), (1, 4)}


class TestMM:
    def test_innermost_loop_excluded(self, mm_program):
        """LICM removed all k-loop memory accesses, so only i and j can
        add memory parallelism — the paper's restriction."""
        info = analyze_saturation(mm_program, 4)
        assert info.memory_varying_depths == (0, 1)
        assert all(v[2] == 1 for v in info.saturation_set)

    def test_counts(self, mm_program):
        info = analyze_saturation(mm_program, 4)
        assert info.read_sets == 1   # c
        assert info.write_sets == 1  # c


class TestSmallTrips:
    def test_trip_counts_limit_saturation(self):
        program = compile_source("""
        int A[2]; int B[2];
        for (i = 0; i < 2; i++) B[i] = A[i];
        """)
        info = analyze_saturation(program, 4)
        # full product 4 unreachable; the best achievable is 2
        assert all(v.product == 2 for v in info.saturation_set)


class TestOnePerWalk:
    """A walk runs the saturation analysis once: the explorer's
    auto-pinned space carries it to the strategy, and a strategy runs it
    itself only for a space built without it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.dse import explorer, strategy
        counted = []
        for module in (explorer, strategy):
            real = module.analyze_saturation

            def counting(*args, _real=real, _module=module.__name__):
                counted.append(_module)
                return _real(*args)
            monkeypatch.setattr(module, "analyze_saturation", counting)
        return counted

    @pytest.mark.parametrize("search", [
        {"strategy": "balance"}, {"strategy": "linear"}, {"strategy": "hill"},
        {"strategy": "exhaustive"}, {"strategy": "auto"},
    ])
    def test_auto_pinned_walks(self, calls, fir_program, search):
        from repro.dse import ExploreConfig, SearchOptions, explore
        from repro.target import wildstar_pipelined
        explore(fir_program, wildstar_pipelined(),
                config=ExploreConfig(search=SearchOptions(**search)))
        assert calls == ["repro.dse.explorer"]

    def test_explicit_pins(self, calls, fir_program):
        from repro.dse import ExploreConfig, explore
        from repro.target import wildstar_pipelined
        explore(fir_program, wildstar_pipelined(),
                config=ExploreConfig(pinned_depths=()))
        assert calls == ["repro.dse.strategy"]
