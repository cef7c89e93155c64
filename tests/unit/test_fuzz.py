"""The differential fuzzer: determinism, oracles, and crash artifacts."""

import json
import random

import repro.fuzz as fuzz
from repro.frontend import compile_source
from repro.fuzz import generate_program, run_fuzz
from repro.ir import LoopNest, print_program, verify_program


class TestGenerator:
    def test_generated_programs_are_wellformed_nests(self):
        for k in range(20):
            program = generate_program(random.Random(f"gen:{k}"), name="g")
            assert verify_program(program, require_affine=True) == []
            assert LoopNest(program).depth >= 1

    def test_generation_is_deterministic_in_the_seed(self):
        a = generate_program(random.Random("s"), name="g")
        b = generate_program(random.Random("s"), name="g")
        assert a == b

    def test_generated_programs_round_trip(self):
        for k in range(20):
            program = generate_program(random.Random(f"rt:{k}"), name="g")
            assert compile_source(print_program(program), name="g") == program


class TestRunFuzz:
    def test_clean_run_reports_ok(self):
        report = run_fuzz(25, seed=3)
        assert report.ok
        assert report.checked > 0
        assert report.failures == []

    def test_runs_are_deterministic(self):
        first = run_fuzz(15, seed=9)
        second = run_fuzz(15, seed=9)
        assert (first.checked, first.skipped) == (second.checked, second.skipped)

    def test_harness_bug_becomes_finding_not_crash(self, monkeypatch, tmp_path):
        def explode(rng, name="fuzz"):
            raise RuntimeError("generator exploded")

        monkeypatch.setattr(fuzz, "generate_program", explode)
        report = run_fuzz(2, seed=0, artifact_dir=str(tmp_path))
        assert not report.ok
        assert len(report.failures) == 2
        assert report.failures[0].stage == "generate"
        assert "exploded" in report.failures[0].message

    def test_pipeline_divergence_is_a_finding(self, monkeypatch):
        # A layout plan that reports the wrong array contents must be
        # caught by the whole-pipeline check, not by any earlier one.
        from repro.layout.plan import LayoutPlan

        def corrupt(self, bank_contents, original):
            return [cell + 1 for cell in original_gather(self, bank_contents, original)]

        original_gather = LayoutPlan.gather_array
        monkeypatch.setattr(LayoutPlan, "gather_array", corrupt)
        report = run_fuzz(6, seed=3)
        stages = {failure.stage for failure in report.failures}
        assert stages == {"pipeline"}
        assert all(f.unroll is not None for f in report.failures)

    def test_artifacts_written_on_failure(self, monkeypatch, tmp_path):
        original = fuzz.generate_program
        calls = []

        def flaky(rng, name="fuzz"):
            calls.append(name)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return original(rng, name)

        monkeypatch.setattr(fuzz, "generate_program", flaky)
        report = run_fuzz(3, seed=1, artifact_dir=str(tmp_path))
        assert len(report.failures) == 1
        assert len(report.artifacts) == 2
        meta = json.loads((tmp_path / "crash_s1_i1.json").read_text())
        assert meta["failures"][0]["stage"] == "generate"
        assert (tmp_path / "crash_s1_i1.c").exists()

    def test_summary_mentions_counts(self):
        report = run_fuzz(5, seed=2)
        text = report.summary()
        assert "5 iterations" in text
        assert "seed 2" in text
