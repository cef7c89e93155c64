"""Tests for the benchmark itself.  Run from the repository root::

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_fold_self_times_sum_to_root_duration():
    from repro.obs import Tracer
    clock = FakeClock()
    tracer = Tracer(clock=clock, wall=clock)
    with tracer.span("bench.op"):
        clock.now += 1.0
        with tracer.span("dse.point"):
            clock.now += 2.0
            with tracer.span("pipeline.unroll"):
                clock.now += 3.0
                with tracer.span("verify.check_ir"):
                    clock.now += 0.5
            with tracer.span("verify.check_ir"):
                clock.now += 0.25
        clock.now += 4.0
    folded = layers.fold(tracer.to_dicts())
    assert folded["bench.other"]["self_s"] == 5.0
    assert folded["dse.point"]["self_s"] == 2.0
    assert folded["transform.unroll"]["self_s"] == 3.0
    assert folded["verify.check_ir"] == {"self_s": 0.75, "calls": 2,
                                         "max_s": 0.5}
    total = sum(entry["self_s"] for entry in folded.values())
    assert total == layers.root_seconds(tracer.to_dicts()) == 10.75


def test_fold_keeps_server_jobs_apart():
    spans = [
        {"name": "dse.explore", "span_id": "s1", "parent_id": None,
         "duration_s": 2.0, "attributes": {"job": job}}
        for job in ("a", "b")
    ] + [{"name": "dse.point", "span_id": "s2", "parent_id": "s1",
          "duration_s": 1.5, "attributes": {"job": "a"}}]
    folded = layers.fold(spans)
    assert folded["dse.explore"]["self_s"] == 2.5
    assert layers.root_seconds(spans) == 4.0


def test_registry_resolves_every_target():
    assert len(layers.resolve()) == len(layers.REGISTRY)


def test_registry_fails_loudly_on_a_renamed_target():
    renamed = layers.REGISTRY + (
        ("repro.transform.pipeline", "check_ir_renamed", "verify.check_ir"),
        ("repro.synthesis.estimator", "DataflowBuilder.gone", "x"),
    )
    with pytest.raises(layers.MissingLayerTarget) as error:
        layers.resolve(renamed)
    assert "check_ir_renamed" in str(error.value)
    assert "DataflowBuilder.gone" in str(error.value)


@pytest.mark.parametrize("traced", [False, True])
def test_wrappers_only_in_the_traced_process(traced, tmp_path):
    command = [sys.executable, str(BENCH / "trial.py"), "walk-cold",
               "--seed", "1", "--quick", "--seconds", "0.001",
               "--work-dir", str(tmp_path / "w")]
    if traced:
        command.append("--traced")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["wrapped"] == (len(layers.REGISTRY) if traced else 0)
    assert len(out["trials"]) == 1
    assert ("spans" in out["trials"][0]) == traced


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_sequence(workload):
    for quick in (False, True):
        first = workloads.plan(workload, 7, quick)
        assert first == workloads.plan(workload, 7, quick)
        if workload != "sweep-exhaustive":
            assert first != workloads.plan(workload, 8, quick)


@pytest.mark.parametrize("seed", [3, 4])
def test_serve_plan_covers_every_pair_and_resubmits_a_fifth(seed):
    ops = workloads.plan("serve-mixed", seed)
    new = [op for op in ops if not op["resubmit"]]
    again = [op for op in ops if op["resubmit"]]
    # The seed never moves a new job: its cost depends on the ones before.
    assert [(op["kernel"], op["board"], op["variant"]) for op in new] \
        == [(k, b, workloads.serve_variant(k))
            for k in workloads.KERNELS for b in workloads.BOARDS]
    assert {workloads.serve_variant(k) for k in workloads.KERNELS} \
        == set(workloads.PIPELINE_VARIANTS)
    assert len(again) == len(new) // workloads.SERVE_NEW_PER_RESUBMIT
    for op in again:
        original = dict(op, resubmit=False)
        assert ops.index(original) < ops.index(op)


def test_golden_covers_every_op_and_agrees_with_known_values():
    import run
    golden = json.loads(run.GOLDEN.read_text())
    assert sorted(golden) == sorted(workloads.golden_keys())
    assert len([k for k in golden if k.startswith("serve/")]) == 540
    for key, expected in run.KNOWN_SELECTIONS.items():
        assert golden[key] == expected


def test_spec_names_are_the_printed_names():
    import run
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_is_correct_and_prints_every_metric(workload, trace):
    result = _run("--workload", workload, "--seed", "5", "--quick",
                  "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == {m["name"]: m["unit"]
                                               for m in spec}


def test_missing_program_source_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
