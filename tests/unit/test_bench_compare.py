"""The bench gate (``scripts/bench_compare.py``) and the driver that
writes its documents (``scripts/bench.py``), on synthetic documents.

Both scripts are loaded by file path: ``bench`` also names the
benchmark directory at the repository root.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = ROOT / "scripts"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
HOST = 400_000.0


def load_script(filename, module_name):
    spec = importlib.util.spec_from_file_location(
        module_name, SCRIPTS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return load_script("bench_compare.py", "bench_compare")


@pytest.fixture
def driver(gate, monkeypatch):
    # The driver imports the gate's tree hash by module name.
    monkeypatch.setitem(sys.modules, "bench_compare", gate)
    return load_script("bench.py", "bench_driver")


@pytest.fixture(scope="module")
def checkout_hash(gate):
    return gate.src_sha256()


def document(checkout_hash, host=HOST, scale=None, journal_scale=1.0,
             **values):
    """A schema-2 document: every end-to-end metric at 100 times
    ``scale[unit kind]``, overridden by ``values`` (``"w/m": value``)."""
    scale = scale or {}
    end_to_end = {}
    for workload in WORKLOADS:
        for entry in SPEC["end_to_end"]:
            unit = entry["unit"]
            kind = ("rate" if unit.endswith("/s") else
                    "time" if unit in ("s", "ms") else "memory")
            end_to_end[f"{workload}/{entry['name']}"] = \
                100.0 * scale.get(kind, 1.0)
    end_to_end.update(values)
    return {
        "schema_version": 2,
        "seed": 1,
        "seconds": 25.0,
        "src_sha256": checkout_hash,
        "end_to_end": end_to_end,
        "per_layer": {
            **{f"{w}/host.calibration_per_s": host for w in WORKLOADS},
            **{f"{w}/dse.point.calls": 59.0 for w in WORKLOADS},
        },
        "journal": {"appends_per_second": 5000.0 * journal_scale,
                    "replays_per_second": 90000.0 * journal_scale},
    }


def gate_run(gate, tmp_path, capsys, previous, current):
    (tmp_path / "previous.json").write_text(json.dumps(previous))
    (tmp_path / "current.json").write_text(json.dumps(current))
    status = gate.main(["--previous", str(tmp_path / "previous.json"),
                        "--current", str(tmp_path / "current.json")])
    return status, capsys.readouterr().out


def regressions(output):
    return [line for line in output.splitlines()
            if line.strip().startswith("REGRESSION")]


class TestEndToEnd:
    def test_higher_is_better_metric_30_percent_lower_fails(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        status, out = gate_run(
            gate, tmp_path, capsys, document(checkout_hash),
            document(checkout_hash, **{"walk-cold/ops_per_s": 70.0}))
        assert status == 1
        assert len(regressions(out)) == 1
        assert "walk-cold/ops_per_s" in regressions(out)[0]

    def test_higher_is_better_metric_20_percent_lower_passes(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        status, out = gate_run(
            gate, tmp_path, capsys, document(checkout_hash),
            document(checkout_hash, **{"walk-cold/ops_per_s": 80.0}))
        assert status == 0, out
        assert "26 gated metrics checked, 0 regressed" in out

    def test_lower_is_better_metric_30_percent_higher_fails(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        status, out = gate_run(
            gate, tmp_path, capsys, document(checkout_hash),
            document(checkout_hash, **{"serve-mixed/op_p50_ms": 130.0}))
        assert status == 1
        assert "serve-mixed/op_p50_ms" in regressions(out)[0]

    @pytest.mark.parametrize("host", [HOST, HOST / 2])
    def test_memory_is_not_scaled_by_the_host(
        self, gate, checkout_hash, tmp_path, capsys, host
    ):
        """``peak_rss_mb`` has a 15% bound; a slower host excuses time,
        not memory."""
        status, out = gate_run(
            gate, tmp_path, capsys, document(checkout_hash),
            document(checkout_hash, host=host,
                     scale={"rate": host / HOST, "time": HOST / host},
                     journal_scale=host / HOST,
                     **{"sweep-exhaustive/peak_rss_mb": 120.0}))
        assert status == 1
        assert len(regressions(out)) == 1
        assert "sweep-exhaustive/peak_rss_mb" in regressions(out)[0]

    def test_a_slower_host_excuses_proportionally_slower_times(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        speed = 0.6
        status, out = gate_run(
            gate, tmp_path, capsys, document(checkout_hash),
            document(checkout_hash, host=HOST * speed,
                     scale={"rate": speed, "time": 1 / speed},
                     journal_scale=speed))
        assert status == 0, out
        assert not regressions(out)


class TestJournal:
    def test_replays_30_percent_lower_fail(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        current = document(checkout_hash)
        current["journal"]["replays_per_second"] *= 0.7
        status, out = gate_run(gate, tmp_path, capsys,
                               document(checkout_hash), current)
        assert status == 1
        assert "journal/replays_per_second" in regressions(out)[0]

    def test_a_schema_1_previous_document_gets_only_the_journal_checked(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        """Shaped like BENCH_10: per-kernel walks and a journal section
        with its own calibration rate, no end-to-end metrics."""
        previous = {
            "schema_version": 1,
            "kernels": {"fir": {"walk": {"seconds": 0.15}}},
            "journal": {"appends_per_second": 5000.0,
                        "replays_per_second": 90000.0,
                        "calibration_per_second": HOST},
        }
        current = document(checkout_hash, scale={"rate": 0.1, "time": 10})
        status, out = gate_run(gate, tmp_path, capsys, previous, current)
        assert status == 0, out
        assert "checking the journal only" in out
        assert "2 gated metrics checked, 0 regressed" in out

        current["journal"]["appends_per_second"] *= 0.7
        status, out = gate_run(gate, tmp_path, capsys, previous, current)
        assert status == 1
        assert "journal/appends_per_second" in regressions(out)[0]


class TestStaleness:
    def test_a_document_of_other_code_is_flagged_first(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        status, out = gate_run(
            gate, tmp_path, capsys, document(checkout_hash),
            document("0" * 64))
        assert status == 0
        assert out.splitlines()[0].startswith("STALE:")

    def test_a_document_of_this_checkout_is_not(
        self, gate, checkout_hash, tmp_path, capsys
    ):
        _, out = gate_run(gate, tmp_path, capsys, document(checkout_hash),
                          document(checkout_hash))
        assert "STALE" not in out


STUB = """\
import json
print("walk-cold: 3 untraced trials, 54 ops")
print(json.dumps({result}))
"""


class TestDriver:
    def stub(self, tmp_path, monkeypatch, driver, **result):
        run = tmp_path / "run.py"
        run.write_text(STUB.format(result=result))
        monkeypatch.setattr(driver, "BENCH_RUN", run)
        monkeypatch.setattr(driver, "bench_journal",
                            lambda: {"appends_per_second": 1.0})

    @pytest.mark.parametrize("result", [
        {"correct": False, "attempted": 54, "failed": 0, "metrics": {}},
        {"correct": True, "attempted": 54, "failed": 1, "metrics": {}},
    ], ids=["incorrect", "one-failed"])
    def test_an_incorrect_run_exits_nonzero_and_writes_nothing(
        self, driver, tmp_path, monkeypatch, capsys, result
    ):
        self.stub(tmp_path, monkeypatch, driver, **result)
        output = tmp_path / "BENCH.json"
        assert driver.main(["--output", str(output), "--seconds", "1"]) != 0
        assert "walk-cold: 3 untraced trials" in capsys.readouterr().out
        assert not output.exists()

    def test_a_correct_run_writes_a_schema_2_document(
        self, driver, checkout_hash, tmp_path, monkeypatch
    ):
        self.stub(tmp_path, monkeypatch, driver, correct=True, attempted=54,
                  failed=0, metrics={
                      "walk-cold/ops_per_s": {"value": 30.0,
                                              "unit": "ops/s"}})
        output = tmp_path / "BENCH.json"
        assert driver.main(["--output", str(output), "--seconds", "1"]) == 0
        written = json.loads(output.read_text())
        assert written == {
            "schema_version": 2, "generated_by": "scripts/bench.py",
            "seed": 1, "seconds": 1.0, "src_sha256": checkout_hash,
            "end_to_end": {"walk-cold/ops_per_s": 30.0},
            "per_layer": {"walk-cold/ops_per_s": 30.0},
            "journal": {"appends_per_second": 1.0},
        }
