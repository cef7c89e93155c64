"""Unit tests for the deterministic fault injector itself."""

import errno
import json
from dataclasses import dataclass

import pytest

from repro import faults
from repro.errors import EstimationError, ServiceError, TransientError
from repro.faults import FaultInjector, FaultRule, load_spec, parse_spec


@dataclass
class _Estimateish:
    cycles: int
    space: int = 10


def _fires(injector, site, key=None, times=1):
    """How many of ``times`` consultations raised."""
    count = 0
    for _ in range(times):
        try:
            injector.check(site, key)
        except Exception:  # noqa: BLE001 - counting, not classifying
            count += 1
    return count


class TestSpecParsing:
    def test_minimal_spec(self):
        injector = parse_spec({"faults": [
            {"site": "estimator", "mode": "transient"},
        ]})
        assert injector.rules[0].site == "estimator"
        assert injector.rules[0].p == 1.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ServiceError, match="mode"):
            parse_spec({"faults": [{"site": "x", "mode": "explode"}]})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ServiceError, match="unknown keys"):
            parse_spec({"faults": [
                {"site": "x", "mode": "raise", "bogus": 1},
            ]})
        with pytest.raises(ServiceError, match="unknown keys"):
            parse_spec({"faults": [], "bogus": 1})

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError):
            parse_spec(["not", "an", "object"])

    def test_load_spec_defaults_state_dir(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"faults": []}))
        injector = load_spec(path)
        assert injector.state_dir == tmp_path / "spec.json.state"

    def test_load_spec_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(ServiceError, match="not valid JSON"):
            load_spec(path)


class TestFiring:
    def test_transient_mode(self):
        injector = parse_spec({"faults": [
            {"site": "estimator", "mode": "transient"},
        ]})
        with pytest.raises(TransientError):
            injector.check("estimator")

    def test_raise_mode(self):
        injector = parse_spec({"faults": [
            {"site": "estimator", "mode": "raise", "message": "sick backend"},
        ]})
        with pytest.raises(EstimationError, match="sick backend"):
            injector.check("estimator")

    def test_io_error_mode_is_enospc(self):
        injector = parse_spec({"faults": [
            {"site": "disk_full", "mode": "io_error"},
        ]})
        with pytest.raises(OSError) as info:
            injector.check("disk_full")
        assert info.value.errno == errno.ENOSPC

    def test_corrupt_mangles_dataclass(self):
        injector = parse_spec({"faults": [
            {"site": "estimate", "mode": "corrupt"},
        ]})
        mangled = injector.mangle("estimate", _Estimateish(cycles=100))
        assert mangled.cycles == -1

    def test_corrupt_truncates_strings(self):
        injector = parse_spec({"faults": [
            {"site": "ledger_line", "mode": "corrupt"},
        ]})
        line = '{"event": "job_done"}'
        assert injector.mangle("ledger_line", line) == line[: len(line) // 2]

    def test_other_sites_untouched(self):
        injector = parse_spec({"faults": [
            {"site": "estimator", "mode": "transient"},
        ]})
        injector.check("disk_full")   # different site: no fault
        assert injector.mangle("estimate", 42) == 42

    def test_jobs_filter(self):
        injector = parse_spec({"faults": [
            {"site": "worker", "mode": "transient", "jobs": ["fir"]},
        ]})
        injector.check("worker", key="mm")          # other job: clean
        injector.check("worker", key=None)          # keyless: clean
        with pytest.raises(TransientError):
            injector.check("worker", key="fir")

    def test_max_hits_bounds_firings(self):
        injector = parse_spec({"faults": [
            {"site": "estimator", "mode": "transient", "max_hits": 2},
        ]})
        assert _fires(injector, "estimator", times=10) == 2

    def test_max_hits_shared_across_injectors_via_state_dir(self, tmp_path):
        spec = {"faults": [
            {"site": "estimator", "mode": "transient", "max_hits": 1},
        ]}
        state = tmp_path / "state"
        first = parse_spec(spec, state_dir=state)
        second = parse_spec(spec, state_dir=state)  # "another process"
        total = _fires(first, "estimator", times=5)
        total += _fires(second, "estimator", times=5)
        assert total == 1

    def test_probability_is_deterministic_in_seed(self):
        spec = {"seed": 42, "faults": [
            {"site": "estimator", "mode": "transient", "p": 0.5},
        ]}

        def pattern(injector):
            out = []
            for _ in range(64):
                try:
                    injector.check("estimator", key="job")
                    out.append(0)
                except TransientError:
                    out.append(1)
            return out

        first = pattern(parse_spec(spec))
        second = pattern(parse_spec(spec))
        assert first == second
        assert 0 < sum(first) < 64   # actually probabilistic, not all/none

    def test_hang_mode_sleeps_then_returns(self):
        injector = parse_spec({"faults": [
            {"site": "estimator", "mode": "hang", "seconds": 0.01},
        ]})
        injector.check("estimator")   # returns (after the nap), no raise


class TestActivation:
    def test_inactive_module_is_noop(self):
        faults.deactivate()
        faults.check("estimator")
        assert faults.mangle("estimate", 7) == 7

    def test_activate_from_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"faults": [
            {"site": "estimator", "mode": "transient"},
        ]}))
        faults.activate(str(path))
        with pytest.raises(TransientError):
            faults.check("estimator")

    def test_activate_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"faults": [
            {"site": "worker", "mode": "transient"},
        ]}))
        monkeypatch.setenv(faults.ENV_SPEC, str(path))
        faults.activate()
        with pytest.raises(TransientError):
            faults.check("worker")

    def test_reactivation_same_path_keeps_counters(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"faults": [
            {"site": "estimator", "mode": "transient", "max_hits": 1},
        ]}))
        first = faults.activate(str(path))
        with pytest.raises(TransientError):
            faults.check("estimator")
        assert faults.activate(str(path)) is first
        faults.check("estimator")   # hit budget already spent; no raise
