"""The single-config call shapes of ``explore()`` and ``JobSpec.create()``.

Both take one keyword-only ``config=`` object.  The pre-redesign
individual-keyword shapes (and ``explore()``'s positional one) are gone
and raise ``TypeError``.
"""

import warnings

import pytest

from repro.dse import ExploreConfig, SearchOptions, explore
from repro.errors import ServiceError
from repro.service import JobConfig, JobSpec


class TestExploreConfigShape:
    def test_config_only_call_does_not_warn(self, tiny_program,
                                            pipelined_board):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = explore(tiny_program, pipelined_board,
                             config=ExploreConfig(
                                 search=SearchOptions(max_iterations=4)))
        assert result.points_searched >= 1

    def test_bare_call_does_not_warn(self, tiny_program, pipelined_board):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            explore(tiny_program, pipelined_board)

    def test_legacy_keyword_is_a_type_error(self, tiny_program,
                                            pipelined_board):
        with pytest.raises(TypeError, match="search_options"):
            explore(tiny_program, pipelined_board,
                    search_options=SearchOptions(max_iterations=4))

    def test_legacy_positional_is_a_type_error(self, tiny_program,
                                               pipelined_board):
        # historical signature: explore(program, board, search_options, ...)
        with pytest.raises(TypeError, match="positional"):
            explore(tiny_program, pipelined_board,
                    SearchOptions(max_iterations=4))

    def test_config_plus_legacy_is_an_error(self, tiny_program,
                                            pipelined_board):
        with pytest.raises(TypeError, match="unexpected keyword"):
            explore(tiny_program, pipelined_board,
                    search_options=SearchOptions(),
                    config=ExploreConfig())

    def test_unknown_keyword_is_an_error(self, tiny_program,
                                         pipelined_board):
        with pytest.raises(TypeError, match="unexpected keyword"):
            explore(tiny_program, pipelined_board, serach_options=None)

    def test_too_many_positionals_is_an_error(self, tiny_program,
                                              pipelined_board):
        with pytest.raises(TypeError, match="positional"):
            explore(tiny_program, pipelined_board,
                    None, None, None, None, None, None)

    def test_duplicate_positional_and_keyword_is_an_error(
            self, tiny_program, pipelined_board):
        with pytest.raises(TypeError):
            explore(tiny_program, pipelined_board, SearchOptions(),
                    search_options=SearchOptions())


class TestJobSpecCreate:
    def test_config_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = JobSpec.create(
                "kernel:fir",
                config=JobConfig(board="nonpipelined", max_attempts=3),
            )
        assert spec.board == "nonpipelined"
        assert spec.max_attempts == 3
        assert spec.id == "fir-nonpipelined"

    def test_default_config(self):
        spec = JobSpec.create("kernel:mm")
        assert spec.board == "pipelined"
        assert spec.id == "mm-pipelined"

    def test_option_dataclasses_normalized_to_primitives(self):
        spec = JobSpec.create(
            "kernel:fir",
            config=JobConfig(search=SearchOptions(max_iterations=8)),
        )
        assert dict(spec.search)["max_iterations"] == 8

    def test_legacy_keywords_are_a_type_error(self):
        with pytest.raises(TypeError, match="board"):
            JobSpec.create("kernel:fir", board="nonpipelined",
                           timeout_s=5.0)

    def test_config_plus_legacy_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            JobSpec.create("kernel:fir", board="pipelined",
                           config=JobConfig())

    def test_unknown_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected"):
            JobSpec.create("kernel:fir", borad="pipelined")

    def test_bad_board_still_a_service_error(self):
        with pytest.raises(ServiceError, match="unknown board"):
            JobSpec.create("kernel:fir", config=JobConfig(board="asic"))


class TestStableSurface:
    def test_top_level_reexports(self):
        import repro
        for name in ("ExploreConfig", "MetricsRegistry", "ObsConfig",
                     "Span", "Tracer", "explore"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_service_exports_job_config(self):
        import repro.service
        assert "JobConfig" in repro.service.__all__
