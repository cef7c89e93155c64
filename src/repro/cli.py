"""Command-line interface.

The flow as a tool::

    python -m repro explore fir.c --board pipelined --vhdl fir.vhd
    python -m repro explore kernel:fir kernel:mm --parallel --jobs 2
    python -m repro compile kernel:mm --unroll 4,2,1 --print-code
    python -m repro estimate kernel:fir --unroll 8,8 --board nonpipelined
    python -m repro batch manifest.json --jobs 4 --memo-dir memo \\
        --trace trace.jsonl
    python -m repro batch manifest.json --run-dir runs/exp1
    python -m repro trace runs/exp1 --metrics-json metrics.json
    python -m repro kernels

And as a service (see the README's "Running as a service")::

    python -m repro serve --state-dir runs/server --jobs 2
    python -m repro submit kernel:fir --board pipelined
    python -m repro status job-abc123def456
    python -m repro result job-abc123def456 --wait

Input programs come from a C-subset file or from the built-in kernel
registry via ``kernel:<name>``.  Exit status is 0 on success, 1 on any
compilation or exploration error (with the message on stderr); ``batch``
additionally exits 1 when any job in the manifest fails, and ``result``
exits 1 when the job it reports on failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir import LoopNest, Program, print_program
from repro.kernels import ALL_KERNELS, kernel_by_name
from repro.target import Board, wildstar_nonpipelined, wildstar_pipelined
from repro.transform import PipelineOptions, UnrollVector


def _load_program(spec: str) -> Tuple[Program, Optional[object]]:
    """Program from ``kernel:<name>`` or a source file path.

    Returns (program, kernel-or-None) — the kernel gives value ranges
    and output arrays when available.
    """
    if spec.startswith("kernel:"):
        try:
            kernel = kernel_by_name(spec.split(":", 1)[1])
        except KeyError as error:
            raise ReproError(error.args[0]) from None
        return kernel.program(), kernel
    path = Path(spec)
    if not path.exists():
        raise ReproError(f"no such file: {spec}")
    return compile_source(path.read_text(), name=path.stem), None


def _board(name: str) -> Board:
    if name in ("pipelined", "p"):
        return wildstar_pipelined()
    if name in ("nonpipelined", "non-pipelined", "np"):
        return wildstar_nonpipelined()
    raise ReproError(f"unknown board {name!r}; use pipelined or nonpipelined")


def _unroll(text: str, depth: int) -> UnrollVector:
    try:
        factors = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ReproError(f"bad unroll vector {text!r}; expected e.g. 4,2") from None
    if len(factors) != depth:
        raise ReproError(
            f"unroll vector {text!r} has {len(factors)} entries for a "
            f"depth-{depth} nest"
        )
    return UnrollVector(factors)


def _pipeline_options(args, kernel) -> PipelineOptions:
    ranges = None
    if args.narrow and kernel is not None:
        ranges = kernel.value_ranges()
    return PipelineOptions(
        exploit_outer_reuse=not args.no_outer_reuse,
        apply_data_layout=not args.no_layout,
        narrow_bitwidths=args.narrow,
        input_value_ranges=ranges,
        register_cap=args.register_cap,
    )


def _add_common(parser: argparse.ArgumentParser, multi: bool = False) -> None:
    if multi:
        parser.add_argument("program", nargs="+",
                            help="C-subset file(s), or kernel:<name>")
    else:
        parser.add_argument("program", help="C-subset file, or kernel:<name>")
    parser.add_argument("--board", default="pipelined",
                        help="pipelined (default) or nonpipelined")
    parser.add_argument("--narrow", action="store_true",
                        help="run bitwidth narrowing first")
    parser.add_argument("--no-outer-reuse", action="store_true",
                        help="disable rotating register banks (Carr-Kennedy only)")
    parser.add_argument("--no-layout", action="store_true",
                        help="disable custom data layout")
    parser.add_argument("--register-cap", type=int, default=None,
                        help="drop register banks beyond this many registers")


def build_parser() -> argparse.ArgumentParser:
    from repro.version import get_version
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DEFACTO design space exploration (PLDI 2002 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {get_version()}")
    commands = parser.add_subparsers(dest="command", required=True)

    explore_cmd = commands.add_parser(
        "explore", help="search the unroll design space for a loop nest"
    )
    _add_common(explore_cmd, multi=True)
    explore_cmd.add_argument("--parallel", action="store_true",
                             help="run through the batch engine in worker "
                                  "processes (several programs fan out)")
    explore_cmd.add_argument("--jobs", type=int, default=2, metavar="N",
                             help="worker processes with --parallel "
                                  "(default 2)")
    explore_cmd.add_argument("--trace", metavar="FILE",
                             help="write JSONL telemetry here "
                                  "(--parallel only)")
    explore_cmd.add_argument("--vhdl", metavar="FILE",
                             help="write the selected design's VHDL here")
    explore_cmd.add_argument("--verilog", metavar="FILE",
                             help="write the selected design's Verilog here")
    explore_cmd.add_argument("--testbench", metavar="FILE",
                             help="write a self-checking VHDL testbench "
                                  "(kernel inputs only)")
    explore_cmd.add_argument("--json", metavar="FILE",
                             help="write a machine-readable summary here")
    explore_cmd.add_argument("--spans", metavar="FILE",
                             help="append structured trace spans here "
                                  "(JSONL; serial explore only)")
    explore_cmd.add_argument("--strategy", default=None, metavar="NAME",
                             help="search strategy: balance (default), "
                                  "linear, random, hill, greedy, genetic, "
                                  "exhaustive, or auto (pick from space "
                                  "features; see `repro strategies`)")
    explore_cmd.add_argument("--max-point-failures", type=int, default=None,
                             metavar="N",
                             help="abort a kernel's search after N design-"
                                  "point failures (default 16; failed points "
                                  "below the budget are reported as "
                                  "infeasible and skipped)")
    explore_cmd.add_argument("--backend", default="analytic",
                             help="estimation backend to navigate on: "
                                  "analytic (default), placeroute, or interp")
    explore_cmd.add_argument("--fidelity", default="single",
                             choices=("single", "multi"),
                             help="multi: navigate on --backend, confirm the "
                                  "selection on the authoritative interp "
                                  "backend and cross-validate sampled points")
    explore_cmd.add_argument("--incremental", default=True,
                             action=argparse.BooleanOptionalAction,
                             help="memoize analysis/schedule/estimate work "
                                  "across neighboring design points "
                                  "(bit-identical selections, default on)")
    explore_cmd.add_argument("--memo-dir", metavar="DIR", default=None,
                             help="persist the incremental memo journal "
                                  "here; a later run pointed at the same "
                                  "directory starts warm")

    compile_cmd = commands.add_parser(
        "compile", help="apply the transformation pipeline at a fixed unroll"
    )
    _add_common(compile_cmd)
    compile_cmd.add_argument("--unroll", required=True,
                             help="comma-separated factors, e.g. 4,2")
    compile_cmd.add_argument("--print-code", action="store_true",
                             help="print the transformed C-subset code")
    compile_cmd.add_argument("--vhdl", metavar="FILE")
    compile_cmd.add_argument("--verilog", metavar="FILE")

    estimate_cmd = commands.add_parser(
        "estimate", help="behavioral synthesis estimate at a fixed unroll"
    )
    _add_common(estimate_cmd)
    estimate_cmd.add_argument("--unroll", default=None,
                              help="comma-separated factors, e.g. 4,2 "
                                   "(default: no unrolling)")
    estimate_cmd.add_argument("--backend", default="analytic",
                              help="estimation backend: analytic (default), "
                                   "placeroute, or interp")
    estimate_cmd.add_argument("--schedule", action="store_true",
                              help="print the steady-state body's cycle-by-"
                                   "cycle schedule")
    estimate_cmd.add_argument("--multipliers", type=int, default=None,
                              help="bound the multiplier allocation (§2.3)")

    batch_cmd = commands.add_parser(
        "batch", help="run a manifest of explorations through the "
                      "parallel batch engine"
    )
    batch_cmd.add_argument("manifest", nargs="?", default=None,
                           help="JSON job manifest (omit with --resume)")
    batch_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                           help="worker processes (1 = serial in-process)")
    batch_cmd.add_argument("--trace", metavar="FILE",
                           help="write JSONL telemetry events here")
    batch_cmd.add_argument("--timeout", type=float, default=None, metavar="S",
                           help="per-job timeout in seconds (jobs may "
                                "override; needs --jobs >= 2)")
    batch_cmd.add_argument("--run-dir", metavar="DIR", default=None,
                           help="journal the run here (ledger + manifest "
                                "snapshot; trace and memo default inside); "
                                "makes the run resumable after a crash")
    batch_cmd.add_argument("--resume", metavar="DIR", default=None,
                           help="resume a journaled run directory: adopt "
                                "completed jobs, re-run only what was in "
                                "flight (no manifest argument)")
    batch_cmd.add_argument("--call-deadline", type=float, default=None,
                           metavar="S",
                           help="per-estimator-call deadline in seconds "
                                "(jobs may override via call_deadline_s)")
    batch_cmd.add_argument("--fault-spec", metavar="FILE", default=None,
                           help="fault-injection spec for chaos testing "
                                "(see repro.faults)")
    batch_cmd.add_argument("--incremental", default=True,
                           action=argparse.BooleanOptionalAction,
                           help="memoize analysis/schedule/estimate work "
                                "across design points and jobs (default on; "
                                "with --run-dir the memo journal persists "
                                "under <run-dir>/memo)")
    batch_cmd.add_argument("--memo-dir", metavar="DIR", default=None,
                           help="persist the incremental memo journal here "
                                "(overrides the <run-dir>/memo default)")
    batch_cmd.add_argument("--json", metavar="FILE",
                           help="write a machine-readable batch summary here")

    trace_cmd = commands.add_parser(
        "trace", help="render the observability report for a journaled "
                      "run directory (no re-execution)"
    )
    trace_cmd.add_argument("run_dir", metavar="RUN_DIR",
                           help="run directory from `repro batch --run-dir`")
    trace_cmd.add_argument("--metrics-json", metavar="FILE", default=None,
                           help="export the merged metrics registry "
                                "snapshot as JSON")
    trace_cmd.add_argument("--validate", action="store_true",
                           help="validate every recorded event and span "
                                "against the v1 schema; exit 1 on problems")

    serve_cmd = commands.add_parser(
        "serve", help="run the persistent exploration service "
                      "(HTTP job queue over the batch engine)"
    )
    serve_cmd.add_argument("--state-dir", metavar="DIR", required=True,
                           help="durable state directory (job journal, "
                                "spans); reuse it to resume queued jobs")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8078,
                           help="TCP port; 0 picks a free one "
                                "(default 8078)")
    serve_cmd.add_argument("--port-file", metavar="FILE", default=None,
                           help="write the bound port here once listening "
                                "(for scripts using --port 0)")
    serve_cmd.add_argument("--jobs", type=int, default=2, metavar="N",
                           help="worker processes (0 = degraded in-process "
                                "execution; default 2)")
    serve_cmd.add_argument("--max-concurrency", type=int, default=None,
                           metavar="N",
                           help="jobs in flight at once (default: --jobs)")
    serve_cmd.add_argument("--queue-limit", type=int, default=None,
                           metavar="N",
                           help="admission limit: queued jobs beyond this "
                                "bounce with HTTP 429 (default 64)")
    serve_cmd.add_argument("--timeout", type=float, default=None, metavar="S",
                           help="default per-job timeout in seconds "
                                "(jobs may override)")
    serve_cmd.add_argument("--call-deadline", type=float, default=None,
                           metavar="S",
                           help="per-estimator-call deadline in seconds")
    serve_cmd.add_argument("--fault-spec", metavar="FILE", default=None,
                           help="fault-injection spec for chaos testing "
                                "(see repro.faults)")
    serve_cmd.add_argument("--fleet", action="store_true",
                           help="fleet mode: shard jobs across registered "
                                "workers (attach with `repro worker`) "
                                "instead of a local process pool")
    serve_cmd.add_argument("--lease-ttl", type=float, default=None,
                           metavar="S",
                           help="fleet worker lease TTL in seconds "
                                "(default 10; workers heartbeat at TTL/3)")
    serve_cmd.add_argument("--shard-points", type=int, default=None,
                           metavar="N",
                           help="design points per fleet shard (default 16)")
    serve_cmd.add_argument("--tenant-quota", metavar="NAME=QUOTA[:WEIGHT]",
                           action="append", default=None,
                           help="per-tenant admission policy: active-job "
                                "quota and fair-queueing weight "
                                "(repeatable)")
    serve_cmd.add_argument("--journal-segment-bytes", type=int, default=None,
                           metavar="N",
                           help="rotate the job journal past N bytes per "
                                "segment (default 4 MiB; rotation "
                                "triggers snapshot compaction)")
    serve_cmd.add_argument("--incremental", default=True,
                           action=argparse.BooleanOptionalAction,
                           help="hand jobs the incremental-evaluation "
                                "switch; the memo journal persists under "
                                "<state-dir>/memo (default on)")

    worker_cmd = commands.add_parser(
        "worker", help="attach a fleet worker to a coordinator "
                       "(claims shards until idle or stopped)"
    )
    worker_cmd.add_argument("--server", metavar="URL",
                            default="http://127.0.0.1:8078",
                            help="coordinator base URL "
                                 "(default http://127.0.0.1:8078)")
    worker_cmd.add_argument("--id", dest="worker_id", metavar="NAME",
                            default=None,
                            help="worker id (default: host-pid derived)")
    worker_cmd.add_argument("--poll", type=float, default=0.5, metavar="S",
                            help="claim poll interval when idle "
                                 "(default 0.5)")
    worker_cmd.add_argument("--fault-spec", metavar="FILE", default=None,
                            help="fault-injection spec (heartbeat / "
                                 "worker_kill sites)")
    worker_cmd.add_argument("--max-shards", type=int, default=None,
                            metavar="N",
                            help="exit after completing N shards")
    worker_cmd.add_argument("--idle-exit", type=float, default=None,
                            metavar="S",
                            help="exit after S seconds with no work")
    worker_cmd.add_argument("--memo-dir", metavar="DIR", default=None,
                            help="worker-local incremental memo journal "
                                 "directory (overrides the coordinator's, "
                                 "which is machine-local)")

    submit_cmd = commands.add_parser(
        "submit", help="submit one exploration job to a running server"
    )
    submit_cmd.add_argument("program",
                            help="C-subset file, or kernel:<name>")
    submit_cmd.add_argument("--server", metavar="URL",
                            default="http://127.0.0.1:8078",
                            help="server base URL "
                                 "(default http://127.0.0.1:8078)")
    submit_cmd.add_argument("--board", default="pipelined",
                            help="pipelined (default) or nonpipelined")
    submit_cmd.add_argument("--timeout", type=float, default=None,
                            metavar="S", help="per-job timeout in seconds")
    submit_cmd.add_argument("--max-attempts", type=int, default=None,
                            metavar="N", help="total tries before failing")
    submit_cmd.add_argument("--call-deadline", type=float, default=None,
                            metavar="S",
                            help="per-estimator-call deadline in seconds")
    submit_cmd.add_argument("--backend", default=None,
                            help="estimation backend: analytic (default), "
                                 "placeroute, or interp")
    submit_cmd.add_argument("--fidelity", default=None,
                            choices=("single", "multi"),
                            help="multi: confirm the selection on the "
                                 "authoritative backend")
    submit_cmd.add_argument("--tenant", default=None, metavar="NAME",
                            help="submit as this tenant (admission quotas "
                                 "and fair queueing apply per tenant)")
    submit_cmd.add_argument("--strategy", default=None, metavar="NAME",
                            help="search strategy for the job (see "
                                 "`repro strategies`); auto picks one from "
                                 "the design space's features")

    status_cmd = commands.add_parser(
        "status", help="show a submitted job's status document"
    )
    status_cmd.add_argument("job_id", metavar="JOB_ID")
    status_cmd.add_argument("--server", metavar="URL",
                            default="http://127.0.0.1:8078",
                            help="server base URL "
                                 "(default http://127.0.0.1:8078)")

    result_cmd = commands.add_parser(
        "result", help="fetch a submitted job's report (optionally "
                       "waiting for it to finish)"
    )
    result_cmd.add_argument("job_id", metavar="JOB_ID")
    result_cmd.add_argument("--server", metavar="URL",
                            default="http://127.0.0.1:8078",
                            help="server base URL "
                                 "(default http://127.0.0.1:8078)")
    result_cmd.add_argument("--wait", action="store_true",
                            help="poll until the job reaches a terminal "
                                 "state")
    result_cmd.add_argument("--poll", type=float, default=0.5, metavar="S",
                            help="poll interval with --wait (default 0.5)")
    result_cmd.add_argument("--wait-timeout", type=float, default=300.0,
                            metavar="S",
                            help="give up waiting after S seconds "
                                 "(default 300)")

    fsck_cmd = commands.add_parser(
        "fsck", help="inspect (and repair) the durable journals in a "
                     "server state directory or batch run directory"
    )
    fsck_cmd.add_argument("directory", metavar="DIR",
                          help="a --state-dir (jobs journal) or run "
                               "directory (ledger)")
    fsck_cmd.add_argument("--repair", action="store_true",
                          help="truncate torn tails and quarantine+drop "
                               "corrupt records (atomic segment rewrites)")
    fsck_cmd.add_argument("--compact", action="store_true",
                          help="with --repair: also fold the journal into "
                               "a single snapshot checkpoint")
    fsck_cmd.add_argument("--json", metavar="FILE", default=None,
                          help="also write the full report as JSON "
                               "('-' for stdout)")

    fuzz_cmd = commands.add_parser(
        "fuzz", help="differential-fuzz the pipeline against the "
                     "reference interpreter"
    )
    fuzz_cmd.add_argument("--iterations", type=int, default=500, metavar="N",
                          help="random programs to generate (default 500)")
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="base RNG seed; iteration k derives its own "
                               "stream from seed:k (default 0)")
    fuzz_cmd.add_argument("--artifact-dir", metavar="DIR", default=None,
                          help="write failing programs (.c) and metadata "
                               "(.json) here")

    commands.add_parser("kernels", help="list the built-in paper kernels")
    commands.add_parser("strategies",
                        help="list the registered search strategies")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed by a pipe reader (e.g. `| head`); not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _dispatch(args) -> int:
    if args.command == "kernels":
        for kernel in ALL_KERNELS:
            print(f"{kernel.name:8} {kernel.description}")
        return 0
    if args.command == "strategies":
        return _run_strategies()
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "result":
        return _run_result(args)
    if args.command == "fsck":
        return _run_fsck(args)

    if args.command == "explore":
        if args.parallel:
            return _run_explore_parallel(args)
        board = _board(args.board)
        if len(args.program) > 1 and (
            args.vhdl or args.verilog or args.testbench or args.json
        ):
            raise ReproError(
                "--vhdl/--verilog/--testbench/--json need a single program"
            )
        status = 0
        for spec in args.program:
            program, kernel = _load_program(spec)
            options = _pipeline_options(args, kernel)
            status = max(
                status, _run_explore(args, program, kernel, board, options)
            )
        return status

    program, kernel = _load_program(args.program)
    board = _board(args.board)
    options = _pipeline_options(args, kernel)

    if args.command == "compile":
        return _run_compile(args, program, board, options)
    if args.command == "estimate":
        return _run_estimate(args, program, board, options)
    raise ReproError(f"unknown command {args.command!r}")


def _run_strategies() -> int:
    """``repro strategies``: the registry, one line per algorithm."""
    from repro.dse import DEFAULT_STRATEGY, get_strategy, strategy_ids
    for strategy_id in strategy_ids():
        strategy = get_strategy(strategy_id)
        mark = " (default)" if strategy_id == DEFAULT_STRATEGY else ""
        shape = "partitionable" if strategy.partitionable else "sequential"
        print(f"{strategy_id:11} {shape:14} {strategy.description}{mark}")
        knobs = strategy.default_knobs()
        if knobs:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(knobs.items()))
            print(f"{'':11} knobs: {rendered}")
    print("\nauto: pick a strategy from the design space's features; the "
          "decision\nand per-strategy win rates are journaled "
          "(strategy_selected / strategy_outcome).")
    return 0


def _run_explore(args, program, kernel, board, options) -> int:
    from repro.dse import ExploreConfig, SearchOptions, explore
    from repro.obs import ObsConfig
    search_overrides = {}
    if args.max_point_failures is not None:
        search_overrides["max_point_failures"] = args.max_point_failures
    if args.strategy is not None:
        search_overrides["strategy"] = args.strategy
    search_options = SearchOptions(**search_overrides) \
        if search_overrides else None
    obs = None
    if args.spans:
        obs = ObsConfig(spans_path=Path(args.spans))
    result = explore(program, board, config=ExploreConfig(
        search=search_options, pipeline=options, obs=obs,
        backend=args.backend, fidelity=args.fidelity,
        incremental=args.incremental,
        memo_dir=Path(args.memo_dir) if args.memo_dir else None,
    ))
    print(result.report())
    if result.memo_stats is not None:
        stats = result.memo_stats
        lookups = stats["hits"] + stats["misses"]
        rate = stats["hits"] / lookups if lookups else 0.0
        print(f"incremental: {stats['hits']} memo hits / {lookups} lookups "
              f"({rate:.0%}), {stats['invalidations']} invalidations")
    design = result.selected.design
    if args.vhdl:
        from repro.hdl import emit_vhdl
        Path(args.vhdl).write_text(emit_vhdl(design.program, design.plan))
        print(f"wrote {args.vhdl}")
    if args.verilog:
        from repro.hdl import emit_verilog
        Path(args.verilog).write_text(emit_verilog(design.program, design.plan))
        print(f"wrote {args.verilog}")
    if args.testbench:
        if kernel is None:
            raise ReproError("--testbench needs a kernel:<name> program "
                             "(it provides the input vectors)")
        from repro.hdl import emit_vhdl_testbench
        text = emit_vhdl_testbench(
            design, kernel.random_inputs(0), kernel.output_arrays
        )
        Path(args.testbench).write_text(text)
        print(f"wrote {args.testbench}")
    if args.json:
        summary = {
            "program": result.program_name,
            "board": result.board_name,
            "selected_unroll": list(result.selected.unroll),
            "cycles": result.selected.cycles,
            "space_slices": result.selected.space,
            "balance": result.selected.balance,
            "speedup": result.speedup,
            "points_searched": result.points_searched,
            "design_space_size": result.design_space_size,
            "trace": [str(step) for step in result.search.trace],
            "baseline_degraded": result.baseline_degraded,
            "backend": result.backend,
            "fidelity": args.fidelity,
            "infeasible_points": [
                diagnostic.as_dict() for diagnostic in result.infeasible
            ],
        }
        from repro.dse import DEFAULT_STRATEGY
        if result.strategy != DEFAULT_STRATEGY:
            summary["strategy"] = result.strategy
        if result.strategy_selection is not None:
            summary["strategy_selection"] = result.strategy_selection.as_dict()
        if result.confirmation is not None:
            summary["confirmation"] = result.confirmation.as_dict()
        if result.differential is not None:
            summary["rank_agreement"] = result.differential.as_dict()
        if result.memo_stats is not None:
            summary["memo"] = result.memo_stats
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _run_explore_parallel(args) -> int:
    """``explore --parallel``: the program list becomes an in-memory
    manifest and runs through the batch engine's worker processes."""
    from repro.service import parse_manifest
    if args.vhdl or args.verilog or args.testbench or args.json or args.spans:
        raise ReproError(
            "--vhdl/--verilog/--testbench/--json/--spans are not supported "
            "with --parallel; use the serial explore for artifact output, or "
            "`repro batch --run-dir` for traced parallel runs"
        )
    pipeline = {
        "exploit_outer_reuse": not args.no_outer_reuse,
        "apply_data_layout": not args.no_layout,
        "narrow_bitwidths": args.narrow,
    }
    if args.register_cap is not None:
        pipeline["register_cap"] = args.register_cap
    defaults = {"board": _board_name(args.board), "pipeline": pipeline}
    if args.backend != "analytic":
        defaults["backend"] = args.backend
    if args.fidelity != "single":
        defaults["fidelity"] = args.fidelity
    if args.max_point_failures is not None:
        defaults.setdefault("search", {})["max_point_failures"] = \
            args.max_point_failures
    if args.strategy is not None:
        defaults.setdefault("search", {})["strategy"] = args.strategy
    manifest = parse_manifest({
        "defaults": defaults,
        "jobs": [{"program": spec} for spec in args.program],
    }, source="<explore --parallel>", base_dir=Path.cwd())
    return _drive_batch(manifest, args.jobs, args.trace,
                        timeout=None, json_path=None,
                        incremental=args.incremental,
                        memo_dir=args.memo_dir)


def _run_batch(args) -> int:
    from repro.service import load_manifest
    if args.resume and args.run_dir:
        raise ReproError("--resume already names the run directory; "
                         "do not also pass --run-dir")
    if args.resume:
        if args.manifest:
            raise ReproError("--resume loads the manifest snapshot from the "
                             "run directory; do not pass a manifest")
        manifest = None
    else:
        if not args.manifest:
            raise ReproError("a manifest is required (or use --resume DIR)")
        manifest = load_manifest(Path(args.manifest))
    return _drive_batch(
        manifest, args.jobs, args.trace,
        timeout=args.timeout, json_path=args.json,
        run_dir=args.resume or args.run_dir, resume=bool(args.resume),
        call_deadline=args.call_deadline, fault_spec=args.fault_spec,
        incremental=args.incremental, memo_dir=args.memo_dir,
    )


def _drive_batch(manifest, jobs, trace, timeout, json_path,
                 run_dir=None, resume=False, call_deadline=None,
                 fault_spec=None, incremental=True, memo_dir=None) -> int:
    from repro.report import batch_summary_table
    from repro.service import run_batch
    result = run_batch(
        manifest,
        workers=jobs,
        trace_path=Path(trace) if trace else None,
        default_timeout_s=timeout,
        run_dir=Path(run_dir) if run_dir else None,
        resume=resume,
        call_deadline_s=call_deadline,
        fault_spec=fault_spec,
        incremental=incremental,
        memo_dir=Path(memo_dir) if memo_dir else None,
    )
    print(result.report())
    print()
    print(batch_summary_table(result.summary).render())
    if trace:
        print(f"wrote {trace}")
    if json_path:
        summary = {
            "summary": result.summary,
            "jobs": [
                {
                    "id": job.spec.id,
                    "status": job.status,
                    "attempts": job.attempts,
                    **({"error": job.error} if job.error else {}),
                    **(job.payload or {}),
                }
                for job in result.results
            ],
        }
        Path(json_path).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {json_path}")
    return 0 if result.all_ok else 1


def _run_trace(args) -> int:
    """``repro trace RUN_DIR``: render the report from recorded spans
    and events alone — the run is never re-executed."""
    from repro.obs.report import (
        SPANS_NAME, export_metrics, load_run, render_report, validate_run,
    )
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ReproError(f"no such run directory: {run_dir}")
    if not (run_dir / SPANS_NAME).is_file():
        raise ReproError(
            f"{run_dir} has no {SPANS_NAME}; is it a "
            f"`repro batch --run-dir` directory?"
        )
    status = 0
    if args.validate:
        problems = validate_run(run_dir)
        if problems:
            for problem in problems:
                print(f"repro trace: invalid: {problem}", file=sys.stderr)
            status = 1
        else:
            print(f"validated {run_dir}: all events and spans conform "
                  f"to schema v1")
    observations = load_run(run_dir)
    print(render_report(observations))
    if args.metrics_json:
        snapshot = export_metrics(observations)
        Path(args.metrics_json).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.metrics_json}")
    return status


def _run_serve(args) -> int:
    """``repro serve``: run the exploration server until SIGTERM."""
    from repro.server import ExplorationServer
    state_dir = Path(args.state_dir)
    tenant_policies = None
    if args.tenant_quota:
        from repro.server import parse_tenant_policy
        tenant_policies = {}
        for text in args.tenant_quota:
            try:
                name, policy = parse_tenant_policy(text)
            except ValueError as error:
                raise ReproError(str(error)) from None
            tenant_policies[name] = policy
    from repro.server.leases import DEFAULT_LEASE_TTL_S
    server = ExplorationServer(
        state_dir=state_dir,
        host=args.host,
        port=args.port,
        workers=args.jobs,
        max_concurrency=args.max_concurrency,
        queue_limit=(args.queue_limit if args.queue_limit is not None
                     else 64),
        default_timeout_s=args.timeout,
        call_deadline_s=args.call_deadline,
        fault_spec=args.fault_spec,
        fleet=args.fleet,
        lease_ttl_s=(args.lease_ttl if args.lease_ttl is not None
                     else DEFAULT_LEASE_TTL_S),
        shard_points=args.shard_points,
        tenant_policies=tenant_policies,
        journal_segment_bytes=args.journal_segment_bytes,
        incremental=args.incremental,
    )
    return server.serve(
        port_file=Path(args.port_file) if args.port_file else None
    )


def _run_worker(args) -> int:
    """``repro worker``: claim and execute fleet shards until stopped."""
    import os
    import socket
    from repro.server import FleetWorker, WorkerOptions
    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    worker = FleetWorker(WorkerOptions(
        server=args.server,
        worker_id=worker_id,
        poll_s=max(0.05, args.poll),
        fault_spec=args.fault_spec,
        max_shards=args.max_shards,
        idle_exit_s=args.idle_exit,
        memo_dir=args.memo_dir,
    ))
    print(f"worker {worker_id} attached to {args.server}", file=sys.stderr)
    done = worker.run()
    print(f"worker {worker_id} exiting after {done} shard(s)",
          file=sys.stderr)
    return 0


def _run_fsck(args) -> int:
    """``repro fsck``: verify durable journals; repair with ``--repair``.

    Exit codes follow the fsck tradition loosely: 0 = every journal is
    clean (or was just repaired), 1 = damage found and left in place.
    """
    import json as json_mod
    from repro.durable import inspect_path, repair_path
    directory = Path(args.directory)
    reports = inspect_path(directory)
    doc: dict = {"reports": [report.to_doc() for report in reports]}
    damaged = [report for report in reports if not report.clean]
    for report in reports:
        state = "clean" if report.clean else "DAMAGED"
        print(f"{report.prefix}: {state} — {report.total_records} records "
              f"in {len(report.segments)} segment(s), "
              f"{report.corrupt_records} corrupt, "
              f"torn tail: {'yes' if report.torn_tail else 'no'}")
        for segment in report.segments:
            marks = []
            if segment.corrupt:
                marks.append(f"{len(segment.corrupt)} corrupt")
            if segment.torn_tail:
                marks.append("torn tail")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            print(f"  {segment.name}: {segment.records} records "
                  f"({segment.framed} framed, {segment.legacy} legacy)"
                  f"{suffix}")
        for damage in (report.torn_tail,) if report.torn_tail else ():
            print(f"  torn tail at {damage['segment']}:{damage['line']}")
        for problem in report.schema_problems:
            print(f"  schema: {problem}")
    if args.repair and (damaged or args.compact):
        repairs = repair_path(directory, compact=args.compact)
        doc["repairs"] = [repair.to_doc() for repair in repairs]
        for repair in repairs:
            print(f"{repair.prefix}: repaired — "
                  f"{repair.quarantined} quarantined, "
                  f"{repair.dropped_records} dropped, "
                  f"tail truncated: "
                  f"{'yes' if repair.truncated_tail else 'no'}"
                  + (", compacted" if repair.compacted else ""))
        damaged = [report for report in inspect_path(directory)
                   if not report.clean]
        doc["clean_after_repair"] = not damaged
    if args.json:
        rendered = json_mod.dumps(doc, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(rendered)
        else:
            Path(args.json).write_text(rendered)
    return 1 if damaged else 0


def _submission_entry(args) -> dict:
    """The submit verb's job document (manifest-job shape)."""
    program = args.program
    if not program.startswith("kernel:"):
        path = Path(program)
        if path.exists():
            # Resolve before shipping: the server would otherwise look
            # relative to its own state directory.
            program = str(path.resolve())
    entry: dict = {"program": program, "board": _board_name(args.board)}
    if args.timeout is not None:
        entry["timeout_s"] = args.timeout
    if args.max_attempts is not None:
        entry["max_attempts"] = args.max_attempts
    if args.call_deadline is not None:
        entry["call_deadline_s"] = args.call_deadline
    if args.backend is not None:
        entry["backend"] = args.backend
    if args.fidelity is not None:
        entry["fidelity"] = args.fidelity
    if args.tenant is not None:
        entry["tenant"] = args.tenant
    if args.strategy is not None:
        entry["search"] = {"strategy": args.strategy}
    return entry


def _run_submit(args) -> int:
    """``repro submit``: POST one job; the id is the first output line."""
    from repro.server import submit_job
    reply = submit_job(args.server, _submission_entry(args))
    job_id = reply.get("job_id", "")
    print(job_id)
    word = "created" if reply.get("created") else "deduplicated to existing"
    print(f"{word} job {job_id} (status: {reply.get('status')})",
          file=sys.stderr)
    return 0


def _run_status(args) -> int:
    from repro.server import job_status
    doc = job_status(args.server, args.job_id)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _run_result(args) -> int:
    """``repro result``: print the report; exit 1 if the job failed."""
    import time as _time
    from repro.server import job_report
    deadline = _time.monotonic() + args.wait_timeout
    while True:
        done, doc = job_report(args.server, args.job_id)
        if done:
            break
        if not args.wait:
            print(json.dumps(doc, indent=2, sort_keys=True))
            raise ReproError(
                f"job {args.job_id} is not finished (status: "
                f"{doc.get('status')}); use --wait to poll"
            )
        if _time.monotonic() > deadline:
            raise ReproError(
                f"job {args.job_id} did not finish within "
                f"{args.wait_timeout:.0f}s"
            )
        _time.sleep(max(0.05, args.poll))
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if doc.get("status") == "ok" else 1


def _run_fuzz(args) -> int:
    from repro.fuzz import run_fuzz
    if args.iterations < 1:
        raise ReproError("--iterations must be >= 1")
    report = run_fuzz(
        args.iterations, seed=args.seed, artifact_dir=args.artifact_dir
    )
    print(report.summary())
    return 0 if report.ok else 1


def _board_name(name: str) -> str:
    """Normalize a CLI board alias to the manifest vocabulary."""
    if name in ("pipelined", "p"):
        return "pipelined"
    if name in ("nonpipelined", "non-pipelined", "np"):
        return "nonpipelined"
    raise ReproError(f"unknown board {name!r}; use pipelined or nonpipelined")


def _run_compile(args, program, board, options) -> int:
    from repro.transform import compile_design
    unroll = _unroll(args.unroll, LoopNest(program).depth)
    design = compile_design(program, unroll, board.num_memories, options)
    print(f"compiled {design.name}: peeled {list(design.peeled) or 'nothing'}, "
          f"{design.stats.registers_added} registers added")
    print(design.plan.describe())
    if args.print_code:
        print()
        print(print_program(design.program))
    if args.vhdl:
        from repro.hdl import emit_vhdl
        Path(args.vhdl).write_text(emit_vhdl(design.program, design.plan))
        print(f"wrote {args.vhdl}")
    if args.verilog:
        from repro.hdl import emit_verilog
        Path(args.verilog).write_text(emit_verilog(design.program, design.plan))
        print(f"wrote {args.verilog}")
    return 0


def _run_estimate(args, program, board, options) -> int:
    from repro.estimate import get_backend
    from repro.synthesis import ResourceConstraints
    from repro.transform import compile_design
    depth = LoopNest(program).depth
    if args.unroll is None:
        unroll = UnrollVector.ones(depth)
    else:
        unroll = _unroll(args.unroll, depth)
    design = compile_design(program, unroll, board.num_memories, options)
    constraints = None
    if args.multipliers is not None:
        constraints = ResourceConstraints.of(mul=args.multipliers)
    backend = get_backend(args.backend)
    estimate = backend.estimate(design.program, board, design.plan,
                                constraints=constraints)
    provenance = estimate.provenance
    print(f"U={unroll}: {estimate.summary()}")
    print(f"  backend         : {provenance.backend} "
          f"(fidelity {provenance.fidelity})")
    print(f"  fetch rate      : {estimate.fetch_rate:.1f} bits/cycle")
    print(f"  consumption rate: {estimate.consumption_rate:.1f} bits/cycle")
    print(f"  area breakdown  : {estimate.area.as_dict()}")
    print(f"  clock           : {estimate.clock_ns:.2f} ns")
    print(f"  fits {board.fpga.name}: {estimate.fits(board)}")
    if provenance.details:
        print(f"  backend details : {dict(provenance.details)}")
    if args.schedule:
        from repro.synthesis import steady_state_schedule_report
        print()
        print(steady_state_schedule_report(
            design.program, board, design.plan, constraints=constraints,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
