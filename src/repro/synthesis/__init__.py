"""Behavioral synthesis estimation: the Monet(TM) stand-in.

Binds operations to a hardware operator library, schedules regions ASAP
under memory port constraints, allocates operators from peak
concurrency, and models design area — returning the (space, cycles)
estimates the design space exploration consumes.
"""

from repro.synthesis.area import AreaBreakdown, index_variable_widths
from repro.synthesis.binding import BoundUnit, OperatorBinding, bind_operators
from repro.synthesis.dfg import Dataflow, DataflowBuilder, Node
from repro.synthesis.estimator import Estimate, LOOP_OVERHEAD_CYCLES, synthesize
from repro.synthesis.operators import OperatorLibrary, OperatorSpec, default_library
from repro.synthesis.placeroute import ImplementationResult, place_and_route
from repro.synthesis.regions import (
    Block, LoopBlock, Region, build_blocks, iter_regions, program_blocks,
)
from repro.synthesis.schedule_report import (
    render_region_schedule, steady_state_schedule_report,
)
from repro.synthesis.scheduling import (
    RegionSchedule, ResourceConstraints, merge_operator_demand,
    schedule_region,
)

__all__ = [
    "AreaBreakdown", "Block", "BoundUnit", "Dataflow", "DataflowBuilder",
    "Estimate", "OperatorBinding", "bind_operators",
    "ImplementationResult", "LOOP_OVERHEAD_CYCLES", "LoopBlock", "Node",
    "OperatorLibrary", "OperatorSpec", "Region", "RegionSchedule",
    "ResourceConstraints",
    "build_blocks", "default_library", "index_variable_widths",
    "iter_regions", "merge_operator_demand", "place_and_route",
    "program_blocks", "render_region_schedule", "schedule_region",
    "steady_state_schedule_report", "synthesize",
]
