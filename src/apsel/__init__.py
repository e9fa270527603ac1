"""Aggregation-point selection for vehicular sensor-data offloading.

Vehicles that continuously report small status packets over cellular
can instead elect a covering subset of themselves (aggregation points)
to collect neighbors' packets over direct radio links and upload one
aggregate. This package implements the selection algorithms, the
mobility and metrics plumbing around them, and a parameter tuner.
"""

from .graph import (
    SnapshotGraph,
    UnknownVehicleError,
    all_k_closeness,
    bfs_distances,
)
from .metrics import (
    PeriodMetrics,
    RunMetrics,
    aggregation_rate,
    notification_count,
    routing_update_count,
    summarize_run,
    upload_cost,
)
from .mobility import (
    RadioParams,
    Snapshot,
    Trace,
    TraceFormatError,
    TracePoint,
    build_direction_constrained_udg,
    build_udg,
    generate_two_way_roadway,
    load_trace_csv,
    write_trace_csv,
)
from .selection import (
    GraphSizeError,
    SelectionResult,
    assign_to_aggregation_points,
    centrality_select,
    exact_min_dominating_set,
    rb_select,
    rb_select_with_slots,
    verify_domination,
)
from .tuner import (
    NelderMeadResult,
    TuneResult,
    TunerConfig,
    nelder_mead,
    tune_integer_objective,
    tune_parameters,
)

__version__ = "0.1.0"
