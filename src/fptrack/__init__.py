"""fptrack: tracking fixed points of time-varying contraction maps.

A library for online fixed-point tracking under inexact map evaluations and
asynchronous distributed execution, together with an executable bounds engine
that turns every analytical tracking-error guarantee into a checkable
certificate on simulated runs.
"""

from . import bounds, problems
from .async_sim import (
    ChannelLog,
    ChannelModel,
    DelayStats,
    DependencyGraph,
    FixedDelay,
    IidDrop,
    PeriodicDelivery,
    ScheduleTable,
    ZeroDelay,
    audit_dependency_graph,
    read_schedule_csv,
    realized_delay_stats,
    run_async_tracker,
    step_async,
    write_log_csv,
)
from .core import (
    FixedPointSeries,
    InexactMapFamily,
    LipschitzEstimate,
    MapFamily,
    TrackingTrace,
    compute_fixed_point_series,
    estimate_lipschitz,
    pointwise,
    run_lockstep_tracker,
    run_online_tracker,
    seeded_stream,
    solve_fixed_point,
    tracking_error,
    verify_map_error,
    verify_self_map,
    with_output_noise,
)
from .domains import Domain, DomainSampler
from .errors import (
    ConfigError,
    ContractionUncertifiedError,
    DomainViolationError,
    FixedTrackError,
    LengthMismatchError,
    NonConvergenceError,
    PartitionUnsupportedError,
    PreconditionError,
    StaleBeyondCapError,
)
from .norms import L2, LINF, Norm

__version__ = "0.1.0"
