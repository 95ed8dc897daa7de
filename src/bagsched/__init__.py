"""Water-filling scheduler for bags of tasks on related machines, with
dual-fitting certificates, an LP bridge, and instance generators."""

from .blocks import (
    BlockClassification,
    BlockView,
    IntervalBlocks,
    JobView,
    classify_blocks,
)
from .duals import (
    CONSTANTS,
    FittingConstants,
    RankBands,
    build_general_duals,
    build_single_job_duals,
    build_weaker_duals,
    halving_spans,
    rank_bands,
)
from .gen import SplitMix64, gen_lower_bound, gen_random_ica, gen_raw_speeds
from .instances import (
    IcaReport,
    Instance,
    InstanceError,
    Job,
    SpeedClass,
    TaskGroup,
    SPEED_BASE,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    make_job,
    preprocess_raw_speeds,
    round_speeds,
    select_capacity_classes,
    thresholds,
    validate_ica,
    with_speedup,
)
from .lp import (
    LpError,
    PrimalSolution,
    brute_force_opt,
    check_lp_solution,
    check_primal,
    emit_lp,
    parse_lp_solution,
    primal_to_solution_values,
    schedule_to_primal,
    solution_objective,
    task_table,
)
from .rates import AliveJob, Block, RateError, RateProfile, assign_rates
from .report import (
    AnalysisError,
    CheckRecord,
    DualCertificate,
    Violation,
    certified_ratio,
)
from .sim import (
    InfeasibleSliceError,
    Interval,
    LivelockError,
    ScheduleSlice,
    Trace,
    realize_slice,
    simulate,
    write_trace,
)

__version__ = "0.1.0"
