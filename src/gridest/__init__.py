"""Distributed AC power system state estimation toolkit.

The package splits a grid into regions, simulates noisy nodal and line
measurements, and reconciles the regional estimates through a Gauss-Newton
consensus scheme, with an ADMM baseline, a centralized reference solver,
and an a-posteriori covariance analysis alongside.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .admm import run_admm
from .aladin import AladinResult, CommFormula, RunConfig, RunResult, comm_counts, run_aladin
from .caseio import (
    builtin_case,
    builtin_partition_spec,
    config_hash,
    convert_tables,
    dump_case,
    dump_partition_spec,
    load_case,
    load_measurements,
    load_partition_spec,
    parse_tables,
    save_measurements,
    write_history_csv,
    write_summary,
)
from .central import CentralSolution, solve_central
from .errors import (
    DimensionMismatch,
    Diverged,
    DuplicateLine,
    EmptyRegion,
    GridestError,
    InnerDiverged,
    ParseError,
    SingularBordered,
    SingularJacobian,
    SingularKkt,
    SingularMatrix,
    UnassignedBus,
    UnknownBusReference,
    ValidationError,
    ZeroVoltage,
)
from .grid import Bus, GridCase, Line, PowerFlowModel, line_flows
from .measurements import (
    MeasurementSet,
    NoiseConfig,
    RegionResidual,
    simulate_measurements,
    split_by_region,
)
from .partition import (
    Partition,
    extend_state,
    internal_line_keys,
    merge_check,
    partition_grid,
    restrict_state,
)
from .posterior import PosteriorReport, analyze, analyze_central, covariance_bound, render_table
from .powerflow import PowerFlowSolution, solve_power_flow

__all__ = [
    "__version__",
    "run_admm",
    "AladinResult", "CommFormula", "RunConfig", "RunResult", "comm_counts", "run_aladin",
    "builtin_case", "builtin_partition_spec", "config_hash", "convert_tables",
    "dump_case", "dump_partition_spec", "load_case", "load_measurements",
    "load_partition_spec", "parse_tables", "save_measurements",
    "write_history_csv", "write_summary",
    "CentralSolution", "solve_central",
    "DimensionMismatch", "Diverged", "DuplicateLine", "EmptyRegion",
    "GridestError", "InnerDiverged", "ParseError", "SingularBordered",
    "SingularJacobian", "SingularKkt", "SingularMatrix", "UnassignedBus",
    "UnknownBusReference", "ValidationError", "ZeroVoltage",
    "Bus", "GridCase", "Line", "PowerFlowModel", "line_flows",
    "MeasurementSet", "NoiseConfig", "RegionResidual", "simulate_measurements",
    "split_by_region",
    "Partition", "extend_state", "internal_line_keys", "merge_check",
    "partition_grid", "restrict_state",
    "PosteriorReport", "analyze", "analyze_central", "covariance_bound",
    "render_table",
    "PowerFlowSolution", "solve_power_flow",
]
