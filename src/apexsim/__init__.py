"""Recoverability-aware block allocation sandbox.

A small modeled disk, a flat-namespace filesystem on top of it, allocation
policies that rank unused blocks by a tunable priority score, deterministic
workload simulation with trace replay, post-deletion recovery measurement,
and a tabular reinforcement loop that tunes the ranking coefficients.
"""

from .compare import CompareRow, CompareSettings, run_compare
from .disk import Disk, claim, new_disk, release
from .errors import BlockStateError, ConfigError, DiskFullError, TraceError
from .model import DiskGeometry, Hyperparams, Neighborhood
from .policies import ApexPolicy, FirstFitPolicy, RandomPolicy, make_policy
from .priority import record_file_access, top_unused, update_spatial_factors
from .recovery import PerfWeights, access_time_term, measure_recovery, performance, recovery_table
from .tuner import TrainConfig, TrainReport, TrainSchedule, evaluate_policy, train
from .vfs import DELETED, LINKED, OBSOLETE, PARTIAL, USED, FileRecord, FileSystem
from .workload import (
    SimReport,
    WorkloadConfig,
    WorkloadOp,
    generate_op,
    read_trace,
    replay_trace,
    run_simulation,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "ApexPolicy",
    "BlockStateError",
    "CompareRow",
    "CompareSettings",
    "ConfigError",
    "DELETED",
    "Disk",
    "DiskFullError",
    "DiskGeometry",
    "FileRecord",
    "FileSystem",
    "FirstFitPolicy",
    "Hyperparams",
    "LINKED",
    "Neighborhood",
    "OBSOLETE",
    "PARTIAL",
    "PerfWeights",
    "RandomPolicy",
    "SimReport",
    "TraceError",
    "TrainConfig",
    "TrainReport",
    "TrainSchedule",
    "USED",
    "WorkloadConfig",
    "WorkloadOp",
    "access_time_term",
    "claim",
    "evaluate_policy",
    "generate_op",
    "make_policy",
    "measure_recovery",
    "new_disk",
    "performance",
    "read_trace",
    "record_file_access",
    "recovery_table",
    "release",
    "replay_trace",
    "run_compare",
    "run_simulation",
    "top_unused",
    "train",
    "update_spatial_factors",
    "write_trace",
]
