"""Simulated shared-memory multiprocessor substrate.

The paper evaluates its synchronization schemes on 1980s shared-memory
machines (Alliant FX/8, Cray X-MP, Cedar).  This package is the
substitute substrate: an event-driven simulator with interleaved memory
modules (hot-spot contention), a broadcast synchronization bus with local
register images and write coverage (section 6 of the paper), dynamic
self-scheduling, and per-processor cycle accounting.
"""

from .engine import (AccessRecord, DeadlockError, Engine, HazardError,
                     SimulationLimitError, TaskStats)
from .machine import Machine, MachineConfig, SCHED_COUNTER, Workload
from .memory import MemoryConfig, SharedMemory
from .metrics import EXTRA_SCHEMA_VERSION, RunResult
from .ops import (Address, Annotate, Compute, Fence, MemRead, MemWrite,
                  SyncRead, SyncUpdate, SyncWrite, Tag, WaitUntil)
from .scheduler import Scheduler, SelfScheduler, StaticScheduler
from .cache_fabric import CachedSyncFabric
from .sync_bus import BroadcastSyncFabric, MemorySyncFabric, SyncFabric
from .validate import (DependenceInstance, ValidationError,
                       check_dependence_instances, check_final_state,
                       check_reads_match_recovered,
                       check_reads_match_sequential, mix, statement_reads)

__all__ = [
    "AccessRecord", "Address", "Annotate", "BroadcastSyncFabric",
    "CachedSyncFabric", "Compute",
    "DeadlockError", "DependenceInstance", "EXTRA_SCHEMA_VERSION", "Engine",
    "Fence", "HazardError", "Machine",
    "MachineConfig", "MemRead", "MemWrite", "MemoryConfig",
    "MemorySyncFabric", "RunResult", "SCHED_COUNTER", "Scheduler",
    "SelfScheduler", "SharedMemory", "SimulationLimitError", "StaticScheduler",
    "SyncFabric", "SyncRead", "SyncUpdate", "SyncWrite", "Tag", "TaskStats",
    "ValidationError", "WaitUntil", "Workload",
    "check_dependence_instances", "check_final_state",
    "check_reads_match_recovered", "check_reads_match_sequential",
    "mix", "statement_reads",
]
