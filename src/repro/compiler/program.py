"""Multi-loop programs: compile and run a sequence of loop nests.

Scientific programs are sequences of loops over shared arrays; the paper
treats each loop independently but the values obviously flow between
them.  :func:`run_program` chains the per-loop pipeline: each loop is
compiled (classification, delay analysis, scheme selection), simulated
with the memory state the previous loops left behind, validated against
the chained sequential semantics, and its final array contents are
carried forward.

Loops classified *serial* are executed on one processor (an explicit
sequential workload), so a program mixing DOALL, DOACROSS and serial
loops still runs end to end with honest cycle counts.  The
instance-based scheme's renamed storage is copied back to the program
arrays between loops -- the storage-reclamation cost of single
assignment the paper's [16] studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..depend.model import Loop
from ..schemes.base import loop_pids, statement_instances
from ..sim.machine import Machine, MachineConfig, Workload
from ..sim.memory import SharedMemory
from ..sim.metrics import RunResult
from ..sim.ops import Address
from ..sim.sync_bus import BroadcastSyncFabric, SyncFabric
from ..sim.validate import ValidationError, check_reads_match_sequential
from .pipeline import CompileResult, compile_loop


class SerialLoopWorkload(Workload):
    """A loop executed in sequential order by a single process."""

    def __init__(self, loop: Loop,
                 seed_memory: Optional[Dict[Address, Any]] = None) -> None:
        self.loop = loop
        self.seed_memory = dict(seed_memory or {})
        self.iterations = [0]
        #: every executed statement instance in sequential order,
        #: compiled here so no op is built while the clock runs
        self.instances = [
            compiled for lpid in loop_pids(loop)
            for compiled in statement_instances(loop, lpid).values()
            if compiled is not None]

    def build_fabric(self, memory: SharedMemory) -> SyncFabric:
        return BroadcastSyncFabric()

    def make_process(self, _iteration: int) -> Generator:
        for compiled in self.instances:
            yield from compiled.stream()

    def initial_memory(self) -> Dict[Address, Any]:
        return dict(self.seed_memory)

    @property
    def sync_vars(self) -> int:
        return 0


@dataclass
class LoopRun:
    """One loop's compilation decision and simulation outcome."""

    loop: Loop
    decision: Optional[CompileResult]   # None for serial loops
    result: RunResult
    scheme: str


@dataclass
class ProgramResult:
    """Outcome of a whole program run."""

    runs: List[LoopRun]
    final_state: Dict[Address, Any]

    @property
    def total_cycles(self) -> int:
        return sum(run.result.makespan for run in self.runs)

    @property
    def schemes_used(self) -> List[str]:
        return [run.scheme for run in self.runs]

    def summary(self) -> List[Dict[str, Any]]:
        """Per-loop headline rows for reporting."""
        return [{"loop": run.loop.name, "scheme": run.scheme,
                 "makespan": run.result.makespan,
                 "sync_vars": run.result.sync_vars}
                for run in self.runs]


def _expected_program_state(loops: Sequence[Loop]) -> Dict[Address, Any]:
    """Sequential reference: run every loop in order, chaining memory."""
    state: Dict[Address, Any] = {}
    for loop in loops:
        final, _reads = loop.execute_sequential(state)
        state = final
    return state


def run_program(loops: Sequence[Loop], processors: int = 8,
                objective: str = "time",
                force_scheme: Optional[str] = None,
                schedule: str = "self",
                validate: bool = True) -> ProgramResult:
    """Compile and simulate ``loops`` in order, carrying memory forward."""
    if not loops:
        raise ValueError("a program needs at least one loop")
    state: Dict[Address, Any] = {}
    runs: List[LoopRun] = []
    for loop in loops:
        decision = compile_loop(loop, processors=processors,
                                objective=objective,
                                force_scheme=force_scheme)
        if decision.instrumented is None:
            workload = SerialLoopWorkload(loop, seed_memory=state)
            machine = Machine(MachineConfig(processors=1,
                                            schedule="block"))
            result = machine.run(workload)
            if validate:
                _final, expected_reads = loop.execute_sequential(state)
                check_reads_match_sequential(result.trace, expected_reads)
            arrays = {ref.array for stmt in loop.body
                      for _kind, ref in stmt.refs()}
            update = {addr: value
                      for addr, value in result.final_memory.items()
                      if addr[0] in arrays}
            scheme_name = "serial"
            runs.append(LoopRun(loop=loop, decision=None, result=result,
                                scheme=scheme_name))
        else:
            instrumented = decision.instrumented
            instrumented.seed_memory = dict(state)
            machine = Machine(MachineConfig(processors=processors,
                                            schedule=schedule))
            result = machine.run(instrumented)
            if validate:
                instrumented.validate(result)
            update = instrumented.extract_final_state(result)
            runs.append(LoopRun(loop=loop, decision=decision,
                                result=result,
                                scheme=decision.chosen_scheme))
        state = dict(state)
        state.update(update)

    if validate:
        expected = _expected_program_state(loops)
        for addr, value in expected.items():
            if state.get(addr) != value:
                raise ValidationError(
                    f"program state mismatch at {addr}: got "
                    f"{state.get(addr)}, sequential chain leaves {value}")
    return ProgramResult(runs=runs, final_state=state)
