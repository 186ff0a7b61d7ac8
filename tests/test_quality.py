"""Repository-wide quality gates: accounting invariants, documentation."""

from __future__ import annotations

import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.apps import PipelinedRelaxation, fig21_loop, run_relaxation
from repro.schemes import RunConfig, make_scheme, scheme_names
from repro.sim import Machine, MachineConfig


def walk_modules():
    packages = [repro]
    modules = []
    for package in packages:
        for info in pkgutil.walk_packages(package.__path__,
                                          package.__name__ + "."):
            modules.append(importlib.import_module(info.name))
    return modules


def test_every_module_documented():
    for module in walk_modules():
        assert module.__doc__ and module.__doc__.strip(), \
            f"{module.__name__} has no module docstring"


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


@pytest.mark.parametrize("name", scheme_names())
def test_accounting_never_exceeds_makespan(name):
    """busy + spin + stall of any processor fits inside the makespan."""
    loop = fig21_loop(n=40)
    machine = Machine(MachineConfig(processors=4))
    result = make_scheme(name).run(loop, config=RunConfig(machine=machine))
    for stats in result.processors:
        assert stats.accounted <= result.makespan, (name, stats)
        assert stats.done_at <= result.makespan


def test_total_busy_is_exactly_the_work():
    """Compute cycles are conserved: sum of busy equals the loop's
    serial compute time (plus nothing)."""
    loop = fig21_loop(n=40)
    machine = Machine(MachineConfig(processors=4))
    result = make_scheme("process-oriented").run(
        loop, config=RunConfig(machine=machine))
    assert result.total_busy == loop.serial_cycles()


def test_activity_segments_match_stats():
    result = run_relaxation(PipelinedRelaxation(12, group=1), processors=4)
    activity = result.extra["activity"]
    busy_by_task = {}
    for task, kind, start, end in activity:
        if kind == "busy":
            busy_by_task[task] = busy_by_task.get(task, 0) + (end - start)
    for stats in result.processors:
        assert busy_by_task.get(stats.name, 0) == stats.busy


def test_package_version():
    assert repro.__version__


def test_cli_imports_no_third_party_packages():
    """The package is stdlib-only: loading the CLI pulls in neither
    networkx nor numpy (checked in a fresh interpreter, since this
    test process may have imported them for other reasons)."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, repro.__main__; "
             "print(sorted({'networkx', 'numpy'} & set(sys.modules)))")
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, check=True)
    assert completed.stdout.strip() == "[]"
