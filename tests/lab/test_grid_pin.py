"""Every standing grid expands to the same cells, in the same order.

A sha256 of the ``(key, config())`` list of each preset and of each
``bench/workloads.py`` sweep grid (seeds 0-3) pins how specs are built
and expanded, so a change to spec decoding cannot move a cell, reorder
the grid or change a config byte without failing here.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.lab import make_spec

BENCH_WORKLOADS = (pathlib.Path(__file__).resolve().parents[2]
                   / "bench" / "workloads.py")


def _digest(specs) -> str:
    rows = [[cell.key, cell.config()] for spec in specs
            for cell in spec.cells()]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _bench_workloads():
    name = "bench_workloads_grid_pin"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH_WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve their module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("preset, digest", [
    ("fig3.1",
     "cea88bb6aa65c43da38ba6ef5150a0fb63490bf20c600cfb34feadd415ee440f"),
    ("fig3.2",
     "e05b0881ca1df5ee93f2b14faefaa93c275b0c068682876da0878dfe683f4bb5"),
    ("kernels",
     "0b0c8d912da835723102648153ab3de99fce68296c48120df515146c12a245c0"),
    ("scheme-comparison",
     "697f00361c812a38e4c5e4937ed53cdda6f18dec87bb17481903c8808f7eb3d5"),
    ("smoke",
     "52efbab20ffe88240f13fb29b6e5c0d60104abdbf5e5529f33fb98fbfa3901c5"),
    ("speedup",
     "87e77a7b7228c54cd6dce2d82b672c9ae36a23cf73e17990f9a989fe6c59a625"),
])
def test_preset_grid_is_pinned(preset, digest):
    assert _digest([make_spec(preset)]) == digest


@pytest.mark.parametrize("workload, digest", [
    ("figures",
     "38f8f2797dff5f52fdb66ffb7d52cd22b9b7516f8696ad529fcc81214e25884c"),
    ("optimizer",
     "544455615ba6354e11e76a399ef9a8a6f1b5fac6d22d719727f111b357d965ea"),
    ("service-fanout",
     "3bf42af801537e468bb528c17abb6348ad6ab0512fc78398110278f587f48710"),
])
def test_bench_grid_is_pinned(workload, digest):
    workloads = _bench_workloads()
    specs = [spec for seed in range(4)
             for spec in workloads.grid(workload, seed)]
    assert _digest(specs) == digest
