"""Declarative sweep specifications: what to run, as data.

A :class:`SweepSpec` names a grid -- apps x schemes x machine shapes x
seeds x wait bounds (x optional fault plans) -- and expands it into
:class:`SweepCell` values.  A cell is the atomic unit of work the
:mod:`repro.lab.runner` executes: it is frozen, hashable, and converts
to a canonical JSON-able ``config`` dict that both keys the on-disk
cache and ships to pool workers.

Specs come from three places:

* the named presets here (``sweep_presets()``), which encode the
  repository's standing benchmark grids (Fig 3.1, Fig 3.2, the scheme
  comparison, the speedup curves, the kernel suite);
* a JSON file (``SweepSpec.from_json``), for ad-hoc grids from the
  command line;
* code, for tests and custom harnesses.
"""

from __future__ import annotations

import inspect
import json
import pathlib
from dataclasses import dataclass, fields
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..faults.plan import plan_names
from ..schemes.registry import scheme_names
from ..sim.machine import SCHEDULES
from .apps import APP_BUILDERS

#: scheme name meaning "let the compiler pipeline pick"
AUTO_SCHEME = "auto"

#: the crossed axes of a :class:`SweepSpec` beyond apps and schemes
_AXES = ("processors", "schedules", "seeds", "wait_bounds", "plans")
_FLAGS = ("recover", "validate", "eliminate")


def _check_outside_input(where: str,
                         apps: Iterable[Tuple[str, Iterable[Tuple[str, Any]]]],
                         processors: Iterable[Any],
                         seeds: Iterable[Any], wait_bounds: Iterable[Any],
                         **named: Iterable[Any]) -> None:
    """Reject unknown app/scheme/schedule/plan names, app params that
    are not a keyword of the app's builder or whose value is neither
    None nor an integer, processor counts that are not an integer >= 1,
    non-integer seeds and wait bounds that are neither None nor an
    integer >= 1 in a grid or cell that came from outside (a JSON
    boolean is not an integer here)."""
    for app, params in apps:
        if app not in APP_BUILDERS:
            raise ValueError(f"unknown app {app!r} in {where}; known: "
                             f"{', '.join(sorted(APP_BUILDERS))}")
        keywords = inspect.signature(APP_BUILDERS[app]).parameters
        for param, value in params:
            if param not in keywords:
                raise ValueError(
                    f"unknown param {param}={value!r} of app {app!r} in "
                    f"{where}; known: {', '.join(keywords)}")
            if value is not None and (not isinstance(value, int)
                                      or isinstance(value, bool)):
                raise ValueError(f"param {param}={value!r} of app {app!r} "
                                 f"in {where} must be null or an integer")
    known = {"scheme": scheme_names() + [AUTO_SCHEME],
             "schedule": list(SCHEDULES),
             "plan": plan_names()}
    for kind, values in named.items():
        for value in values:
            if value not in known[kind]:
                raise ValueError(
                    f"unknown {kind} {value!r} in {where}; "
                    f"known: {', '.join(sorted(known[kind]))}")
    for procs in processors:
        if (not isinstance(procs, int) or isinstance(procs, bool)
                or procs < 1):
            raise ValueError(f"processors {procs!r} in {where} "
                             f"must be an integer >= 1")
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed {seed!r} in {where} must be an integer")
    for bound in wait_bounds:
        if bound is not None and (not isinstance(bound, int)
                                  or isinstance(bound, bool) or bound < 1):
            raise ValueError(f"wait bound {bound!r} in {where} must be "
                             f"null or an integer >= 1")


def _flag(where: str, name: str, value: Any) -> bool:
    """A ``recover``/``validate``/``eliminate`` value from outside: only
    a JSON boolean passes, so ``"false"`` cannot switch a flag on."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} {value!r} in {where} must be true or "
                         f"false")
    return value


def _distinct(values: Iterable[Any]) -> Tuple[Any, ...]:
    """``values`` without repeats, first occurrence kept.  Values are
    compared by ``repr``, so ``1``, ``1.0`` and ``True`` stay distinct
    (they give distinct cell keys)."""
    first: Dict[str, Any] = {}
    for value in values:
        first.setdefault(repr(value), value)
    return tuple(first.values())


@dataclass(frozen=True)
class SweepCell:
    """One point of a sweep grid: a single simulated run, as data.

    ``app_params`` is a sorted tuple of ``(name, value)`` pairs so the
    cell stays hashable; :meth:`config` rebuilds the dict form.
    """

    app: str
    app_params: Tuple[Tuple[str, Any], ...]
    scheme: str
    processors: int
    schedule: str = "self"
    seed: int = 0
    wait_bound: Optional[int] = None
    validate: bool = True
    #: fault-plan preset name (None: clean run), seeded by the cell's
    #: ``seed``; ``python -m repro chaos`` is a sweep of such cells
    plan: Optional[str] = None
    #: enable the recovery layer under the fault plan
    recover: bool = False
    #: also run the redundant-sync eliminator and record its before /
    #: after sync-op counts in the cell's metrics (analysis only: the
    #: simulated run keeps the scheme's full placement)
    eliminate: bool = False

    def config(self) -> Dict[str, Any]:
        """The cell as a canonical, JSON-able config dict."""
        return {
            "app": self.app,
            "app_params": dict(self.app_params),
            "scheme": self.scheme,
            "processors": self.processors,
            "schedule": self.schedule,
            "seed": self.seed,
            "wait_bound": self.wait_bound,
            "validate": self.validate,
            "plan": self.plan,
            "recover": self.recover,
            "eliminate": self.eliminate,
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "SweepCell":
        """Rebuild a cell from its :meth:`config` dict (the inverse).

        The entry for cell configs from outside: the service's
        ``{"cells": [...]}`` submissions and the journaled job files a
        restarted :class:`~repro.lab.service.SweepService` reconstitutes.
        Unknown keys and names, app params the app's builder does not
        take or whose value is not an integer or null, processors below
        1, non-integer seeds, bad wait bounds and flags that are not JSON
        booleans are rejected with the checks a :class:`SweepSpec`
        applies.
        """
        if not isinstance(config, Mapping):
            raise ValueError(f"cell config {config!r} must be an object")
        keys = [field.name for field in fields(cls)]
        unknown = sorted(set(config) - set(keys))
        if unknown:
            raise ValueError(f"unknown cell key(s) {', '.join(unknown)}; "
                             f"known: {', '.join(keys)}")
        cell = cls(
            app=config["app"],
            app_params=_freeze_params(config.get("app_params") or {}),
            scheme=config["scheme"],
            processors=config["processors"],
            schedule=config.get("schedule", "self"),
            seed=config.get("seed", 0),
            wait_bound=config.get("wait_bound"),
            validate=config.get("validate", True),
            plan=config.get("plan"),
            recover=config.get("recover", False),
            eliminate=config.get("eliminate", False),
        )
        where = f"cell {cell.key}"
        _check_outside_input(
            where, [(cell.app, cell.app_params)], [cell.processors],
            [cell.seed], [cell.wait_bound],
            scheme=[cell.scheme], schedule=[cell.schedule],
            plan=[] if cell.plan is None else [cell.plan])
        for flag in _FLAGS:
            _flag(where, flag, getattr(cell, flag))
        return cell

    @property
    def key(self) -> str:
        """Stable human-readable identity, used to index merged records."""
        params = ",".join(f"{k}={v}" for k, v in self.app_params)
        parts = [f"{self.app}({params})", self.scheme,
                 f"p{self.processors}", self.schedule, f"seed{self.seed}"]
        if self.wait_bound is not None:
            parts.append(f"wait{self.wait_bound}")
        if self.plan is not None:
            parts.append(f"plan={self.plan}" + ("+recover" if self.recover
                                                else ""))
        if self.eliminate:
            parts.append("elim")
        return "/".join(parts)


def _freeze_params(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    if not isinstance(params, Mapping):
        raise ValueError(f"app params {params!r} must map names to values")
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class SweepSpec:
    """A named grid of runs: the cross product of every axis below.

    A value repeated on an axis is kept once, at its first position, so
    no cell is simulated twice; a grid without repeats expands exactly
    as written.
    """

    name: str
    #: (app name, parameter dict) points; not crossed with each other
    apps: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]
    #: scheme names, or :data:`AUTO_SCHEME` for compiler selection
    schemes: Tuple[str, ...]
    processors: Tuple[int, ...] = (8,)
    schedules: Tuple[str, ...] = ("self",)
    seeds: Tuple[int, ...] = (0,)
    wait_bounds: Tuple[Optional[int], ...] = (None,)
    #: fault-plan presets ((None,): clean runs only)
    plans: Tuple[Optional[str], ...] = (None,)
    recover: bool = False
    validate: bool = True
    #: run the redundant-sync eliminator alongside every cell (adds an
    #: ``elimination`` column to the metrics; see ``SweepCell.eliminate``)
    eliminate: bool = False

    @staticmethod
    def build(name: str, apps: Sequence[Tuple[str, Mapping[str, Any]]],
              schemes: Sequence[str], **axes: Any) -> "SweepSpec":
        """Convenience constructor taking plain dicts/lists."""
        frozen_apps = tuple((app, _freeze_params(params))
                            for app, params in apps)
        for key in _AXES:
            if key in axes:
                axes[key] = tuple(axes[key])
        return SweepSpec(name=name, apps=frozen_apps,
                         schemes=tuple(schemes), **axes)

    def __post_init__(self) -> None:
        where = f"spec {self.name!r}"
        _check_outside_input(
            where, self.apps, self.processors, self.seeds,
            self.wait_bounds, scheme=self.schemes, schedule=self.schedules,
            plan=[plan for plan in self.plans if plan is not None])
        if not self.apps or not self.schemes:
            raise ValueError(f"{where} has an empty grid")
        for axis in _AXES:
            if not getattr(self, axis):
                raise ValueError(f"{where} has an empty {axis} axis")
        for axis in ("apps", "schemes") + _AXES:
            object.__setattr__(self, axis, _distinct(getattr(self, axis)))

    def cells(self) -> List[SweepCell]:
        """Expand the grid in deterministic (nested-axis) order."""
        out: List[SweepCell] = []
        for app, params in self.apps:
            for scheme in self.schemes:
                for procs in self.processors:
                    for schedule in self.schedules:
                        for plan in self.plans:
                            for seed in self.seeds:
                                for bound in self.wait_bounds:
                                    out.append(SweepCell(
                                        app=app, app_params=params,
                                        scheme=scheme, processors=procs,
                                        schedule=schedule, seed=seed,
                                        wait_bound=bound,
                                        validate=self.validate,
                                        plan=plan,
                                        recover=self.recover and
                                        plan is not None,
                                        eliminate=self.eliminate))
        return out

    def with_seed_base(self, base: int) -> "SweepSpec":
        """The same grid with every seed shifted by ``base``."""
        if not base:
            return self
        import dataclasses
        return dataclasses.replace(
            self, seeds=tuple(s + base for s in self.seeds))

    def to_json(self) -> Dict[str, Any]:
        """JSON-able form, the inverse of :meth:`from_json`."""
        return {
            "name": self.name,
            "apps": [[app, dict(params)] for app, params in self.apps],
            "schemes": list(self.schemes),
            "processors": list(self.processors),
            "schedules": list(self.schedules),
            "seeds": list(self.seeds),
            "wait_bounds": list(self.wait_bounds),
            "plans": list(self.plans),
            "recover": self.recover,
            "validate": self.validate,
            "eliminate": self.eliminate,
        }

    @classmethod
    def from_json(cls, data: Union[str, pathlib.Path, Mapping[str, Any]],
                  ) -> "SweepSpec":
        """Load a spec from a dict, a JSON string, or a ``.json`` path.

        Keys outside :meth:`to_json`'s are rejected, so a misspelled
        axis cannot silently fall back to its default, and so are flags
        that are not JSON booleans.
        """
        if isinstance(data, pathlib.Path):
            data = json.loads(data.read_text())
        elif isinstance(data, str):
            data = json.loads(data)
        keys = ("name", "apps", "schemes") + _AXES + _FLAGS
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise ValueError(f"unknown spec key(s) {', '.join(unknown)}; "
                             f"known: {', '.join(keys)}")
        axes = {key: data[key] for key in _AXES if key in data}
        for flag in _FLAGS:
            if flag in data:
                axes[flag] = _flag(f"spec {data.get('name')!r}", flag,
                                   data[flag])
        return cls.build(data["name"],
                         [(app, params) for app, params in data["apps"]],
                         data["schemes"], **axes)


def _fig31_spec() -> SweepSpec:
    return SweepSpec.build(
        "fig3.1",
        apps=[("fig2.1", {"n": n}) for n in (50, 100, 200, 400)],
        schemes=["reference-based", "instance-based"])


def _fig32_spec() -> SweepSpec:
    n = 96
    apps: List[Tuple[str, Dict[str, Any]]] = [("fig2.1", {"n": n})]
    apps += [("fig2.1-delay", {"n": n, "slow_iteration": n // 3,
                               "slow_cost": cost})
             for cost in (400, 1600, 6400)]
    return SweepSpec.build(
        "fig3.2", apps=apps,
        schemes=["statement-oriented", "process-oriented"])


def _comparison_spec() -> SweepSpec:
    # eliminate=True opts the grid into the redundant-sync column:
    # each record's metrics carry sync-op counts before / after the
    # Midkiff/Padua reduction (fold-chain is the loop where the
    # process-counter fold actually makes an arc redundant).
    return SweepSpec.build(
        "scheme-comparison",
        apps=([("fig2.1", {"n": n}) for n in (120, 240)]
              + [("fold-chain", {"n": 120})]),
        schemes=scheme_names(), eliminate=True)


def _speedup_spec() -> SweepSpec:
    return SweepSpec.build(
        "speedup",
        apps=[("fig2.1", {"n": 80})], schemes=scheme_names(),
        processors=(1, 2, 4, 8, 16), validate=False)


def _kernels_spec() -> SweepSpec:
    apps: List[Tuple[str, Dict[str, Any]]] = [
        (name, {"n": 64, "cost": 30})
        for name in ("hydro", "tridiag", "state", "first-diff", "prefix")]
    apps.append(("adi", {"n": 10, "m": 8, "cost": 30}))
    return SweepSpec.build("kernels", apps=apps, schemes=[AUTO_SCHEME])


def _smoke_spec() -> SweepSpec:
    return SweepSpec.build(
        "smoke",
        apps=[("fig2.1", {"n": n, "cost": 8}) for n in (12, 16)],
        schemes=scheme_names(), processors=(4,))


#: name -> builder for the repository's standing grids
PRESETS = {
    "fig3.1": _fig31_spec,
    "fig3.2": _fig32_spec,
    "scheme-comparison": _comparison_spec,
    "speedup": _speedup_spec,
    "kernels": _kernels_spec,
    "smoke": _smoke_spec,
}


def sweep_presets() -> List[str]:
    """Names of the built-in sweep specifications."""
    return sorted(PRESETS)


def make_spec(name: str) -> SweepSpec:
    """Instantiate a preset spec by name."""
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown sweep preset {name!r}; known: "
                         f"{sweep_presets()}") from None
