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

All three decode through one table, :data:`_FIELDS`; outside input
enters by :func:`decode_spec`, and a bad value is a :class:`ValueError`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import pathlib
from dataclasses import MISSING, dataclass, fields, replace
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..faults.plan import plan_names
from ..schemes.registry import scheme_names
from ..sim.machine import SCHEDULES
from .apps import APP_BUILDERS

#: scheme name meaning "let the compiler pipeline pick"
AUTO_SCHEME = "auto"

#: app name -> the keywords its builder takes, looked up once
_APP_KEYWORDS = {app: tuple(inspect.signature(builder).parameters)
                 for app, builder in APP_BUILDERS.items()}

#: a decoder of one value: (value, where) -> the value, or ValueError
Decoder = Callable[[Any, str], Any]


def _integer(value: Any, minimum: Optional[int] = None) -> bool:
    """An int of at least ``minimum``; a JSON boolean is not one."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (minimum is None or value >= minimum))


def _value(noun: str, ok: Callable[[Any], bool], must: str) -> Decoder:
    def decode(value: Any, where: str) -> Any:
        if not ok(value):
            raise ValueError(f"{noun} {value!r} in {where} must be {must}")
        return value
    return decode


def _known(kind: str, names: List[str], null: bool = False) -> Decoder:
    listed = ", ".join(sorted(names))
    allowed = set(names) | ({None} if null else set())

    def decode(value: Any, where: str) -> Optional[str]:
        if (value is None or isinstance(value, str)) and value in allowed:
            return value
        raise ValueError(f"unknown {kind} {value!r} in {where}; "
                         f"known: {listed}")
    return decode


def _app(point: Any, where: str) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
    """An ``[app, {builder keyword: int | null}]`` pair, its params as a
    sorted tuple of pairs (the frozen form is taken too)."""
    if not isinstance(point, (list, tuple)) or len(point) != 2:
        raise ValueError(f"app {point!r} in {where} must be an "
                         f"[app, params] pair")
    app, params = point
    keywords = _APP_KEYWORDS.get(app) if isinstance(app, str) else None
    if keywords is None:
        raise ValueError(f"unknown app {app!r} in {where}; known: "
                         f"{', '.join(sorted(APP_BUILDERS))}")
    params = dict(params) if isinstance(params, tuple) else params
    if not isinstance(params, Mapping):
        raise ValueError(f"app params {params!r} must map names to values "
                         f"in {where}")
    for param, value in params.items():
        if param not in keywords:
            raise ValueError(
                f"unknown param {param}={value!r} of app {app!r} in "
                f"{where}; known: {', '.join(keywords)}")
        if value is not None and not _integer(value):
            raise ValueError(f"param {param}={value!r} of app {app!r} "
                             f"in {where} must be null or an integer")
    return app, tuple(sorted(params.items()))


#: every field of a spec: key -> (decoder of one value, whether a spec
#: holds a non-empty list of them, the key of the one value a cell holds).
#: A cell's ``app`` and ``app_params`` are one ``apps`` entry.
_FIELDS: Dict[str, Tuple[Decoder, bool, Optional[str]]] = {
    "name": (_value("name", lambda v: isinstance(v, str), "a string"),
             False, None),
    "apps": (_app, True, None),
    "schemes": (_known("scheme", scheme_names() + [AUTO_SCHEME]), True,
                "scheme"),
    "processors": (_value("processors", lambda v: _integer(v, 1),
                          "an integer >= 1"), True, "processors"),
    "schedules": (_known("schedule", list(SCHEDULES)), True, "schedule"),
    "seeds": (_value("seed", _integer, "an integer"), True, "seed"),
    "wait_bounds": (_value("wait bound", lambda v: v is None
                           or _integer(v, 1), "null or an integer >= 1"),
                    True, "wait_bound"),
    "plans": (_known("plan", plan_names(), null=True), True, "plan"),
    # only a JSON boolean, so "false" cannot switch a flag on
    **{flag: (_value(flag, lambda v: isinstance(v, bool), "true or false"),
              False, flag) for flag in ("recover", "validate", "eliminate")},
}


def _object(data: Any, noun: str, cls: type) -> Mapping[str, Any]:
    """``data`` as a JSON object of ``cls``'s fields, each field without
    a default among them."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{noun} {data!r} must be an object")
    keys = [field.name for field in fields(cls)]
    unknown = sorted(str(key) for key in data if key not in keys)
    if unknown:
        raise ValueError(f"unknown {noun} key(s) {', '.join(unknown)}; "
                         f"known: {', '.join(keys)}")
    missing = [field.name for field in fields(cls)
               if field.default is MISSING and field.name not in data]
    if missing:
        raise ValueError(f"{noun} is missing required key(s) "
                         f"{', '.join(missing)}")
    return data


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
    def from_config(cls, config: Any) -> "SweepCell":
        """Decode a cell from its :meth:`config` dict (the inverse).

        The entry for cell configs from outside: the service's
        ``{"cells": [...]}`` submissions and the journaled job files a
        restarted :class:`~repro.lab.service.SweepService` reconstitutes.
        Each value is decoded by its spec field's entry in :data:`_FIELDS`.
        """
        _object(config, "cell", cls)
        where = "cell config"
        app, params = _app((config["app"], config["app_params"]), where)
        values = {key: decode(config[key], where)
                  for decode, _axis, key in _FIELDS.values() if key in config}
        return cls(app=app, app_params=params, **values)

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


@dataclass(frozen=True)
class SweepSpec:
    """A named grid of runs: the cross product of every axis below.

    Every field is decoded through :data:`_FIELDS` at construction,
    whether the spec came from JSON, a preset or code.  A value repeated
    on an axis is kept once, at its first position, so no cell is
    simulated twice; a grid without repeats expands exactly as written.
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
        return SweepSpec(name=name, apps=apps, schemes=schemes, **axes)

    def __post_init__(self) -> None:
        named = isinstance(self.name, str)
        where = f"spec {self.name!r}" if named else "spec"
        for key, (decode, axis, _cell_key) in _FIELDS.items():
            value = getattr(self, key)
            if not axis:
                value = decode(value, where)
            elif not isinstance(value, (list, tuple, range)):
                raise ValueError(f"{key} {value!r} in {where} must be a list")
            elif not value:
                raise ValueError(f"{where} has an empty grid: empty {key} "
                                 f"axis")
            else:
                value = _distinct(decode(item, where) for item in value)
            object.__setattr__(self, key, value)

    def cells(self) -> List[SweepCell]:
        """Expand the grid in deterministic (nested-axis) order: the
        last axis varies fastest."""
        return [SweepCell(app=app, app_params=params, scheme=scheme,
                          processors=procs, schedule=schedule, seed=seed,
                          wait_bound=bound, validate=self.validate,
                          plan=plan, recover=self.recover and plan is not None,
                          eliminate=self.eliminate)
                for (app, params), scheme, procs, schedule, plan, seed, bound
                in itertools.product(self.apps, self.schemes,
                                     self.processors, self.schedules,
                                     self.plans, self.seeds, self.wait_bounds)]

    def with_seed_base(self, base: int) -> "SweepSpec":
        """The same grid with every seed shifted by ``base``."""
        if not base:
            return self
        return replace(self, seeds=tuple(s + base for s in self.seeds))

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
        axis cannot silently fall back to its default.
        """
        if isinstance(data, pathlib.Path):
            data = json.loads(data.read_text())
        elif isinstance(data, str):
            data = json.loads(data)
        return cls(**_object(data, "spec", cls))


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


def decode_spec(data: Any) -> Union[SweepSpec, List[SweepCell]]:
    """Outside input naming work: a preset name, a spec object, or
    ``{"cells": [...]}`` (the form a service journals a bare cell list
    in).  Socket ``submit``, journaled job files and ``--spec`` tokens
    all come through here; anything else raises :class:`ValueError`."""
    if isinstance(data, str):
        return make_spec(data)
    if isinstance(data, Mapping) and "cells" in data:
        if len(data) > 1 or not isinstance(data["cells"], list):
            raise ValueError(f"cell list {dict(data)!r} must be an object "
                             f"holding only a list under 'cells'")
        return [SweepCell.from_config(config) for config in data["cells"]]
    return SweepSpec.from_json(data)
