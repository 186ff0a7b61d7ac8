"""Decoding outside input either round-trips or names what is wrong.

Every spec, cell config and job-file spec from outside goes through one
decoder (``repro.lab.spec``).  For arbitrary JSON values, and for
mutations of every preset's ``to_json()`` and of every preset cell's
``config()``, a decode must do one of two things: return a value whose
JSON form decodes back to an equal value, or raise a ``ValueError``
whose message names a key of the input, the ``repr`` of a value in it,
or a required key it lacks.  No other exception may escape.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lab import SweepCell, SweepSpec, decode_spec, make_spec
from repro.lab.spec import PRESETS

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: leaves that sometimes land on a valid value, so mutations reach the
#: round-trip branch as well as every refusal
LEAVES = (st.none() | st.booleans() | st.integers(-3, 40) | st.integers()
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.text(max_size=6)
          | st.sampled_from(["fig2.1", "fold-chain", "n", "cost", "self",
                             "cyclic", "jitter", "process-oriented",
                             "auto", "smoke", "cells"]))
JSON = st.recursive(
    LEAVES, lambda children: (st.lists(children, max_size=4)
                              | st.dictionaries(st.text(min_size=1,
                                                        max_size=8),
                                                children, max_size=4)),
    max_leaves=12)

SPEC_REQUIRED = ("name", "apps", "schemes")
CELL_REQUIRED = ("app", "app_params", "scheme", "processors")


def _tokens(value, required):
    """What a refusal may name: every key, every value's ``repr``, and
    every required key ``value`` lacks."""
    found = {repr(value)}
    if isinstance(value, dict):
        found.update(key for key in required if key not in value)
        for key, item in value.items():
            found.add(key)
            found |= _tokens(item, ())
    elif isinstance(value, list):
        for item in value:
            found |= _tokens(item, ())
    return found


def _encode(decoded):
    if isinstance(decoded, SweepSpec):
        return decoded.to_json()
    if isinstance(decoded, SweepCell):
        return decoded.config()
    return {"cells": [cell.config() for cell in decoded]}


def _check(decode, data, required):
    try:
        decoded = decode(data)
    except ValueError as err:
        message = str(err)
        assert any(token in message
                   for token in _tokens(data, required)), (message, data)
        return
    assert decode(_encode(decoded)) == decoded


@st.composite
def _mutated(draw, value):
    """``value`` with one node replaced, deleted or added somewhere."""
    if not isinstance(value, (dict, list)) or draw(st.integers(0, 4)) == 0:
        return draw(JSON)
    if isinstance(value, dict):
        keys = sorted(value)
        key = draw(st.sampled_from(keys) | st.text(min_size=1, max_size=8)
                   if keys else st.text(min_size=1, max_size=8))
        out = dict(value)
        if key in out and draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(_mutated(out.get(key)))
        return out
    out = list(value)
    if out and draw(st.booleans()):
        index = draw(st.integers(0, len(out) - 1))
        if draw(st.booleans()):
            del out[index]
        else:
            out[index] = draw(_mutated(out[index]))
    else:
        out.append(draw(JSON))
    return out


PRESET_JSON = [make_spec(name).to_json() for name in sorted(PRESETS)]
PRESET_CELLS = [cell.config() for name in sorted(PRESETS)
                for cell in make_spec(name).cells()[:3]]


@SETTINGS
@given(JSON)
def test_arbitrary_json_decodes_or_is_named(data):
    _check(decode_spec, data, SPEC_REQUIRED)
    _check(SweepCell.from_config, data, CELL_REQUIRED)


@SETTINGS
@given(st.sampled_from(PRESET_JSON).flatmap(_mutated))
def test_mutated_preset_spec_decodes_or_is_named(data):
    _check(decode_spec, data, SPEC_REQUIRED)


@SETTINGS
@given(st.sampled_from(PRESET_CELLS).flatmap(_mutated))
def test_mutated_preset_cell_decodes_or_is_named(data):
    _check(SweepCell.from_config, data, CELL_REQUIRED)
    _check(decode_spec, {"cells": [data]}, CELL_REQUIRED)
