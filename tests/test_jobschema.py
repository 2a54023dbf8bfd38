"""gogtools.jobschema against jsonschema, the reference Draft 2020-12
validator.

jsonschema is imported here and nowhere else; it is a test-only oracle.  Two
oracles are built from it: the stock validator, and the same validator with
jobschema's one deliberate difference, an ``integer`` that must be an
``int`` (the stock one also admits integer-valued floats such as ``2.0``).
On every job, jobschema must report what the strict oracle reports: the
same verdict, path and message.  Its verdict or path may differ from the
stock oracle's only on a job that holds an integer-valued float, and then
jobschema rejects the job.
"""

from __future__ import annotations

import copy
import json
import pathlib

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.exceptions import best_match

import fixtures
from gogtools import cli, jobschema

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = [json.loads(p.read_text()) for p in sorted((REPO / "jobs").glob("*.json"))]

OURS = jobschema.Validator(cli.JOBSPEC_SCHEMA)
STOCK = jsonschema.Draft202012Validator(cli.JOBSPEC_SCHEMA)
STRICT = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _checker, x: isinstance(x, int) and not isinstance(x, bool)),
)(cli.JOBSPEC_SCHEMA)


def ours(job):
    best = OURS.best_match(job)
    return None if best is None else (best.json_path, best.message)


def oracle(validator, job):
    """The error cli reported when it validated with jsonschema."""
    best = best_match(sorted(validator.iter_errors(job), key=str))
    return None if best is None else (best.json_path, best.message)


def _nodes(value, path=()):
    """Every (path, value) of a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _nodes(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _nodes(sub, path + (i,))


def _integral_floats(job):
    return any(isinstance(v, float) and v.is_integer() for _, v in _nodes(job))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# -- the validator itself ---------------------------------------------------


def _keywords(schema):
    """The keywords a schema uses, below every subschema."""
    found = set(schema)
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            subs = list(value.values())
        elif key in ("anyOf", "allOf"):
            subs = value
        elif key in ("items", "if", "then"):
            subs = [value]
        else:
            subs = []
        for sub in subs:
            found |= _keywords(sub)
    return found


def test_shipped_schema_loads_and_uses_exactly_the_covered_keywords():
    jobschema.Validator(cli.JOBSPEC_SCHEMA)
    assert _keywords(cli.JOBSPEC_SCHEMA) == \
        jobschema.KEYWORDS | jobschema.ANNOTATIONS


@pytest.mark.parametrize("rule", [
    {"oneOf": [{"type": "string"}]},
    {"format": "date"},
], ids=["oneOf", "format"])
def test_uncovered_keyword_raises_at_load(rule):
    schema = copy.deepcopy(cli.JOBSPEC_SCHEMA)
    schema["properties"]["parameters"]["properties"]["lam"].update(rule)
    with pytest.raises(jobschema.SchemaError, match=next(iter(rule))):
        jobschema.Validator(schema)


def test_dangling_reference_raises_at_load():
    schema = copy.deepcopy(cli.JOBSPEC_SCHEMA)
    schema["properties"]["parameters"]["properties"]["word"] = {
        "$ref": "#/$defs/nowhere"}
    with pytest.raises(jobschema.SchemaError, match="does not resolve"):
        jobschema.Validator(schema)


# -- fixed probes: same path and same message -------------------------------


def test_golden_jobs_are_valid():
    for job in GOLDEN:
        assert ours(job) is None
        assert oracle(STOCK, job) is None


@pytest.mark.parametrize("job, path", fixtures.SCHEMA_PROBES)
def test_probe_matches_the_oracle(job, path):
    got = ours(job)
    assert got is not None and got[0] == path
    assert got == oracle(STRICT, job)
    if _integral_floats(job):
        # the intended divergence: the stock oracle lets 2.0 pass as integer
        assert oracle(STOCK, job) is None
    else:
        assert got == oracle(STOCK, job)


# -- mutated golden jobs: same verdict, path and message ---------------------

_ODD_VALUES = ["x", 3, True, None, [1, 2], {"a": 1}, 0.5]
_BAD_LAMS = ["1/0", "12/00", "0/0", "1/", "/2", "1/2/3", "-1/2", " 1/2", "1.5/2"]
_BAD_PAIRS = [[], [0], [0, 1, 2]]


def _odd_value(data, unlike=...):
    """A fresh copy of a drawn value whose type differs from ``unlike``."""
    return copy.deepcopy(data.draw(st.sampled_from(
        [v for v in _ODD_VALUES if type(v) is not type(unlike)])))


def _pick(data, job, accept, root=False):
    """A drawn path to a value that ``accept`` takes, or None."""
    paths = [path for path, value in _nodes(job)
             if (root or path) and accept(value)]
    return data.draw(st.sampled_from(paths)) if paths else None


def _at(job, path):
    for key in path:
        job = job[key]
    return job


def _put(job, path, value):
    _at(job, path[:-1])[path[-1]] = value


def _drop_key(data, job):
    path = _pick(data, job, lambda v: isinstance(v, dict) and v, root=True)
    if path is not None:
        node = _at(job, path)
        del node[data.draw(st.sampled_from(sorted(node)))]


def _add_key(data, job):
    path = _pick(data, job, lambda v: isinstance(v, dict), root=True)
    if path is not None:
        key = data.draw(st.sampled_from(["notes", "radius", "m", "x y"]))
        _at(job, path)[key] = _odd_value(data)


def _swap_type(data, job):
    path = _pick(data, job, lambda v: True)
    if path is not None:
        _put(job, path, _odd_value(data, unlike=_at(job, path)))


def _negative_int(data, job):
    path = _pick(data, job, _is_int)
    if path is not None:
        _put(job, path, data.draw(st.integers(-5, -1)))


def _off_enum(data, job):
    path = _pick(data, job, lambda v: isinstance(v, str))
    if path is not None:
        _put(job, path, "bogus")


def _bad_lam(data, job):
    if isinstance(job.get("parameters"), dict):
        job["parameters"]["lam"] = data.draw(st.sampled_from(_BAD_LAMS))


def _bad_pair(data, job):
    path = _pick(data, job, lambda v: isinstance(v, dict)
                 and ("ab" in v or "syllables" in v))
    if path is not None:
        pair = data.draw(st.sampled_from(_BAD_PAIRS))
        _at(job, path)["syllables"] = [[0, 1], pair]


def _int_as_float(data, job):
    path = _pick(data, job, _is_int)
    if path is not None:
        _put(job, path, float(_at(job, path)))


MUTATIONS = [_drop_key, _add_key, _swap_type, _negative_int, _off_enum,
             _bad_lam, _bad_pair, _int_as_float]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_golden_jobs_agree_with_the_oracle(data):
    job = copy.deepcopy(data.draw(st.sampled_from(GOLDEN)))
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS),
                                     min_size=1, max_size=3)):
        mutate(data, job)
    got = ours(job)
    assert got == oracle(STRICT, job)
    stock = oracle(STOCK, job)
    if (got is None) != (stock is None) or \
            (got is not None and got[0] != stock[0]):
        # the one intended divergence: only an integer-valued float that
        # the stock oracle admits as an integer, and jobschema rejects
        assert _integral_floats(job)
        assert got is not None
