"""Property-based tests: every ``PerfStats`` counter round-trips through
JSON and merges by its declared rule.

The strategies are built from ``dataclasses.fields(PerfStats)`` and the
fields' annotations, so a counter added later is covered without
touching this file: ints and floats (at most six decimals, the JSON
precision) add, dicts add key by key, sets union, and ``jobs`` — the
requested pool size, not a count — is kept by the receiver.
"""

from __future__ import annotations

import copy
import typing
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.perf import PerfStats

_SETTINGS = settings(max_examples=60, deadline=None)

_HINTS = typing.get_type_hints(PerfStats)

_SCALARS = {
    int: st.integers(min_value=0, max_value=10**9),
    float: st.integers(min_value=0, max_value=10**10).map(lambda n: n / 10**6),
    str: st.text(alphabet="abcdefgh.", min_size=1, max_size=8),
}


def _strategy(hint):
    container = typing.get_origin(hint)
    args = typing.get_args(hint)
    if container is dict:
        return st.dictionaries(_SCALARS[args[0]], _SCALARS[args[1]], max_size=5)
    if container is set:
        return st.sets(_SCALARS[args[0]], max_size=5)
    return _SCALARS[hint]


perf_stats = st.builds(
    PerfStats, **{f.name: _strategy(_HINTS[f.name]) for f in fields(PerfStats)}
)


@_SETTINGS
@given(perf_stats)
def test_json_round_trip_reproduces_every_counter(stats):
    assert PerfStats.from_json(stats.to_json()) == stats


@_SETTINGS
@given(perf_stats, perf_stats)
def test_merge_sums_or_unions_every_counter_and_keeps_jobs(a, b):
    before = copy.deepcopy(a)
    a.merge(b)
    for f in fields(PerfStats):
        mine, old, theirs = (getattr(s, f.name) for s in (a, before, b))
        if f.name == "jobs":
            assert mine == old
        elif isinstance(old, dict):
            keys = set(old) | set(theirs)
            assert mine == {k: old.get(k, 0) + theirs.get(k, 0) for k in keys}
        elif isinstance(old, set):
            assert mine == old | theirs
        else:
            assert mine == old + theirs


_NOT_COUNTERS = sorted(
    name
    for name in dir(PerfStats)
    if not name.startswith("_") and name not in PerfStats.__dataclass_fields__
)


@pytest.mark.parametrize("name", _NOT_COUNTERS)
def test_from_json_ignores_keys_that_are_not_counters(name):
    # Properties (no setter) and methods share the namespace with the
    # counters; a payload naming one must neither fail nor shadow it.
    stats = PerfStats.from_json({name: 1, "vp_runs": 2})
    assert stats.vp_runs == 2
    stats.merge(PerfStats(vp_runs=3))
    assert stats.vp_runs == 5
    assert stats.to_json() == PerfStats(vp_runs=5).to_json()
    assert stats.render().startswith("analysis performance (jobs=1)")
