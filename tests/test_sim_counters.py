"""``Counters`` arithmetic against the field-by-field reference loop.

``Counters.merge`` and ``+`` work through the instance dicts; the
``getattr``/``setattr`` loop they replaced stays here as the reference,
checked over random field values.
"""

from __future__ import annotations

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.counters import Counters

NAMES = [f.name for f in fields(Counters)]

VALUES = st.lists(st.integers(-(2**70), 2**70), min_size=len(NAMES), max_size=len(NAMES))


def _reference_merge(into: Counters, other: Counters) -> None:
    for name in NAMES:
        setattr(into, name, getattr(into, name) + getattr(other, name))


def _reference_add(a: Counters, b: Counters) -> Counters:
    out = Counters()
    _reference_merge(out, a)
    _reference_merge(out, b)
    return out


class TestCountersArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(VALUES, VALUES)
    def test_add_equals_the_field_loop(self, x, y):
        a, b = Counters(*x), Counters(*y)
        got = a + b
        assert got == _reference_add(a, b)
        assert type(got) is Counters
        # Field order and plain-int types are kept; the operands are not touched.
        assert list(got.__dict__) == NAMES
        assert all(type(value) is int for value in got.__dict__.values())
        assert (a, b) == (Counters(*x), Counters(*y))

    @settings(max_examples=200, deadline=None)
    @given(VALUES, VALUES)
    def test_merge_equals_the_field_loop(self, x, y):
        got, want, other = Counters(*x), Counters(*x), Counters(*y)
        got.merge(other)
        _reference_merge(want, other)
        assert got == want
        assert list(got.__dict__) == NAMES
        assert other == Counters(*y)

    def test_sum_starts_from_zero(self):
        parts = [Counters(*range(k, k + len(NAMES))) for k in range(3)]
        assert sum(parts, Counters()) == _reference_add(_reference_add(parts[0], parts[1]), parts[2])
