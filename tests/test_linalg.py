"""Sparse rational span tracking against a dense row-reduction oracle."""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branegauge import linalg
from branegauge.errors import DeskScaleError
from branegauge.linalg import (
    SpanTracker,
    _cover_index,
    _cover_size,
    degree_window,
    nullspace,
    solve_in_span,
    sparse_rank,
    tag,
)
from branegauge.polymatrix import PolyMatrix

from _oracles import (
    MonicSpanTracker,
    grevlex_key,
    monic_nullspace,
    monic_solve_in_span,
    monomial_tuples,
    rref_rank,
)


def _dense(col: dict, width: int) -> list:
    out = [Fraction(0)] * width
    for k, v in col.items():
        out[k] = v
    return out


@given(st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-3, 3).map(Fraction), max_size=4),
    max_size=8,
))
@settings(max_examples=80, deadline=None)
def test_rank_matches_dense_oracle(cols):
    ours = sparse_rank(cols)
    dense = rref_rank([_dense(c, 6) for c in cols]) if cols else 0
    assert ours == dense


# ints (most columns the engine ranks), reduced Fractions, and integral
# Fractions such as Fraction(1, 1), which are not in canonical form
_COEFF = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.integers(-3, 3).map(Fraction),
).filter(bool)
_COLUMN = st.dictionaries(st.integers(0, 5), _COEFF, max_size=4)


def _assert_canonical(vec):
    for v in vec.values():
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


@given(st.lists(st.tuples(_COLUMN, st.booleans()), max_size=9),
       st.lists(_COLUMN, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_integer_tracker_reads_back_what_monic_pivots_give(cols, probes):
    ours, monic = SpanTracker(), MonicSpanTracker()
    for k, (col, tagged) in enumerate(cols):
        if tagged:
            col = {**col, tag(k): 1}
        left = ours.insert(col)
        assert left == monic.insert(col)
        if left is not None:
            _assert_canonical(left)
    assert ours.rank == monic.rank
    for probe in probes:
        for got, want in ((ours.residual(probe), monic.residual(probe)),
                          (ours.coordinates(probe), monic.coordinates(probe))):
            assert got == want
            if got is not None:
                _assert_canonical(got)
    columns = [col for col, _ in cols]
    got = nullspace(columns)
    assert got == monic_nullspace(columns)
    for rel in got:
        _assert_canonical(rel)
    for probe in probes:
        got = solve_in_span(columns, probe)
        assert got == monic_solve_in_span(columns, probe)
        if got is not None:
            _assert_canonical(got)


def test_integer_pivots_are_primitive_with_a_positive_lead():
    t = SpanTracker()
    assert t.insert({0: 4, 1: -6}) is None
    assert t.pivots == {1: {0: -2, 1: 3}}
    # lead 2 meets lead 3: the column is cross-multiplied by 3, and the
    # remainder divided back, so it reads as monic elimination gives it
    assert t.residual({0: 1, 1: 2}) == {0: Fraction(7, 3)}
    assert t.insert({0: 1, 1: 2}) is None
    assert t.pivots[0] == {0: 1}
    # a pivot holding a Fraction is stored monic
    assert t.insert({2: Fraction(2, 3), 0: 1}) is None
    assert t.pivots[2] == {2: 1, 0: Fraction(3, 2)}


def test_insert_reports_combinations():
    a = {0: Fraction(1), 1: Fraction(2)}
    b = {1: Fraction(1)}
    c = {0: Fraction(2), 1: Fraction(5)}  # 2a + b
    assert solve_in_span([a, b], c) == {0: Fraction(2), 1: Fraction(1)}
    assert nullspace([a, b, c]) == [{0: -2, 1: -1, 2: 1}]
    t = SpanTracker()
    assert t.insert({**a, tag(0): 1}) is None
    assert t.insert({**b, tag(1): 1}) is None
    assert t.insert({**c, tag(2): 1}) == {tag(0): -2, tag(1): -1, tag(2): 1}
    assert t.coordinates(c) == {0: Fraction(2), 1: Fraction(1)}


def test_residual_zero_iff_in_span():
    t = SpanTracker()
    t.insert({0: Fraction(1), 2: Fraction(1)})
    t.insert({1: Fraction(1)})
    assert t.residual({0: Fraction(3), 1: Fraction(-1), 2: Fraction(3)}) == {}
    assert t.residual({2: Fraction(1)}) != {}


def test_nullspace_gives_exact_relations():
    rng = random.Random(7)
    for _ in range(30):
        cols = []
        for _ in range(rng.randint(1, 6)):
            col = {k: Fraction(rng.randint(-2, 2)) for k in range(4)}
            cols.append({k: v for k, v in col.items() if v})
        rels = nullspace(cols)
        width = len(cols)
        dense_rank = rref_rank([_dense(c, 4) for c in cols])
        assert len(rels) == width - dense_rank
        for rel in rels:
            acc = {}
            for j, c in rel.items():
                for k, v in cols[j].items():
                    acc[k] = acc.get(k, Fraction(0)) + c * v
            assert all(v == 0 for v in acc.values())


def _no_end(signum, frame):
    raise TimeoutError("the tracker did not terminate")


def test_explicit_zero_entries_lead_nothing():
    # a zero at a pivot's lead can loop forever: an alarm turns a
    # regression into a failure rather than a hang
    previous = signal.signal(signal.SIGALRM, _no_end)
    signal.alarm(5)
    try:
        assert nullspace([{0: 1}, {0: 0}]) == [{1: 1}]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert sparse_rank([{0: 0}]) == 0
    # a zero above the true lead must not become a pivot
    assert sparse_rank([{0: 1, 1: 0}, {0: 1}]) == 1
    assert nullspace([{0: 1, 1: 0}, {0: 1}]) == [{0: -1, 1: 1}]
    assert solve_in_span([{0: 1, 1: 0}], {0: 2}) == {0: 2}


def test_solve_in_span():
    cols = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    sol = solve_in_span(cols, {1: Fraction(2)})
    assert sol is not None
    assert sol.get(1, 0) == 2 and sol.get(0, 0) == -2
    assert solve_in_span(cols, {2: Fraction(1)}) is None


def test_degree_window_index_is_shared_and_each_call_gets_its_own_tracker():
    # two presentations on the cover O(0) + O(-1) of P^2, different relations
    x0 = {(0, (1, 0, 0)): 1}
    a = PolyMatrix(3, (0, 1), (1,), [x0])
    b = PolyMatrix(3, (0, 1), (2, 1), [{(1, (0, 1, 0)): 1}, {(0, (0, 0, 1)): 3}])
    index_a, tracker_a = degree_window(a, 3)
    index_b, tracker_b = degree_window(b, 3)
    assert index_a is index_b
    # the same coordinates, in the same order, as a dict built afresh
    fresh = {}
    for r, t in enumerate((0, 1)):
        for mon in sorted(monomial_tuples(3, 3 - t), key=grevlex_key, reverse=True):
            fresh[(r, mon)] = len(fresh)
    assert list(index_a.items()) == list(fresh.items())
    # each window spans its own relations, and a second call starts afresh
    assert tracker_a is not tracker_b
    assert (tracker_a.rank, tracker_b.rank) == (6, 9)
    again_index, again = degree_window(a, 3)
    assert again_index is index_a
    assert again is not tracker_a and again.rank == tracker_a.rank
    # another degree or other row twists get another index
    assert degree_window(a, 2)[0] is not index_a
    assert degree_window(PolyMatrix(3, (0, 2), (1,), [x0]), 3)[0] is not index_a


def test_cover_size_counts_the_window_without_listing_it():
    for nv, twists, d in [(2, (0,), 5), (3, (0, 1), 3), (3, (2, -1), 1),
                          (4, (0, 0, 3), 4), (3, (5,), 2), (3, (), 7)]:
        assert _cover_size(nv, twists, d) == len(_cover_index(nv, twists, d))
    # O(-100000) on P^2 has C(100002, 2) monomials of degree 0 in its window
    assert _cover_size(3, (-100000,), 0) == 5000150001


def test_a_window_past_the_cap_is_refused_before_it_is_listed(monkeypatch):
    # the memo is bypassed so that no earlier call decides the outcome
    build = _cover_index.__wrapped__
    assert len(build(3, (0,), 2)) == 6
    monkeypatch.setattr(linalg, "WINDOW_CAP", 5)
    with pytest.raises(DeskScaleError, match="degree-2 window has 6 "
                       "coordinates, past the desk-scale cap of 5"):
        build(3, (0,), 2)
    monkeypatch.setattr(linalg, "monomials_of_degree", None)  # never reached
    with pytest.raises(DeskScaleError):
        build(3, (0,), 10**6)
