"""Sparse rational span tracking against a dense row-reduction oracle."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from branegauge.linalg import SpanTracker, nullspace, solve_in_span, sparse_rank, tag

from _oracles import rref_rank


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
    cols = [{k: v for k, v in c.items() if v} for c in cols]
    ours = sparse_rank(cols)
    dense = rref_rank([_dense(c, 6) for c in cols]) if cols else 0
    assert ours == dense


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


def test_solve_in_span():
    cols = [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    sol = solve_in_span(cols, {1: Fraction(2)})
    assert sol is not None
    assert sol.get(1, 0) == 2 and sol.get(0, 0) == -2
    assert solve_in_span(cols, {2: Fraction(1)}) is None
