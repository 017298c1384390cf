"""Exact linear algebra over Q.

Vectors are sparse dicts {row_index: coefficient}, with coefficients in the
canonical `Coeff` form of polynomials.py (an int when integral, else a
Fraction, never a float); matrices are lists of such column vectors.
Elimination pivots on the maximum row index present, so each reduction step
strictly lowers the leading index and terminates without any pivoting
heuristics.  Everything is deterministic: results depend only on the order
columns are supplied.

SpanTracker only ranks: it keeps reduced pivot vectors and nothing else.  A
caller that needs coordinates tags its columns instead: column k carries one
extra entry 1 at the negative key tag(k) = -1 - k, below every real index.
Pivots lead on real indices only, so the tags ride along through the same
elimination loop, and a vector whose real part reduces away is left with
tag entries that weigh the tagged columns: nullspace, solve_in_span and
HomBasis read relations and coordinates from them.  Untagged columns cost no
bookkeeping, which is what the rank-only windows (degree_window, the Cech
level spans, the cocycle check) use.

The degree-d window of a presentation lives here too (degree_window): it
numbers the cover's (row, monomial) coordinates of degree d and spans every
relation column times every monomial that lands it there.  Graded pieces and
piece-map ranks in modules.py and the Groebner-free HomBasis in homspace.py
all rank that one window, so homspace needs nothing from groebner or
modules.  The Cech window (cech.py) is Laurent and keeps its own builder.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .polynomials import Coeff, monomial_mul, monomials_of_degree, qinv

SparseVec = dict[int, Coeff]
# a column's terms (row, monomial, coefficient), and a window's coordinates
Terms = list[tuple[int, tuple, Coeff]]
WindowIndex = dict[tuple[int, tuple], int]


def vec_axpy(target: dict, coeff: Coeff, source: dict) -> None:
    """target += coeff * source, in place, dropping zeros and keeping every
    entry canonical.  Any key type works; groebner's MVec is one."""
    if not coeff:
        return
    for i, v in source.items():
        s = target.get(i, 0) + coeff * v
        if s:
            # qnorm inlined: this loop is the hottest in the engine
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            target[i] = s
        else:
            target.pop(i, None)


class SpanTracker:
    """Incremental echelon basis of a span; pivot on the max row index.

    Columns are inserted one at a time.  `insert` returns None if the column
    enlarged the span, else what is left of it after reduction: nothing for
    an untagged column, its tag entries for a tagged one (see the module
    docstring).  The tracker keeps only the reduced pivot vectors, tags and
    all, so rank-only use pays for no bookkeeping.
    """

    def __init__(self):
        self.pivots: dict[int, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: SparseVec) -> int | None:
        """Reduce vec in place; its lead index if a real entry survives,
        else None (what is left are tag entries, if any)."""
        pivots = self.pivots
        while vec:
            lead = max(vec)
            if lead < 0:
                return None
            pvec = pivots.get(lead)
            if pvec is None:
                return lead
            # pivot vectors are normalized to lead coefficient 1
            vec_axpy(vec, -vec[lead], pvec)
        return None

    def residual(self, column: SparseVec) -> SparseVec:
        """Remainder of column modulo the current span (column not inserted)."""
        vec = dict(column)
        self._reduce(vec)
        return vec

    def insert(self, column: SparseVec) -> SparseVec | None:
        """Add a column; None if independent, else its leftover tag entries."""
        vec = dict(column)
        lead = self._reduce(vec)
        if lead is None:
            return vec
        inv = qinv(vec[lead])
        if inv != 1:
            nvec: SparseVec = {}
            vec_axpy(nvec, inv, vec)
            vec = nvec
        self.pivots[lead] = vec
        return None

    def coordinates(self, column: SparseVec) -> SparseVec | None:
        """{k: a_k} with column = sum a_k * (inserted column tagged k) plus
        untagged inserted columns, if column is in the span; else None."""
        vec = dict(column)
        if self._reduce(vec) is not None:
            return None
        return {tag(key): -v for key, v in vec.items()}


def tag(k: int) -> int:
    """The key of tag k, below every real index; tag(tag(k)) == k."""
    return -1 - k


def sparse_rank(columns: Iterable[SparseVec]) -> int:
    tracker = SpanTracker()
    for col in columns:
        tracker.insert(col)
    return tracker.rank


def nullspace(columns: list[SparseVec]) -> list[SparseVec]:
    """Basis of {a : sum a_j col_j = 0}, keyed by column index."""
    tracker = SpanTracker()
    out: list[SparseVec] = []
    for j, col in enumerate(columns):
        left = tracker.insert({**col, tag(j): 1})
        if left is not None:
            # the tags left over weigh columns 0..j into a zero real part
            out.append({tag(key): v for key, v in left.items()})
    return out


def solve_in_span(columns: list[SparseVec], target: SparseVec) -> SparseVec | None:
    """Coefficients a with sum a_j col_j = target, or None if unsolvable."""
    tracker = SpanTracker()
    for j, col in enumerate(columns):
        tracker.insert({**col, tag(j): 1})
    return tracker.coordinates(target)


def _column_terms(polys) -> Terms:
    """The (row, monomial, coefficient) terms of a column of polynomials."""
    return [(r, mon, c) for r, p in enumerate(polys) for mon, c in p.items()]


def _expand(terms: Terms, mult: tuple, index: WindowIndex) -> SparseVec:
    """Window coordinates of a column times x^mult.  Each term lands on its
    own coordinate (row, mon * mult), so every entry is written once."""
    return {index[(r, monomial_mul(mon, mult))]: c for r, mon, c in terms}


def degree_window(relations, d: int) -> tuple[WindowIndex, SpanTracker | None]:
    """The degree-d window of the module presented by `relations`.

    `index` numbers the cover's (row, monomial) pairs of degree d, rows in
    order and monomials in monomials_of_degree order; the tracker spans every
    relation column times every monomial that lands it in degree d, inserted
    in column order, then in monomials_of_degree order.  An empty window
    gets no tracker (None).
    """
    nv = relations.nvars
    index: WindowIndex = {}
    for r, t in enumerate(relations.row_twists):
        for mon in monomials_of_degree(nv, d - t):
            index[(r, mon)] = len(index)
    if not index:
        return index, None
    tracker = SpanTracker()
    for c, s in enumerate(relations.col_twists):
        if d - s < 0:
            continue
        terms = _column_terms(relations.column(c))
        for mult in monomials_of_degree(nv, d - s):
            tracker.insert(_expand(terms, mult, index))
    return index, tracker
