"""Exact linear algebra over Q.

Vectors are sparse dicts {row_index: coefficient}, with coefficients in the
canonical `Coeff` form of polynomials.py (an int when integral, else a
Fraction, never a float); matrices are lists of such column vectors.
Elimination pivots on the maximum row index present, so each reduction step
strictly lowers the leading index and terminates without any pivoting
heuristics.  Everything is deterministic: results depend only on the order
columns are supplied.

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
    """Incremental echelon basis of a span, with membership coordinates.

    Columns are inserted one at a time.  `insert` returns None if the column
    enlarged the span, else the coefficients expressing it over the previously
    inserted columns (indexed by insertion order).  Pivot on max row index.
    """

    def __init__(self):
        self.pivots: dict[int, tuple[SparseVec, SparseVec]] = {}
        self.count = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: SparseVec) -> tuple[SparseVec, SparseVec]:
        combo: SparseVec = {}
        while vec:
            lead = max(vec)
            hit = self.pivots.get(lead)
            if hit is None:
                return vec, combo
            pvec, pcombo = hit
            c = vec[lead]  # pivot vectors are normalized to lead coefficient 1
            vec_axpy(vec, -c, pvec)
            vec_axpy(combo, c, pcombo)
        return vec, combo

    def residual(self, column: SparseVec) -> SparseVec:
        """Remainder of column modulo the current span (column not inserted)."""
        vec, _ = self._reduce(dict(column))
        return vec

    def insert(self, column: SparseVec) -> SparseVec | None:
        """Add a column; None if independent, else its coordinates in the span."""
        vec, combo = self._reduce(dict(column))
        idx = self.count
        self.count += 1
        if not vec:
            return combo
        lead = max(vec)
        inv = qinv(vec[lead])
        nvec: SparseVec = {}
        vec_axpy(nvec, inv, vec)
        ncombo: SparseVec = {}
        vec_axpy(ncombo, -inv, combo)
        ncombo[idx] = inv
        # stored combo satisfies: pivot_vec = sum ncombo[j] * inserted_j
        self.pivots[lead] = (nvec, ncombo)
        return None

    def coordinates(self, column: SparseVec) -> SparseVec | None:
        """Coefficients over inserted columns if in the span, else None."""
        vec, combo = self._reduce(dict(column))
        if vec:
            return None
        return combo


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
        combo = tracker.insert(col)
        if combo is not None:
            rel = {k: -v for k, v in combo.items()}
            rel[j] = 1
            out.append(rel)  # col_j - sum combo = 0
    return out


def solve_in_span(columns: list[SparseVec], target: SparseVec) -> SparseVec | None:
    """Coefficients a with sum a_j col_j = target, or None if unsolvable."""
    tracker = SpanTracker()
    for col in columns:
        tracker.insert(col)
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
