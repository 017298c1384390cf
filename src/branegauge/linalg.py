"""Exact linear algebra over Q.

Vectors are sparse dicts {row_index: coefficient}, with coefficients in the
canonical `Coeff` form of polynomials.py (an int when integral, else a
Fraction, never a float); matrices are lists of such column vectors.
Elimination pivots on the maximum row index present, so each reduction step
strictly lowers the leading index and terminates without any pivoting
heuristics.  Everything is deterministic: results depend only on the order
columns are supplied.

Elimination is fraction-free on integer columns, which is every column the
degree windows rank.  Integer pivots are kept primitive rather than monic,
and a column is cross-multiplied against them with its scale tracked
(integer-preserving elimination, as in Bareiss 1968); what SpanTracker
reads back is divided by that scale once, so it is exactly what monic
pivots over Q give.  Fraction input still works, by single steps over Q.

SpanTracker only ranks: it keeps reduced pivot vectors and nothing else.  A
caller that needs coordinates tags its columns instead: column k carries one
extra entry 1 at the negative key tag(k) = -1 - k, below every real index.
Pivots lead on real indices only, so the tags ride along through the same
elimination loop, and a vector whose real part reduces away is left with
tag entries that weigh the tagged columns: nullspace, solve_in_span and
HomBasis read relations and coordinates from them.  Untagged columns cost no
bookkeeping, which is what the rank-only windows (degree_window) use.

Matrix columns and the Groebner engine's module elements share one form,
MVec: a sparse vector {(row, monomial): coefficient} of a free module.
_mvec_axpy is its shifted axpy, the product step of PolyMatrix and the
reduction step of groebner; _expand lays such a column, times a monomial,
into a degree window.

The degree-d window of a presentation lives here too (degree_window): it
numbers the cover's (row, monomial) coordinates of degree d and spans every
relation column times every monomial that lands it there.  Graded pieces and
piece-map ranks in modules.py and the Groebner-free HomBasis in homspace.py
all rank that one window, so homspace needs nothing from groebner or
modules.  A window's index depends only on the ring, the row twists and d,
so it is built once per such triple and shared (_window_index):
degree_window and HomBasis read the same dict, and no caller may mutate
it.  Each degree_window call gets a fresh tracker of its own.  A window is
counted before it is listed (_cover_size, which is also all a free
module's graded piece needs), and one of more than WINDOW_CAP coordinates
raises DeskScaleError instead of enumerating its monomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd
from typing import Iterable

from .errors import DeskScaleError
from .polynomials import (
    Coeff,
    Monomial,
    monomial_mul,
    monomials_of_degree,
    qinv,
    qnorm,
)

SparseVec = dict[int, Coeff]
# a free-module vector {(row, monomial): coefficient}, and a window's
# coordinates
MVec = dict[tuple[int, Monomial], Coeff]
WindowIndex = dict[tuple[int, tuple], int]
# the most coordinates a degree window may have; far above any window the
# tests or the benchmark build, far below a hang
WINDOW_CAP = 10**6


def vec_axpy(target: dict, coeff: Coeff, source: dict) -> None:
    """target += coeff * source, in place, dropping zeros and keeping every
    entry canonical.  Any key type works; MVec is one."""
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


def _mvec_axpy(target: MVec, coeff: Coeff, mon: Monomial, source: MVec) -> None:
    """target += coeff * x^mon * source, in place, entries kept canonical."""
    if not coeff:
        return
    for (r, m), c in source.items():
        key = (r, monomial_mul(m, mon))
        s = target.get(key, 0) + coeff * c
        if s:
            # qnorm inlined, as in vec_axpy
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            target[key] = s
        else:
            target.pop(key, None)


class SpanTracker:
    """Incremental echelon basis of a span; pivot on the max row index.

    Columns are inserted one at a time.  `insert` returns None if the column
    enlarged the span, else what is left of it after reduction: nothing for
    an untagged column, its tag entries for a tagged one (see the module
    docstring).  The tracker keeps only the reduced pivot vectors, tags and
    all, so rank-only use pays for no bookkeeping.

    Elimination is fraction-free on integer columns.  A pivot whose entries
    are all ints is kept primitive: divided by its content, lead positive.
    A column whose lead a meets a pivot of lead b becomes
    (b/g) * column - (a/g) * pivot, g = gcd(a, b), and the factor b/g joins
    the column's scale; a unit lead (b = 1) needs no factor.  Eliminating
    the same leads in the same order leaves the remainder that monic pivots
    leave, times that scale, so `residual`, the leftover tags and
    `coordinates` divide by it once, at the end, and read back exactly
    what monic pivots give.  Fraction input still works: a non-integer
    lead takes one step over Q, and a pivot holding a Fraction is stored
    monic.
    """

    def __init__(self):
        self.pivots: dict[int, SparseVec] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: SparseVec) -> tuple[int | None, int]:
        """Reduce vec in place to scale times its remainder; (lead, scale),
        lead being vec's lead index if a real entry survives, else None
        (what is left are tag entries, if any)."""
        pivots = self.pivots
        scale = 1
        while vec:
            lead = max(vec)
            if lead < 0:
                break
            a = vec[lead]
            if not a:
                # an explicit zero leads nothing
                del vec[lead]
                continue
            pvec = pivots.get(lead)
            if pvec is None:
                return lead, scale
            b = pvec[lead]
            if b == 1:
                vec_axpy(vec, -a, pvec)
            elif type(a) is int:
                g = gcd(a, b)
                if g != b:
                    m = b // g
                    for k in vec:
                        vec[k] *= m
                    scale *= m
                vec_axpy(vec, -(a // g), pvec)
            else:
                vec_axpy(vec, -a / b, pvec)
        return None, scale

    def residual(self, column: SparseVec) -> SparseVec:
        """Remainder of column modulo the current span (column not inserted)."""
        vec = dict(column)
        _, scale = self._reduce(vec)
        return _unscaled(vec, scale)

    def insert(self, column: SparseVec) -> SparseVec | None:
        """Add a column; None if independent, else its leftover tag entries."""
        vec = dict(column)
        lead, scale = self._reduce(vec)
        if lead is None:
            # an untagged column leaves nothing, and rank-only callers
            # insert many
            return _unscaled(vec, scale) if vec else vec
        self.pivots[lead] = _pivot(vec, lead)
        return None

    def coordinates(self, column: SparseVec) -> SparseVec | None:
        """{k: a_k} with column = sum a_k * (inserted column tagged k) plus
        untagged inserted columns, if column is in the span; else None."""
        vec = dict(column)
        lead, scale = self._reduce(vec)
        if lead is not None:
            return None
        return {tag(key): -v for key, v in _unscaled(vec, scale).items()}


def _pivot(vec: SparseVec, lead: int) -> SparseVec:
    """vec as a stored pivot: divided by its content with a positive lead
    when every entry is an int, else monic.  A float raises TypeError."""
    try:
        g = gcd(*vec.values())
    except TypeError:
        # a Fraction, or a float, which qnorm rejects
        vec = {k: qnorm(v) for k, v in vec.items()}
        inv = qinv(vec[lead])
        return {k: qnorm(v * inv) for k, v in vec.items()}
    if vec[lead] < 0:
        g = -g
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


def _unscaled(vec: SparseVec, scale: int) -> SparseVec:
    """vec / scale, every entry canonical."""
    if scale == 1:
        return {k: qnorm(v) for k, v in vec.items()}
    return {k: qnorm(Fraction(v, scale)) for k, v in vec.items()}


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


def _expand(vec: MVec, mult: Monomial, index: WindowIndex) -> SparseVec:
    """Window coordinates of a column times x^mult.  Each term lands on its
    own coordinate (row, mon * mult), so every entry is written once."""
    return {index[(r, monomial_mul(mon, mult))]: c for (r, mon), c in vec.items()}


def degree_window(relations, d: int) -> tuple[WindowIndex, SpanTracker | None]:
    """The degree-d window of the module presented by `relations`.

    `index` numbers the cover's (row, monomial) pairs of degree d, rows in
    order and monomials in monomials_of_degree order; it is the shared dict
    of _window_index, read-only to every caller.  The tracker spans every
    relation column times every monomial that lands it in degree d, inserted
    in column order, then in monomials_of_degree order; a zero column spans
    nothing and is skipped.  An empty window gets no tracker (None).
    """
    index = _window_index(relations, d)
    if not index:
        return index, None
    nv = relations.nvars
    tracker = SpanTracker()
    for vec, s in zip(relations.vecs, relations.col_twists):
        if d - s < 0 or not vec:
            continue
        for mult in monomials_of_degree(nv, d - s):
            tracker.insert(_expand(vec, mult, index))
    return index, tracker


def _window_index(relations, d: int) -> WindowIndex:
    """The coordinates of degree_window, without its relation span.  Shared:
    presentations with the same ring and row twists get the same dict."""
    return _cover_index(relations.nvars, relations.row_twists, d)


def _cover_size(nv: int, row_twists, d: int) -> int:
    """The number of (row, monomial) coordinates of degree d of a free
    cover: sum over rows of C(d - t + nv - 1, nv - 1), by counting alone."""
    k, size = nv - 1, 0
    for t in row_twists:
        if d >= t:
            size += comb(d - t + k, k)
    return size


@cache
def _cover_index(nv: int, row_twists: tuple[int, ...], d: int) -> WindowIndex:
    """The (row, monomial) coordinates of degree d of a free cover, rows in
    order and monomials in monomials_of_degree order; memoized.  A window
    of more than WINDOW_CAP coordinates raises DeskScaleError before any
    monomial is listed."""
    size = _cover_size(nv, row_twists, d)
    if size > WINDOW_CAP:
        raise DeskScaleError(
            f"the degree-{d} window has {size} coordinates, past the "
            f"desk-scale cap of {WINDOW_CAP}")
    index: WindowIndex = {}
    for r, t in enumerate(row_twists):
        for mon in monomials_of_degree(nv, d - t):
            index[(r, mon)] = len(index)
    return index
