"""Degree-zero Hom spaces with explicit matrix bases.

Independent of the Groebner engine: a degree-0 map M -> N is a matrix on
cover generators whose entries' coefficients satisfy linear constraints
(source relations must land in the span of target relations, degree by
degree).  Solving those constraints exactly gives a basis of representing
matrices; two matrices give the same map when they differ by a matrix whose
columns lie in the target relation span, so the basis is taken modulo that
subspace.  Coordinates in the basis support composing maps into rational
matrices, which is what the Hom-complex differential needs.
"""

from __future__ import annotations

from .linalg import SpanTracker, nullspace, vec_axpy
from .polymatrix import PolyMatrix
from .polynomials import Coeff, Polynomial, monomial_mul, monomials_of_degree


class HomBasis:
    """Basis of degree-0 module maps M -> N as cover-level matrices."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        nv = source.nvars
        self.nvars = nv
        # unknown coefficient slots of a candidate matrix
        slots: list[tuple[int, int, tuple]] = []
        slot_index: dict[tuple[int, int, tuple], int] = {}
        for c, tc in enumerate(source.cover_twists):
            for r, tr in enumerate(target.cover_twists):
                d = tc - tr
                if d < 0:
                    continue
                for mon in monomials_of_degree(nv, d):
                    slot_index[(r, c, mon)] = len(slots)
                    slots.append((r, c, mon))
        self._slots = slots
        self._slot_index = slot_index

        rel_n = target.relations
        rel_n_cols = [
            [(r, mon, coeff) for r in range(rel_n.rows)
             for mon, coeff in rel_n.entries[r][c].items()]
            for c in range(rel_n.cols)
        ]

        # span of target relations expanded into a fixed degree, per degree
        quotient_cache: dict[int, tuple[dict, SpanTracker]] = {}

        def quotient_space(d: int):
            got = quotient_cache.get(d)
            if got is not None:
                return got
            index: dict[tuple[int, tuple], int] = {}
            for r, tr in enumerate(target.cover_twists):
                if d - tr < 0:
                    continue
                for mon in monomials_of_degree(nv, d - tr):
                    index[(r, mon)] = len(index)
            tracker = SpanTracker()
            for c in range(rel_n.cols):
                s = rel_n.col_twists[c]
                if d - s < 0:
                    continue
                for mult in monomials_of_degree(nv, d - s):
                    vec = {}
                    for r, mon, coeff in rel_n_cols[c]:
                        vec[index[(r, monomial_mul(mon, mult))]] = coeff
                    tracker.insert(vec)
            quotient_cache[d] = (index, tracker)
            return index, tracker

        # constraint rows: for each source relation column, X * rel must lie
        # in the target relation span at the matching degree
        rel_m = source.relations
        constraint_cols: list[dict] = [{} for _ in slots]
        offset = 0
        for c in range(rel_m.cols):
            s = rel_m.col_twists[c]
            index, tracker = quotient_space(s)
            coords = sorted(index.values())
            renumber = {v: offset + k for k, v in enumerate(coords)}
            for src_row in range(rel_m.rows):
                p = rel_m.entries[src_row][c]
                if p.is_zero:
                    continue
                tc = source.cover_twists[src_row]
                for r, tr in enumerate(target.cover_twists):
                    d = tc - tr
                    if d < 0:
                        continue
                    for mon in monomials_of_degree(nv, d):
                        # contribution of slot (r, src_row, mon): entry x^mon
                        # times the relation coefficient p, reduced mod span
                        vec = {}
                        for pm, pc in p.items():
                            vec[index[(r, monomial_mul(mon, pm))]] = pc
                        residue = tracker.residual(vec)
                        if residue:
                            slot = self._slot_index[(r, src_row, mon)]
                            vec_axpy(constraint_cols[slot], 1,
                                     {renumber[k]: v for k, v in residue.items()})
            offset += len(index)

        solutions = nullspace(constraint_cols) if slots else []

        # trivial maps: columns lying in the target relation span
        trivial: list[dict] = []
        for c, tc in enumerate(source.cover_twists):
            index, _ = quotient_space(tc)
            for col_rel in range(rel_n.cols):
                s = rel_n.col_twists[col_rel]
                if tc - s < 0:
                    continue
                for mult in monomials_of_degree(nv, tc - s):
                    # each term (r, mon) lands on its own slot, so every
                    # entry is written once, as a canonical coefficient
                    vec = {}
                    for r, mon, coeff in rel_n_cols[col_rel]:
                        full = monomial_mul(mon, mult)
                        slot = slot_index.get((r, c, full))
                        if slot is not None:
                            vec[slot] = coeff
                    if vec:
                        trivial.append(vec)

        # insertion-order bookkeeping: combo indices from the tracker count
        # every insert call, so record a role for each one
        tracker = SpanTracker()
        self._inserted: list[int | None] = []
        basis_vecs: list[dict] = []
        for vec in trivial:
            tracker.insert(dict(vec))
            self._inserted.append(None)
        for vec in solutions:
            if tracker.insert(dict(vec)) is None:
                self._inserted.append(len(basis_vecs))
                basis_vecs.append(vec)
            else:
                self._inserted.append(None)
        self._tracker = tracker
        self._basis_vecs = basis_vecs

    @property
    def dim(self) -> int:
        return len(self._basis_vecs)

    def _matrix_from_vec(self, vec: dict) -> PolyMatrix:
        nv = self.nvars
        grid = [
            [dict() for _ in self.source.cover_twists]
            for _ in self.target.cover_twists
        ]
        for slot, coeff in vec.items():
            r, c, mon = self._slots[slot]
            grid[r][c][mon] = coeff
        entries = [[Polynomial(nv, cell) for cell in row] for row in grid]
        return PolyMatrix(
            nv, self.target.cover_twists, self.source.cover_twists, entries
        )

    def matrices(self) -> list[PolyMatrix]:
        return [self._matrix_from_vec(v) for v in self._basis_vecs]

    def coordinates(self, mat: PolyMatrix) -> list[Coeff] | None:
        """Coordinates of a degree-0 hom matrix in the basis, trivial part
        projected away; None when the matrix is not in the solution span."""
        vec: dict = {}
        for c in range(mat.cols):
            for r in range(mat.rows):
                p = mat.entries[r][c]
                for mon, coeff in p.items():
                    slot = self._slot_index.get((r, c, mon))
                    if slot is None:
                        return None
                    vec[slot] = coeff
        combo = self._tracker.coordinates(vec)
        if combo is None:
            return None
        out: list[Coeff] = [0] * self.dim
        for k, v in combo.items():
            pos = self._inserted[k]
            if pos is not None:
                out[pos] = v
        return out
