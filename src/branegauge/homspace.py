"""Degree-zero Hom spaces with explicit matrix bases.

Independent of the Groebner engine: a degree-0 map M -> N is a matrix on
cover generators whose entries' coefficients satisfy linear constraints
(source relations must land in the span of target relations, degree by
degree).  Solving those constraints exactly gives a basis of representing
matrices; two matrices give the same map when they differ by a matrix whose
columns lie in the target relation span, so the basis is taken modulo that
subspace.  Coordinates in the basis support composing maps into rational
matrices, which is what the Hom-complex differential needs.

The target's degree-d windows come from linalg.degree_window, the kernel
that graded_piece_dim and piece_map_rank rank too; this module imports
nothing from groebner or modules, so it stays an independent cross-check.
"""

from __future__ import annotations

from .linalg import SpanTracker, _column_terms, _expand, degree_window, nullspace
from .polymatrix import PolyMatrix
from .polynomials import Coeff, Polynomial, monomials_of_degree


class HomBasis:
    """Basis of degree-0 module maps M -> N as cover-level matrices."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        nv = source.nvars
        self.nvars = nv
        rel_n = target.relations

        # target relation span in each degree, built once per degree
        windows: dict[int, tuple] = {}

        def window(d: int):
            if d not in windows:
                windows[d] = degree_window(rel_n, d)
            return windows[d]

        # unknown coefficient slots of a candidate matrix: the slots of source
        # generator c are the target's degree-tc window, offset by first[c]
        slots: list[tuple[int, int, tuple]] = []
        first: list[int] = []
        for c, tc in enumerate(source.cover_twists):
            first.append(len(slots))
            slots.extend((r, c, mon) for r, mon in window(tc)[0])
        self._slots = slots
        self._slot_index = {slot: k for k, slot in enumerate(slots)}

        # constraint rows: for each source relation column, X * rel must lie
        # in the target relation span at the matching degree; each source
        # relation column gets its own block of rows, starting at offset
        rel_m = source.relations
        constraint_cols: list[dict] = [{} for _ in slots]
        offset = 0
        for c, s in enumerate(rel_m.col_twists):
            index, tracker = window(s)
            for src_row, p in enumerate(rel_m.column(c)):
                if p.is_zero:
                    continue
                # contribution of slot (r, src_row, mon): entry x^mon times
                # the relation coefficient p, reduced mod the span
                slot_window, _ = window(source.cover_twists[src_row])
                for (r, mon), k in slot_window.items():
                    terms = [(r, pm, pc) for pm, pc in p.items()]
                    residue = tracker.residual(_expand(terms, mon, index))
                    constraint_cols[first[src_row] + k].update(
                        (offset + i, v) for i, v in residue.items())
            offset += len(index)

        solutions = nullspace(constraint_cols) if slots else []

        # trivial maps: columns lying in the target relation span, i.e. the
        # relation multiples of each source generator's window
        rel_n_terms = [_column_terms(rel_n.column(c)) for c in range(rel_n.cols)]
        trivial: list[dict] = []
        for c, tc in enumerate(source.cover_twists):
            index, _ = window(tc)
            for terms, s in zip(rel_n_terms, rel_n.col_twists):
                if not terms:
                    continue
                for mult in monomials_of_degree(nv, tc - s):
                    trivial.append({first[c] + k: v for k, v
                                    in _expand(terms, mult, index).items()})

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
