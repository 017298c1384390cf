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
that modules.hilbert_window ranks too (on pruned presentations; here the
target's own relations are ranked); this module
imports nothing from groebner or modules, so it stays an independent
cross-check.
"""

from __future__ import annotations

from .linalg import SpanTracker, _expand, degree_window, nullspace, tag
from .polymatrix import PolyMatrix
from .polynomials import Coeff, monomials_of_degree


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
            by_row: dict[int, list] = {}
            for (src_row, pm), pc in rel_m.vecs[c].items():
                by_row.setdefault(src_row, []).append((pm, pc))
            for src_row, p in sorted(by_row.items()):
                # contribution of slot (r, src_row, mon): entry x^mon times
                # the relation coefficient p, reduced mod the span
                slot_window, _ = window(source.cover_twists[src_row])
                for (r, mon), k in slot_window.items():
                    terms = {(r, pm): pc for pm, pc in p}
                    residue = tracker.residual(_expand(terms, mon, index))
                    constraint_cols[first[src_row] + k].update(
                        (offset + i, v) for i, v in residue.items())
            offset += len(index)

        solutions = nullspace(constraint_cols) if slots else []

        # trivial maps: columns lying in the target relation span, i.e. the
        # relation multiples of each source generator's window
        trivial: list[dict] = []
        for c, tc in enumerate(source.cover_twists):
            index, _ = window(tc)
            for vec, s in zip(rel_n.vecs, rel_n.col_twists):
                if not vec:
                    continue
                for mult in monomials_of_degree(nv, tc - s):
                    trivial.append({first[c] + k: v for k, v
                                    in _expand(vec, mult, index).items()})

        # basis vector k carries tag(k), so the tracker's coordinates read
        # basis coordinates directly; the untagged trivial maps project away
        tracker = SpanTracker()
        for vec in trivial:
            tracker.insert(vec)
        basis_vecs: list[dict] = []
        for vec in solutions:
            if tracker.insert({**vec, tag(len(basis_vecs)): 1}) is None:
                basis_vecs.append(vec)
        self._tracker = tracker
        self._basis_vecs = basis_vecs

    @property
    def dim(self) -> int:
        return len(self._basis_vecs)

    def _matrix_from_vec(self, vec: dict) -> PolyMatrix:
        cols: list[dict] = [{} for _ in self.source.cover_twists]
        for slot, coeff in vec.items():
            r, c, mon = self._slots[slot]
            cols[c][(r, mon)] = coeff
        return PolyMatrix(self.nvars, self.target.cover_twists,
                          self.source.cover_twists, cols)

    def matrices(self) -> list[PolyMatrix]:
        return [self._matrix_from_vec(v) for v in self._basis_vecs]

    def coordinates(self, mat: PolyMatrix) -> list[Coeff] | None:
        """Coordinates of a degree-0 hom matrix in the basis, trivial part
        projected away; None when the matrix is not in the solution span."""
        vec: dict = {}
        for c, col in enumerate(mat.vecs):
            for (r, mon), coeff in col.items():
                slot = self._slot_index.get((r, c, mon))
                if slot is None:
                    return None
                vec[slot] = coeff
        coords = self._tracker.coordinates(vec)
        if coords is None:
            return None
        out: list[Coeff] = [0] * self.dim
        for k, v in coords.items():
            out[k] = v
        return out
