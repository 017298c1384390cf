"""Homogeneous matrices of polynomials with twist bookkeeping.

A PolyMatrix records a degree-zero map of free graded modules

    F_col = (+)_c R(-col_twists[c])  -->  F_row = (+)_r R(-row_twists[r])

column c holds the image of the c-th source generator in target cover
coordinates.  The graded contract is that entry (r, c) is homogeneous of
degree col_twists[c] - row_twists[r], or zero; the constructor enforces it
on every stored term.

There is one matrix form: column c is `vecs[c]`, a sparse vector
{(row, monomial): coefficient} (linalg.MVec), the same form the Groebner
engine computes with, so syzygies, kernels and lifts read and write columns
without any conversion.  Zero entries take no space.  The product is the
engine's axpy: column c of A * B adds coeff * x^mon times column k of A for
each term (k, mon, coeff) of column c of B.  `column`, `entry` and the
`entries` grid build Polynomials on demand, for printing and cold paths.
`column_degree` is the one place that infers a column's twist from its
terms: it reads the first nonzero entry and leaves the rest to the
constructor's check.

Block layout, fixed here and nowhere else.  A direct sum of free modules
lists its summands' generators one group after another (`blocks`).  A
tensor product of free modules indexes its generators by pairs (i, p),
i outer and p inner, with twist s_i + t_p: `kron` puts entry A[i][c] *
B[p][q] at row (i, p) and column (c, q).  Hom(F, R) of a free module has
the negated twists, and a map's induced map on it is the transpose
(`dual`).  So M (+) N, F (x) N, Hom(F, N) = F^dual (x) N and the
multiplication maps of the module layer are all built from these three
methods, and no other module computes a flattened cover index.  The one
exterior-power layout is `koszul`: wedge^k of R(-1)^nvars has one generator
per k-subset, in itertools.combinations order, and koszul(nvars, k) is the
Koszul map down to wedge^(k-1).  The variable row (k = 1), the cotangent
sheaf's generators and relations (k = 2, 3) and the Koszul relations of
the irrelevant ideal are all read from it.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Iterable, Sequence

from .errors import HomogeneityError, RingMismatchError, ShapeError
from .linalg import MVec, _mvec_axpy, vec_axpy
from .polynomials import Polynomial, qnorm


def column_vec(polys: Sequence[Polynomial]) -> MVec:
    """A column of polynomials as a vector {(row, monomial): coefficient}."""
    return {(r, mon): c for r, p in enumerate(polys) for mon, c in p.terms.items()}


def column_degree(vec: MVec, row_twists: Sequence[int]) -> int | None:
    """Degree of a column over rows of the given twists, read off its first
    nonzero entry; None for a zero column.  Raises HomogeneityError when that
    entry is inhomogeneous; PolyMatrix checks the other entries."""
    if not vec:
        return None
    first = min(r for r, _ in vec)
    entry = {mon: c for (r, mon), c in vec.items() if r == first}
    degs = {sum(mon) for mon in entry}
    if len(degs) > 1:
        p = Polynomial(len(next(iter(entry))), entry)
        raise HomogeneityError(f"entry {first} = {p} is not homogeneous")
    return degs.pop() + row_twists[first]


class PolyMatrix:
    __slots__ = ("nvars", "rows", "cols", "row_twists", "col_twists", "vecs",
                 "_hash")

    def __init__(
        self,
        nvars: int,
        row_twists: Sequence[int],
        col_twists: Sequence[int],
        vecs: Sequence[MVec],
    ):
        """The matrix whose column c is vecs[c]; the vectors are shared,
        never copied, and nothing may mutate them afterwards."""
        self.nvars = nvars
        self.row_twists = rt = tuple(row_twists)
        self.col_twists = ct = tuple(col_twists)
        self.rows = rows = len(rt)
        self.cols = len(ct)
        self.vecs = tuple(vecs)
        if len(self.vecs) != self.cols:
            raise ShapeError(
                f"{len(self.vecs)} columns do not match {rows}x{self.cols}"
            )
        for c, vec in enumerate(self.vecs):
            t = ct[c]
            for r, mon in vec:
                if (len(mon) != nvars or not 0 <= r < rows
                        or sum(mon) != t - rt[r]):
                    self._reject()
        self._hash = None

    def _reject(self) -> None:
        """Raise for the first entry, in row-major order, with a term of the
        wrong ring or degree (a term outside the rows is a ShapeError)."""
        nv, bad = self.nvars, []
        for c, vec in enumerate(self.vecs):
            for r, mon in vec:
                if not 0 <= r < self.rows:
                    raise ShapeError(f"column {c} has a term in row {r} of {self.rows}")
                if len(mon) != nv or sum(mon) != self.col_twists[c] - self.row_twists[r]:
                    bad.append((r, c))
        r, c = min(bad)
        lengths = {len(mon) for k, mon in self.vecs[c] if k == r} - {nv}
        if lengths:
            raise RingMismatchError(
                f"entry ({r},{c}) lives in {lengths.pop()} variables, matrix in {nv}"
            )
        p = self.entry(r, c)
        try:
            got = p.homogeneous_degree()
        except ValueError:
            got = "mixed"
        want = self.col_twists[c] - self.row_twists[r]
        raise HomogeneityError(f"entry ({r},{c}) = {p} has degree {got}, expected {want}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, row_twists, col_twists) -> "PolyMatrix":
        return cls(nvars, row_twists, col_twists, [{} for _ in col_twists])

    @classmethod
    def identity(cls, nvars: int, twists) -> "PolyMatrix":
        one = (0,) * nvars
        return cls(nvars, twists, twists,
                   [{(c, one): 1} for c in range(len(twists))])

    @classmethod
    def koszul(cls, nvars: int, k: int) -> "PolyMatrix":
        """The Koszul map on x0..x_{nvars-1}, wedge^k R(-1)^nvars ->
        wedge^(k-1) R(-1)^nvars: the generators are the k-subsets T in
        itertools.combinations order, and column T is the sum over positions
        p of (-1)^p x_{T[p]} e_{T minus T[p]}.  k = 1 is the row
        [x0 .. x_{nvars-1}]."""
        rows = {s: r for r, s in enumerate(combinations(range(nvars), k - 1))}
        unit = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
        vecs = [{(rows[t[:p] + t[p + 1:]], unit[j]): (-1) ** p
                 for p, j in enumerate(t)}
                for t in combinations(range(nvars), k)]
        return cls(nvars, (k - 1,) * len(rows), (k,) * len(vecs), vecs)

    @classmethod
    def blocks(cls, nvars: int, row_groups, col_groups, parts) -> "PolyMatrix":
        """Block matrix over twist groups from a {(gi, gj): PolyMatrix} dict;
        block (gi, gj) must carry the twists of its row and column groups,
        and absent blocks are zero."""
        row_off = [0, *accumulate(map(len, row_groups))]
        col_off = [0, *accumulate(map(len, col_groups))]
        vecs: list[MVec] = [{} for _ in range(col_off[-1])]
        for (gi, gj), m in parts.items():
            if (m.row_twists != tuple(row_groups[gi])
                    or m.col_twists != tuple(col_groups[gj])):
                raise ShapeError(f"block ({gi},{gj}) twist mismatch")
            off = row_off[gi]
            for c, vec in enumerate(m.vecs, start=col_off[gj]):
                vecs[c].update(((r + off, mon), v) for (r, mon), v in vec.items())
        return cls(nvars, [t for g in row_groups for t in g],
                   [t for g in col_groups for t in g], vecs)

    @classmethod
    def from_columns(
        cls, nvars: int, row_twists, columns: Sequence[Sequence[Polynomial]], col_twists
    ) -> "PolyMatrix":
        """The matrix with the given columns of polynomials."""
        rows = len(row_twists)
        if any(len(col) != rows for col in columns):
            raise ShapeError("column length does not match row twist count")
        if len(columns) != len(col_twists):
            raise ShapeError(
                f"entry grid {rows}x? does not match {rows}x{len(col_twists)}"
            )
        for r in range(rows):
            for c, col in enumerate(columns):
                p = col[r]
                if p.nvars != nvars:
                    raise RingMismatchError(
                        f"entry ({r},{c}) lives in {p.nvars} variables, matrix in {nvars}"
                    )
        return cls(nvars, row_twists, col_twists, [column_vec(col) for col in columns])

    # -- access ------------------------------------------------------------

    def column(self, c: int) -> list[Polynomial]:
        rows: list[dict] = [{} for _ in range(self.rows)]
        for (r, mon), v in self.vecs[c].items():
            rows[r][mon] = v
        return [Polynomial(self.nvars, terms) for terms in rows]

    def entry(self, r: int, c: int) -> Polynomial:
        return Polynomial(self.nvars, {mon: v for (k, mon), v in self.vecs[c].items()
                                       if k == r})

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The dense grid of entries, row by row, built on each access."""
        columns = [self.column(c) for c in range(self.cols)]
        return tuple(tuple(col[r] for col in columns) for r in range(self.rows))

    @property
    def is_zero(self) -> bool:
        return not any(self.vecs)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.nvars != other.nvars:
            raise RingMismatchError("matrix product across rings")
        if self.cols != other.rows or self.col_twists != other.row_twists:
            raise ShapeError(
                f"cannot compose: inner twists {self.col_twists} vs {other.row_twists}"
            )
        left = self.vecs
        out = []
        for vec in other.vecs:
            acc: MVec = {}
            for (k, mon), c in vec.items():
                _mvec_axpy(acc, c, mon, left[k])
            out.append(acc)
        return PolyMatrix(self.nvars, self.row_twists, other.col_twists, out)

    def __neg__(self) -> "PolyMatrix":
        return self.scale(-1)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.row_twists, self.col_twists) != (other.row_twists, other.col_twists):
            raise ShapeError("matrix sum with mismatched twists")
        out = []
        for a, b in zip(self.vecs, other.vecs):
            acc = dict(a)
            vec_axpy(acc, 1, b)
            out.append(acc)
        return PolyMatrix(self.nvars, self.row_twists, self.col_twists, out)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def scale(self, c) -> "PolyMatrix":
        c = qnorm(c)
        out = []
        for vec in self.vecs:
            acc: MVec = {}
            vec_axpy(acc, c, vec)
            out.append(acc)
        return PolyMatrix(self.nvars, self.row_twists, self.col_twists, out)

    def twist_all(self, k: int) -> "PolyMatrix":
        """Shift every row and column twist by -k (entries unchanged)."""
        return PolyMatrix(
            self.nvars,
            tuple(t - k for t in self.row_twists),
            tuple(t - k for t in self.col_twists),
            self.vecs,
        )

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.row_twists != other.row_twists:
            raise ShapeError("hstack with mismatched row twists")
        return PolyMatrix(self.nvars, self.row_twists,
                          self.col_twists + other.col_twists,
                          self.vecs + other.vecs)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product: entry ((i, p), (c, q)) is self[i][c] *
        other[p][q], the twists add."""
        if self.nvars != other.nvars:
            raise RingMismatchError("Kronecker product across rings")
        n = other.rows
        out = []
        for a in self.vecs:
            for b in other.vecs:
                acc: MVec = {}
                for (i, mon), c in a.items():
                    _mvec_axpy(acc, c, mon,
                               {(i * n + p, m): v for (p, m), v in b.items()})
                out.append(acc)
        return PolyMatrix(
            self.nvars,
            [s + t for s in self.row_twists for t in other.row_twists],
            [s + t for s in self.col_twists for t in other.col_twists],
            out,
        )

    def dual(self) -> "PolyMatrix":
        """The transpose with negated twists: the map Hom(-, R) induces."""
        out: list[MVec] = [{} for _ in range(self.rows)]
        for c, vec in enumerate(self.vecs):
            for (r, mon), v in vec.items():
                out[r][(c, mon)] = v
        return PolyMatrix(
            self.nvars,
            tuple(-t for t in self.col_twists),
            tuple(-t for t in self.row_twists),
            out,
        )

    def select_columns(self, indices: Iterable[int]) -> "PolyMatrix":
        idx = list(indices)
        return PolyMatrix(self.nvars, self.row_twists,
                          [self.col_twists[c] for c in idx],
                          [self.vecs[c] for c in idx])

    def select_rows(self, indices: Iterable[int]) -> "PolyMatrix":
        idx = list(indices)
        places: dict[int, list[int]] = {}
        for k, r in enumerate(idx):
            places.setdefault(r, []).append(k)
        out = [{(k, mon): v for (r, mon), v in vec.items() for k in places.get(r, ())}
               for vec in self.vecs]
        return PolyMatrix(self.nvars, [self.row_twists[r] for r in idx],
                          self.col_twists, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.nvars == other.nvars
            and self.row_twists == other.row_twists
            and self.col_twists == other.col_twists
            and self.vecs == other.vecs
        )

    def __hash__(self) -> int:
        """Hash of the canonical presentation, built once per instance; it
        agrees with __eq__ whatever order the terms were stored in, so equal
        matrices built apart share cache keys."""
        if self._hash is None:
            self._hash = hash((
                self.nvars, self.row_twists, self.col_twists,
                tuple(frozenset(vec.items()) for vec in self.vecs),
            ))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(p) for p in row) for row in self.entries
        )
        return f"PolyMatrix({self.rows}x{self.cols}, rt={list(self.row_twists)}, ct={list(self.col_twists)}: {body})"
