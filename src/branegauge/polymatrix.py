"""Homogeneous matrices of polynomials with twist bookkeeping.

A PolyMatrix records a degree-zero map of free graded modules

    F_col = (+)_c R(-col_twists[c])  -->  F_row = (+)_r R(-row_twists[r])

column c holds the image of the c-th source generator in target cover
coordinates.  The graded contract is that entry (r, c) is homogeneous of
degree col_twists[c] - row_twists[r], or zero; the constructor enforces it.
`column_degree` is the one place that infers a column's twist from its
entries: it reads the first nonzero entry and leaves the rest to that check.

Block layout, fixed here and nowhere else.  A direct sum of free modules
lists its summands' generators one group after another (`blocks`).  A
tensor product of free modules indexes its generators by pairs (i, p),
i outer and p inner, with twist s_i + t_p: `kron` puts entry A[i][c] *
B[p][q] at row (i, p) and column (c, q).  Hom(F, R) of a free module has
the negated twists, and a map's induced map on it is the transpose
(`dual`).  So M (+) N, F (x) N, Hom(F, N) = F^dual (x) N and the
multiplication maps of the module layer are all built from these three
methods, and no other module computes a flattened cover index.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

from .errors import HomogeneityError, RingMismatchError, ShapeError
from .polynomials import Polynomial, parse_polynomial, qnorm


def column_degree(polys: Sequence[Polynomial], row_twists: Sequence[int]) -> int | None:
    """Degree of a column over rows of the given twists, read off its first
    nonzero entry; None for a zero column.  Raises HomogeneityError when that
    entry is inhomogeneous; PolyMatrix checks the other entries."""
    for r, p in enumerate(polys):
        if not p.is_zero:
            try:
                return p.homogeneous_degree() + row_twists[r]
            except ValueError:
                raise HomogeneityError(f"entry {r} = {p} is not homogeneous") from None
    return None


class PolyMatrix:
    __slots__ = ("nvars", "rows", "cols", "row_twists", "col_twists", "entries",
                 "_hash")

    def __init__(
        self,
        nvars: int,
        row_twists: Sequence[int],
        col_twists: Sequence[int],
        entries: Sequence[Sequence[Polynomial]],
    ):
        self.nvars = nvars
        self.row_twists = tuple(row_twists)
        self.col_twists = tuple(col_twists)
        self.rows = len(self.row_twists)
        self.cols = len(self.col_twists)
        if len(entries) != self.rows or any(len(row) != self.cols for row in entries):
            raise ShapeError(
                f"entry grid {len(entries)}x? does not match {self.rows}x{self.cols}"
            )
        grid = []
        for r, row in enumerate(entries):
            new_row = []
            for c, p in enumerate(row):
                if p.nvars != nvars:
                    raise RingMismatchError(
                        f"entry ({r},{c}) lives in {p.nvars} variables, matrix in {nvars}"
                    )
                if not p.is_zero:
                    want = self.col_twists[c] - self.row_twists[r]
                    try:
                        got = p.homogeneous_degree()
                    except ValueError:
                        got = "mixed"
                    if got != want:
                        raise HomogeneityError(
                            f"entry ({r},{c}) = {p} has degree {got}, expected {want}"
                        )
                new_row.append(p)
            grid.append(tuple(new_row))
        self.entries = tuple(grid)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, row_twists, col_twists) -> "PolyMatrix":
        z = Polynomial.zero(nvars)
        return cls(
            nvars,
            row_twists,
            col_twists,
            [[z] * len(col_twists) for _ in row_twists],
        )

    @classmethod
    def identity(cls, nvars: int, twists) -> "PolyMatrix":
        z = Polynomial.zero(nvars)
        one = Polynomial.one(nvars)
        n = len(twists)
        return cls(
            nvars,
            twists,
            twists,
            [[one if r == c else z for c in range(n)] for r in range(n)],
        )

    @classmethod
    def variables(cls, nvars: int) -> "PolyMatrix":
        """The row [x0 .. x_{nvars-1}]: R(-1)^nvars -> R."""
        return cls(nvars, (0,), (1,) * nvars,
                   [[Polynomial.variable(nvars, i) for i in range(nvars)]])

    @classmethod
    def blocks(cls, nvars: int, row_groups, col_groups, parts) -> "PolyMatrix":
        """Block matrix over twist groups from a {(gi, gj): PolyMatrix} dict;
        block (gi, gj) must carry the twists of its row and column groups,
        and absent blocks are zero."""
        row_off = [0, *accumulate(map(len, row_groups))]
        col_off = [0, *accumulate(map(len, col_groups))]
        z = Polynomial.zero(nvars)
        entries = [[z] * col_off[-1] for _ in range(row_off[-1])]
        for (gi, gj), m in parts.items():
            if (m.row_twists != tuple(row_groups[gi])
                    or m.col_twists != tuple(col_groups[gj])):
                raise ShapeError(f"block ({gi},{gj}) twist mismatch")
            for r, row in enumerate(m.entries):
                entries[row_off[gi] + r][col_off[gj]:col_off[gj] + m.cols] = row
        return cls(nvars, [t for g in row_groups for t in g],
                   [t for g in col_groups for t in g], entries)

    @classmethod
    def from_columns(
        cls, nvars: int, row_twists, columns: Sequence[Sequence[Polynomial]], col_twists
    ) -> "PolyMatrix":
        rows = len(row_twists)
        if any(len(col) != rows for col in columns):
            raise ShapeError("column length does not match row twist count")
        entries = [[columns[c][r] for c in range(len(columns))] for r in range(rows)]
        return cls(nvars, row_twists, col_twists, entries)

    @classmethod
    def from_strings(
        cls, nvars: int, row_twists, col_twists, grid: Sequence[Sequence[str]]
    ) -> "PolyMatrix":
        entries = [
            [parse_polynomial(s, nvars) for s in row] for row in grid
        ]
        return cls(nvars, row_twists, col_twists, entries)

    # -- access ------------------------------------------------------------

    def column(self, c: int) -> list[Polynomial]:
        return [self.entries[r][c] for r in range(self.rows)]

    def entry(self, r: int, c: int) -> Polynomial:
        return self.entries[r][c]

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.nvars != other.nvars:
            raise RingMismatchError("matrix product across rings")
        if self.cols != other.rows or self.col_twists != other.row_twists:
            raise ShapeError(
                f"cannot compose: inner twists {self.col_twists} vs {other.row_twists}"
            )
        z = Polynomial.zero(self.nvars)
        # the nonzero entries of each column of other, listed once, k ascending;
        # only nonzero pairs are multiplied, summed in that order
        other_cols = [
            [(k, row[c]) for k, row in enumerate(other.entries) if not row[c].is_zero]
            for c in range(other.cols)
        ]
        entries = []
        for row in self.entries:
            live = {k: a for k, a in enumerate(row) if not a.is_zero}
            out = []
            for col in other_cols:
                acc = None
                for k, b in col:
                    a = live.get(k)
                    if a is not None:
                        acc = a * b if acc is None else acc + a * b
                out.append(z if acc is None else acc)
            entries.append(out)
        return PolyMatrix(self.nvars, self.row_twists, other.col_twists, entries)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(
            self.nvars,
            self.row_twists,
            self.col_twists,
            [[-p for p in row] for row in self.entries],
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.row_twists, self.col_twists) != (other.row_twists, other.col_twists):
            raise ShapeError("matrix sum with mismatched twists")
        return PolyMatrix(
            self.nvars,
            self.row_twists,
            self.col_twists,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def scale(self, c) -> "PolyMatrix":
        c = qnorm(c)
        return PolyMatrix(
            self.nvars,
            self.row_twists,
            self.col_twists,
            [[p.scale(c) for p in row] for row in self.entries],
        )

    def twist_all(self, k: int) -> "PolyMatrix":
        """Shift every row and column twist by -k (entries unchanged)."""
        return PolyMatrix(
            self.nvars,
            tuple(t - k for t in self.row_twists),
            tuple(t - k for t in self.col_twists),
            self.entries,
        )

    def hstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.row_twists != other.row_twists:
            raise ShapeError("hstack with mismatched row twists")
        return PolyMatrix(
            self.nvars,
            self.row_twists,
            self.col_twists + other.col_twists,
            [ra + rb for ra, rb in zip(self.entries, other.entries)],
        )

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product: entry ((i, p), (c, q)) is self[i][c] *
        other[p][q], the twists add.  Where one factor is the constant 1 the
        other entry is copied, not multiplied."""
        if self.nvars != other.nvars:
            raise RingMismatchError("Kronecker product across rings")
        one = Polynomial.one(self.nvars)
        z = Polynomial.zero(self.nvars)
        live = [(p, q, b, b == one) for p, row in enumerate(other.entries)
                for q, b in enumerate(row) if not b.is_zero]
        entries = [[z] * (self.cols * other.cols)
                   for _ in range(self.rows * other.rows)]
        for i, row in enumerate(self.entries):
            for c, a in enumerate(row):
                if a.is_zero:
                    continue
                a_one = a == one
                for p, q, b, b_one in live:
                    entries[i * other.rows + p][c * other.cols + q] = (
                        b if a_one else a if b_one else a * b
                    )
        return PolyMatrix(
            self.nvars,
            [s + t for s in self.row_twists for t in other.row_twists],
            [s + t for s in self.col_twists for t in other.col_twists],
            entries,
        )

    def dual(self) -> "PolyMatrix":
        """The transpose with negated twists: the map Hom(-, R) induces."""
        return PolyMatrix(
            self.nvars,
            tuple(-t for t in self.col_twists),
            tuple(-t for t in self.row_twists),
            [self.column(c) for c in range(self.cols)],
        )

    def select_columns(self, indices: Iterable[int]) -> "PolyMatrix":
        idx = list(indices)
        return PolyMatrix.from_columns(
            self.nvars,
            self.row_twists,
            [self.column(c) for c in idx],
            [self.col_twists[c] for c in idx],
        )

    def select_rows(self, indices: Iterable[int]) -> "PolyMatrix":
        idx = list(indices)
        return PolyMatrix(
            self.nvars,
            [self.row_twists[r] for r in idx],
            self.col_twists,
            [self.entries[r] for r in idx],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.nvars == other.nvars
            and self.row_twists == other.row_twists
            and self.col_twists == other.col_twists
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        """Hash of the canonical presentation, built once per instance; it
        agrees with __eq__, so equal matrices built apart share cache keys."""
        if self._hash is None:
            self._hash = hash((
                self.nvars, self.row_twists, self.col_twists,
                tuple(tuple(p.items()) for row in self.entries for p in row),
            ))
        return self._hash

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(p) for p in row) for row in self.entries
        )
        return f"PolyMatrix({self.rows}x{self.cols}, rt={list(self.row_twists)}, ct={list(self.col_twists)}: {body})"
