"""Homogeneous matrices of polynomials with twist bookkeeping.

A PolyMatrix records a degree-zero map of free graded modules

    F_col = (+)_c R(-col_twists[c])  -->  F_row = (+)_r R(-row_twists[r])

column c holds the image of the c-th source generator in target cover
coordinates.  The graded contract is that entry (r, c) is homogeneous of
degree col_twists[c] - row_twists[r], or zero; the constructor enforces it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import HomogeneityError, RingMismatchError, ShapeError
from .polynomials import Polynomial, parse_polynomial


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
                    got = p.homogeneous_degree() if p.is_homogeneous() else "mixed"
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

    def columns(self) -> list[list[Polynomial]]:
        return [self.column(c) for c in range(self.cols)]

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
        entries = []
        for r in range(self.rows):
            row = []
            for c in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[r][k]
                    b = other.entries[k][c]
                    if not a.is_zero and not b.is_zero:
                        acc = acc + a * b
                row.append(acc)
            entries.append(row)
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
        c = Fraction(c)
        return PolyMatrix(
            self.nvars,
            self.row_twists,
            self.col_twists,
            [[p.scale(c) for p in row] for row in self.entries],
        )

    def apply(self, vector: Sequence[Polynomial]) -> list[Polynomial]:
        """Matrix times a column vector of polynomials."""
        if len(vector) != self.cols:
            raise ShapeError("vector length does not match column count")
        out = []
        for r in range(self.rows):
            acc = Polynomial.zero(self.nvars)
            for c in range(self.cols):
                e = self.entries[r][c]
                if not e.is_zero and not vector[c].is_zero:
                    acc = acc + e * vector[c]
            out.append(acc)
        return out

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

    @classmethod
    def block_diag(cls, nvars: int, blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        row_twists: list[int] = []
        col_twists: list[int] = []
        for b in blocks:
            row_twists.extend(b.row_twists)
            col_twists.extend(b.col_twists)
        z = Polynomial.zero(nvars)
        entries = [[z] * len(col_twists) for _ in row_twists]
        r0 = c0 = 0
        for b in blocks:
            for r in range(b.rows):
                for c in range(b.cols):
                    entries[r0 + r][c0 + c] = b.entries[r][c]
            r0 += b.rows
            c0 += b.cols
        return cls(nvars, row_twists, col_twists, entries)

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
