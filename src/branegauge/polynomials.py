"""Multivariate polynomials over Q with exact rational coefficients.

The ground ring everywhere is R = Q[x0, ..., xn], graded by total degree.
Polynomials are sparse dictionaries mapping exponent tuples to nonzero exact
coefficients, so every computation downstream is exact.

Coefficients have one canonical form, `Coeff`, used by every layer: an `int`
when the value is integral and a `fractions.Fraction` only when it is not,
never a `float`.  `qnorm` puts a scalar in that form (and rejects a float);
`qinv` is the exact inverse, since `1 / c` on an int gives a float.  An
integral Fraction and its int compare and hash equal and print the same, so
the form changes no dictionary key and no report byte.

There is one monomial order, graded reverse lexicographic with
x0 > x1 > ... > xn, and `grevlex_key` is its sort key.  It refines total
degree, which is what keeps Groebner bases of homogeneous inputs homogeneous;
term printing, `monomials_of_degree` and the Groebner engine all use it.

The monomial helpers (`monomial_mul`, `monomial_div`, `monomial_divides`,
`monomial_lcm`) and `grevlex_key` are the floor of every layer above, so each
is one C-level `map` over an `operator` function, with no Python-level loop.
`monomials_of_degree` is memoized: it returns one shared tuple per
(nvars, d), which callers iterate, index and measure but never rebuild.

Text syntax, used by the CLI manifests and the printers::

    3/2*x0^2*x1 - x2^3

with `^` for exponents and `*` optional between a coefficient and a monomial.
`parse_polynomial` and `str()` round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from operator import add, le, neg, sub
from typing import Iterator, Mapping

from .errors import PolynomialSyntaxError, RingMismatchError

Monomial = tuple[int, ...]
Coeff = int | Fraction


def qnorm(x) -> Coeff:
    """x in canonical form: an int when integral, else a Fraction.

    Raises TypeError for anything that is not an exact rational, a float
    included."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"coefficient {x!r} is not an int or a Fraction")


def qinv(x) -> Coeff:
    """Exact inverse 1/x in canonical form: Fraction(1, x) for an int other
    than +-1, which stay ints.  Raises ZeroDivisionError for zero."""
    x = qnorm(x)
    if type(x) is int:
        return x if x == 1 or x == -1 else Fraction(1, x)
    return qnorm(Fraction(x.denominator, x.numerator))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if x^a divides x^b."""
    return all(map(le, a, b))


def monomial_div(b: Monomial, a: Monomial) -> Monomial:
    """Exponent vector of x^b / x^a; caller guarantees divisibility."""
    return tuple(map(sub, b, a))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def grevlex_key(m: Monomial):
    """Grevlex sort key, x0 > x1 > ... > xn: larger key, larger monomial.

    Ties in degree: the monomial whose *last* nonzero difference is negative
    wins, i.e. compare negated exponents right to left."""
    return (sum(m), tuple(map(neg, reversed(m))))


class Polynomial:
    """Immutable sparse polynomial in Q[x0..x_{nvars-1}].

    `nvars` is the number of variables, so a polynomial on P^n has
    nvars = n + 1.  Zero coefficients are never stored.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Coeff] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[Monomial, Coeff] = {}
        for mon, coeff in (terms or {}).items():
            if len(mon) != nvars or any(e < 0 for e in mon):
                raise ValueError(f"bad exponent tuple {mon} for {nvars} variables")
            c = coeff if type(coeff) is int else qnorm(coeff)
            if c:
                clean[tuple(mon)] = c
        self.nvars = nvars
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        mon = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mon: 1})

    @classmethod
    def monomial(cls, nvars: int, mon: Monomial, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(mon): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def terms(self) -> Mapping[Monomial, Coeff]:
        """The {monomial: coefficient} dict itself, in no fixed order, for
        callers that only copy it; it must not be mutated."""
        return self._terms

    def items(self) -> Iterator[tuple[Monomial, Coeff]]:
        """Terms in a fixed (grevlex-descending) order, for determinism."""
        return iter(sorted(self._terms.items(), key=lambda kv: grevlex_key(kv[0]),
                           reverse=True))

    def coefficient(self, mon: Monomial) -> Coeff:
        return self._terms.get(tuple(mon), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def homogeneous_degree(self) -> int | None:
        """Common degree of all terms; None for zero; raises if inhomogeneous."""
        degs = {sum(m) for m in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial {self}")
        return degs.pop()

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise RingMismatchError(
                f"polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        terms = dict(self._terms)
        for mon, c in other._terms.items():
            s = terms.get(mon, 0) + c
            if s:
                terms[mon] = s
            else:
                terms.pop(mon, None)
        return Polynomial(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_ring(other)
            terms: dict[Monomial, Coeff] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mon = monomial_mul(m1, m2)
                    s = terms.get(mon, 0) + c1 * c2
                    if s:
                        terms[mon] = s
                    else:
                        terms.pop(mon, None)
            return Polynomial(self.nvars, terms)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = qnorm(c)
        if c == 0:
            return Polynomial.zero(self.nvars)
        return Polynomial(self.nvars, {m: c * v for m, v in self._terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    __hash__ = None  # mutable-dict backed; equality only

    # -- printing ----------------------------------------------------------

    def _format_term(self, mon: Monomial, coeff: Coeff) -> str:
        factors = []
        for i, e in enumerate(mon):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            return str(abs(coeff))
        body = "*".join(factors)
        a = abs(coeff)
        return body if a == 1 else f"{a}*{body}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (mon, coeff) in enumerate(self.items()):
            piece = self._format_term(mon, coeff)
            if i == 0:
                parts.append(piece if coeff > 0 else "-" + piece)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + piece)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {str(self)!r})"


_INTEGER_RE = re.compile(r"-?\d+")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the `3/2*x0^2*x1 - x2^3` syntax.

    Raises PolynomialSyntaxError with the character offset of the first
    defect.  Variables must be x0..x{nvars-1}.  A bare integer such as
    "0", "1" or "-2", the commonest matrix entry of a manifest, is read by
    int() alone; it gives what _parse_terms gives.
    """
    if _INTEGER_RE.fullmatch(text):
        return Polynomial.constant(nvars, int(text))
    return _parse_terms(text, nvars)


def _parse_terms(text: str, nvars: int) -> Polynomial:
    """parse_polynomial's general case: term by term, with offsets."""
    terms: dict[Monomial, Coeff] = {}
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == n:
        raise PolynomialSyntaxError("empty polynomial text", pos)
    first = True
    while pos < n:
        sign = 1
        pos = skip_ws(pos)
        if pos < n and text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos = skip_ws(pos + 1)
        elif not first:
            raise PolynomialSyntaxError("expected '+' or '-' between terms", pos)
        first = False
        coeff: Coeff = 1
        exps = [0] * nvars
        saw_factor = False
        expect_factor = True
        while True:
            pos = skip_ws(pos)
            if pos < n and text[pos].isdecimal():
                m = re.match(r"\d+", text[pos:])
                num = int(m.group(0))
                pos += m.end()
                pos = skip_ws(pos)
                if pos < n and text[pos] == "/":
                    pos = skip_ws(pos + 1)
                    m2 = re.match(r"\d+", text[pos:])
                    if not m2:
                        raise PolynomialSyntaxError("expected denominator digits", pos)
                    den = int(m2.group(0))
                    if den == 0:
                        raise PolynomialSyntaxError("zero denominator", pos)
                    pos += m2.end()
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
                saw_factor = True
            elif pos < n and text[pos] == "x":
                m = re.match(r"x(\d+)", text[pos:])
                if not m:
                    raise PolynomialSyntaxError("expected variable index after 'x'", pos + 1)
                idx = int(m.group(1))
                if idx >= nvars:
                    raise PolynomialSyntaxError(
                        f"variable x{idx} out of range (ring has x0..x{nvars - 1})", pos
                    )
                pos += m.end()
                exp = 1
                pos = skip_ws(pos)
                if pos < n and text[pos] == "^":
                    pos = skip_ws(pos + 1)
                    m2 = re.match(r"\d+", text[pos:])
                    if not m2:
                        raise PolynomialSyntaxError("expected exponent digits after '^'", pos)
                    exp = int(m2.group(0))
                    pos += m2.end()
                exps[idx] += exp
                saw_factor = True
            else:
                if expect_factor:
                    raise PolynomialSyntaxError("expected a coefficient or variable", pos)
                break
            pos = skip_ws(pos)
            expect_factor = False
            if pos < n and text[pos] == "*":
                pos += 1
                expect_factor = True
                continue
            if pos < n and (text[pos].isdecimal() or text[pos] == "x"):
                continue  # juxtaposition, '*' optional
            break
        if not saw_factor:
            raise PolynomialSyntaxError("empty term", pos)
        mon = tuple(exps)
        s = terms.get(mon, 0) + sign * coeff
        if s:
            terms[mon] = s
        else:
            terms.pop(mon, None)
        pos = skip_ws(pos)
    return Polynomial(nvars, terms)


@cache
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree d, sorted grevlex-descending.

    Memoized: every call with the same (nvars, d) returns the same tuple."""
    if d < 0:
        return ()
    out: list[Monomial] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return tuple(out)
