"""Groebner bases and syzygies for submodules of free graded modules.

Elements of a free module R^m are sparse vectors {(row, monomial): coeff}.
There is one module order, term-over-position: monomials compare by grevlex
(polynomials.grevlex_key), ties broken by smaller row index first.  For
homogeneous input the whole computation stays homogeneous, so no degree
truncation is ever needed.

Buchberger runs with the normal selection strategy (smallest pair lcm first,
ties by index) and the chain criterion; the classical coprime (product)
criterion is additionally applied in rank one, where it is valid.  Output
bases are reduced: interreduced, monic, sorted by leading term, hence
canonical.

Syzygies come from the Schreyer construction on the reduced basis and are
transformed back to the original generators through the tracked
representation matrices; `syzygy_basis` checks m * syz = 0 exactly before
returning.  `matrix_from_vecs` turns such vectors back into a PolyMatrix
whose columns are sorted by degree.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .linalg import vec_axpy
from .polymatrix import PolyMatrix, column_degree
from .polynomials import (
    Coeff,
    Monomial,
    Polynomial,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    qinv,
    qnorm,
)

# sparse free-module vector: {(row, monomial): coefficient}
MVec = dict[tuple[int, Monomial], Coeff]


def mvec_from_polys(polys) -> MVec:
    v: MVec = {}
    for r, p in enumerate(polys):
        for mon, c in p.items():
            v[(r, mon)] = c
    return v


def mvec_to_polys(v: MVec, rank: int, nvars: int) -> list[Polynomial]:
    buckets: list[dict] = [{} for _ in range(rank)]
    for (r, mon), c in v.items():
        buckets[r][mon] = c
    return [Polynomial(nvars, b) for b in buckets]


def mvec_axpy(target: MVec, coeff: Coeff, mon: Monomial, source: MVec) -> None:
    """target += coeff * x^mon * source, in place, entries kept canonical."""
    if not coeff:
        return
    for (r, m), c in source.items():
        key = (r, monomial_mul(m, mon))
        s = target.get(key, 0) + coeff * c
        if s:
            # qnorm inlined, as in linalg.vec_axpy
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            target[key] = s
        else:
            target.pop(key, None)


def mvec_scale(v: MVec, coeff: Coeff) -> MVec:
    out: MVec = {}
    vec_axpy(out, coeff, v)
    return out


def _term_key():
    """Term-over-position sort key on (row, monomial), with a memo of the
    monomials' grevlex keys that lives as long as the returned function."""
    cache: dict[Monomial, tuple] = {}

    def key(term: tuple[int, Monomial]):
        r, m = term
        k = cache.get(m)
        if k is None:
            k = cache[m] = grevlex_key(m)
        return (k, -r)

    return key


class GBElem:
    """A monic basis vector with cached lead and optional representation.

    rep, when tracked, expresses the element over the original generators:
    vec = sum rep[(k, m)] * x^m * gens[k].
    """

    __slots__ = ("vec", "lead", "rep")

    def __init__(self, vec: MVec, lead, rep=None):
        self.vec = vec
        self.lead = lead  # (row, monomial), coefficient 1
        self.rep = rep


def _make_elem(vec: MVec, key, rep=None) -> GBElem:
    lead = max(vec, key=key)
    lc = vec[lead]
    if lc != 1:
        inv = qinv(lc)
        vec = mvec_scale(vec, inv)
        if rep is not None:
            rep = mvec_scale(rep, inv)
    return GBElem(vec, lead, rep)


def reduce_vec(
    v: MVec,
    basis: list[GBElem],
    key,
    quotients: MVec | None = None,
    rep: MVec | None = None,
) -> MVec:
    """Full normal form of v against basis (in the given, fixed order).

    Mutates v; returns the remainder.  If `quotients` is supplied it gains
    {(k, m): c} with  original = sum c * x^m * basis[k].vec + remainder.
    If `rep` is supplied (and basis reps are tracked) it is updated so the
    remainder satisfies  remainder = sum rep * gens.
    """
    rem: MVec = {}
    while v:
        lt = max(v, key=key)
        row, mon = lt
        for k, b in enumerate(basis):
            brow, bmon = b.lead
            if brow == row and monomial_divides(bmon, mon):
                c = v[lt]
                shift = monomial_div(mon, bmon)
                mvec_axpy(v, -c, shift, b.vec)
                if quotients is not None:
                    qk = (k, shift)
                    s = qnorm(quotients.get(qk, 0) + c)
                    if s:
                        quotients[qk] = s
                    else:
                        quotients.pop(qk, None)
                if rep is not None and b.rep is not None:
                    mvec_axpy(rep, -c, shift, b.rep)
                break
        else:
            rem[lt] = v.pop(lt)
    return rem


def module_groebner(
    gens: list[MVec],
    track: bool = False,
    allow_product_criterion: bool = False,
) -> list[GBElem]:
    """Reduced Groebner basis of the submodule generated by gens.

    Zero generators are skipped (callers that need their indices handle them
    separately).  With track=True each output element carries its
    representation over the *nonzero* input generators, indexed by position
    in the filtered list; use `syzygy_module` for the full bookkeeping.
    """
    key = _term_key()
    basis: list[GBElem] = []
    for i, g in enumerate(gens):
        if not g:
            continue
        rep = {(len(basis), (0,) * _nvars_of(g)): 1} if track else None
        basis.append(_make_elem(dict(g), key, rep))

    pairs: list = []
    done: set[frozenset] = set()

    def push_pairs(j: int) -> None:
        brow, bmon = basis[j].lead
        for i in range(j):
            irow, imon = basis[i].lead
            if irow != brow:
                continue
            lcm = monomial_lcm(imon, bmon)
            heapq.heappush(pairs, (grevlex_key(lcm), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)

    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        tag = frozenset((i, j))
        if tag in done:
            continue
        done.add(tag)
        irow, imon = basis[i].lead
        _, jmon = basis[j].lead
        if allow_product_criterion and monomial_mul(imon, jmon) == lcm:
            continue
        skip = False
        for k, b in enumerate(basis):
            if k in (i, j) or b.lead[0] != irow:
                continue
            if (
                monomial_divides(b.lead[1], lcm)
                and frozenset((i, k)) in done
                and frozenset((j, k)) in done
            ):
                skip = True
                break
        if skip:
            continue
        u: MVec = {}
        mvec_axpy(u, 1, monomial_div(lcm, imon), basis[i].vec)
        mvec_axpy(u, -1, monomial_div(lcm, jmon), basis[j].vec)
        rep: MVec | None = None
        if track:
            rep = {}
            mvec_axpy(rep, 1, monomial_div(lcm, imon), basis[i].rep)
            mvec_axpy(rep, -1, monomial_div(lcm, jmon), basis[j].rep)
        rem = reduce_vec(u, basis, key, rep=rep)
        if rem:
            basis.append(_make_elem(rem, key, rep))
            push_pairs(len(basis) - 1)

    return _reduce_basis(basis, key, track)


def _nvars_of(vec: MVec) -> int:
    for (_, mon) in vec:
        return len(mon)
    raise ValueError("empty vector has no variable count")


def _reduce_basis(basis: list[GBElem], key, track: bool) -> list[GBElem]:
    """Minimalize, interreduce, sort: the canonical reduced basis."""
    order_idx = sorted(range(len(basis)), key=lambda i: key(basis[i].lead))
    kept: list[int] = []
    for i in order_idx:
        row, mon = basis[i].lead
        if any(
            basis[k].lead[0] == row and monomial_divides(basis[k].lead[1], mon)
            for k in kept
        ):
            continue
        kept.append(i)
    reduced: list[GBElem] = [basis[i] for i in kept]
    for idx in range(len(reduced)):
        b = reduced[idx]
        others = reduced[:idx] + reduced[idx + 1 :]
        v = dict(b.vec)
        rep = dict(b.rep) if (track and b.rep is not None) else None
        rem = reduce_vec(v, others, key, rep=rep)
        reduced[idx] = _make_elem(rem, key, rep)
    reduced.sort(key=lambda b: key(b.lead))
    return reduced


def mvec_member(v: MVec, gb: list[GBElem]) -> bool:
    return not reduce_vec(dict(v), gb, _term_key())


def _apply_rep(coords: MVec, elems: list[GBElem]) -> MVec:
    """Expand coordinates over GB indices into the tracked generator space."""
    out: MVec = {}
    for (k, mon), c in coords.items():
        mvec_axpy(out, c, mon, elems[k].rep)
    return out


def schreyer_syzygies(gb: list[GBElem]) -> list[MVec]:
    """Generators of the syzygy module of a reduced basis, over GB indices."""
    key = _term_key()
    zero_mon = None
    out: list[MVec] = []
    for j in range(len(gb)):
        jrow, jmon = gb[j].lead
        if zero_mon is None:
            zero_mon = (0,) * len(jmon)
        for i in range(j):
            irow, imon = gb[i].lead
            if irow != jrow:
                continue
            lcm = monomial_lcm(imon, jmon)
            a = monomial_div(lcm, imon)
            b = monomial_div(lcm, jmon)
            u: MVec = {}
            mvec_axpy(u, 1, a, gb[i].vec)
            mvec_axpy(u, -1, b, gb[j].vec)
            quotients: MVec = {}
            rem = reduce_vec(u, gb, key, quotients=quotients)
            if rem:
                raise AssertionError("S-vector of a Groebner basis did not reduce to zero")
            syz: MVec = {(i, a): 1, (j, b): -1}
            vec_axpy(syz, -1, quotients)
            if syz:
                out.append(syz)
    return out


def syzygy_module(gens: list[MVec], nvars: int) -> list[MVec]:
    """Generators of {a : sum a_k gens_k = 0}, indexed by position in gens."""
    key = _term_key()
    nonzero = [(k, g) for k, g in enumerate(gens) if g]
    result: list[MVec] = []
    zero_mon: Monomial = (0,) * nvars
    for k, g in enumerate(gens):
        if not g:
            # a zero generator is its own syzygy
            result.append({(k, zero_mon): 1})
    if not nonzero:
        return result
    local = [g for _, g in nonzero]
    gb = module_groebner(local, track=True)
    to_global = {t: k for t, (k, _) in enumerate(nonzero)}

    def globalize(v: MVec) -> MVec:
        return {(to_global[r], m): c for (r, m), c in v.items()}

    for syz in schreyer_syzygies(gb):
        vec = _apply_rep(syz, gb)
        if vec:
            result.append(globalize(vec))
    for t, (k, g) in enumerate(nonzero):
        quotients: MVec = {}
        rem = reduce_vec(dict(g), gb, key, quotients=quotients)
        if rem:
            raise AssertionError("generator does not reduce to zero against its own basis")
        vec: MVec = {(t, zero_mon): 1}
        vec_axpy(vec, -1, _apply_rep(quotients, gb))
        if vec:
            result.append(globalize(vec))
    return result


def lift_through(columns: list[MVec], target: MVec) -> MVec | None:
    """Coordinates a with sum a_k columns_k = target, or None if no solution."""
    if not target:
        return {}
    key = _term_key()
    nonzero = [(k, g) for k, g in enumerate(columns) if g]
    if not nonzero:
        return None
    gb = module_groebner([g for _, g in nonzero], track=True)
    quotients: MVec = {}
    rem = reduce_vec(dict(target), gb, key, quotients=quotients)
    if rem:
        return None
    back = _apply_rep(quotients, gb)
    to_global = {t: k for t, (k, _) in enumerate(nonzero)}
    return {(to_global[r], m): c for (r, m), c in back.items()}


# -- polynomial (rank one) interface --------------------------------------


def _poly_to_vec(f: Polynomial) -> MVec:
    return {(0, mon): c for mon, c in f.items()}


def _vec_to_poly(v: MVec, nvars: int) -> Polynomial:
    return Polynomial(nvars, {mon: c for (_, mon), c in v.items()})


def normal_form(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of f by basis.

    Deterministic: always reduces by the first basis element (in list order)
    whose leading monomial divides the current leading monomial.
    """
    key = _term_key()
    elems = []
    for g in basis:
        if g.is_zero:
            continue
        mon, c = g.leading_term()
        vec = _poly_to_vec(g.scale(qinv(c)))
        elems.append(GBElem(vec, (0, mon)))
    # division must honor leading coefficients of the *given* basis; since we
    # normalized to monic above, fold the coefficient into the quotient, which
    # leaves the remainder unchanged.
    rem = reduce_vec(_poly_to_vec(f), elems, key)
    return _vec_to_poly(rem, f.nvars)


def buchberger(generators: list[Polynomial]) -> list[Polynomial]:
    """Canonical reduced Groebner basis of the ideal (generators)."""
    gens = [_poly_to_vec(f) for f in generators if not f.is_zero]
    if not gens:
        return []
    nvars = generators[0].nvars
    gb = module_groebner(gens, allow_product_criterion=True)
    return [_vec_to_poly(b.vec, nvars) for b in gb]


def ideal_member(f: Polynomial, gb_polys: list[Polynomial]) -> bool:
    return normal_form(f, gb_polys).is_zero


# -- matrix-level syzygies --------------------------------------------------


def matrix_from_vecs(vecs: list[MVec], row_twists, nvars: int) -> PolyMatrix:
    """The nonzero vectors as the columns of a PolyMatrix over rows of the
    given twists, sorted by degree (ties in list order); each column's
    degree is polymatrix.column_degree, and PolyMatrix checks the rest."""
    columns = []
    for v in vecs:
        polys = mvec_to_polys(v, len(row_twists), nvars)
        deg = column_degree(polys, row_twists)
        if deg is not None:
            columns.append((deg, polys))
    columns.sort(key=lambda dc: dc[0])
    return PolyMatrix.from_columns(
        nvars, row_twists, [p for _, p in columns], [d for d, _ in columns]
    )


def syzygy_basis(m: PolyMatrix) -> PolyMatrix:
    """First syzygy matrix of the columns of m.

    Returns s with row twists = column twists of m, columns generating
    {v : m v = 0}; the product m * s is checked to vanish identically.
    """
    gens = [mvec_from_polys(m.column(c)) for c in range(m.cols)]
    syz = syzygy_module(gens, m.nvars) if m.cols else []
    out = matrix_from_vecs(syz, m.col_twists, m.nvars)
    if not (m * out).is_zero:
        raise AssertionError("syzygy certification failed: m * syz != 0")
    return out
