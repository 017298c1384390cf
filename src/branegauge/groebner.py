"""Groebner bases and syzygies for submodules of free graded modules.

Elements of a free module R^m are sparse vectors {(row, monomial): coeff}
(linalg.MVec), the form in which PolyMatrix stores its columns, so a
matrix's columns are the engine's generators as they stand.  There is one
module order, term-over-position: monomials compare by grevlex
(polynomials.grevlex_key), ties broken by smaller row index first.  For
homogeneous input the whole computation stays homogeneous, so no degree
truncation is ever needed.

Buchberger runs with the normal selection strategy (smallest pair lcm first,
ties by index) and the chain criterion; the classical coprime (product)
criterion is additionally applied when every generator lies in one row,
where it is valid.  Output
bases are reduced: interreduced, monic, sorted by leading term, hence
canonical.

Each basis tracks its elements over the input generators, keyed by
position; `syzygy_module`, `syzygy_basis` and `lift_through` take it from
the caller (modules.GradedModule.relation_gb) rather than build their own.
Schreyer syzygies and lifts reach the generators through those
representations.  `syzygy_basis` checks m * syz = 0 exactly; a failed
check raises CertificateError.
"""

from __future__ import annotations

import heapq

from .errors import CertificateError
from .linalg import MVec, _mvec_axpy, vec_axpy
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
    """A monic basis vector with cached lead and its representation.

    rep expresses the element over the original generators:
    vec = sum rep[(k, m)] * x^m * gens[k].
    """

    __slots__ = ("vec", "lead", "rep")

    def __init__(self, vec: MVec, lead, rep: MVec):
        self.vec = vec
        self.lead = lead  # (row, monomial), coefficient 1
        self.rep = rep


def _make_elem(vec: MVec, key, rep: MVec) -> GBElem:
    lead = max(vec, key=key)
    lc = vec[lead]
    if lc != 1:
        inv = qinv(lc)
        vec = mvec_scale(vec, inv)
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

    Mutates v and returns the remainder; against an empty basis v is its
    own remainder and is returned as it is.  If `quotients` is supplied it
    gains {(k, m): c} with  original = sum c * x^m * basis[k].vec +
    remainder.  If `rep` is supplied it is updated so the remainder
    satisfies  remainder = sum rep * gens.
    """
    if not basis:
        return v
    rem: MVec = {}
    while v:
        lt = max(v, key=key)
        row, mon = lt
        for k, b in enumerate(basis):
            brow, bmon = b.lead
            if brow == row and monomial_divides(bmon, mon):
                c = v[lt]
                shift = monomial_div(mon, bmon)
                _mvec_axpy(v, -c, shift, b.vec)
                if quotients is not None:
                    qk = (k, shift)
                    s = qnorm(quotients.get(qk, 0) + c)
                    if s:
                        quotients[qk] = s
                    else:
                        quotients.pop(qk, None)
                if rep is not None:
                    _mvec_axpy(rep, -c, shift, b.rep)
                break
        else:
            rem[lt] = v.pop(lt)
    return rem


def module_groebner(gens: list[MVec]) -> list[GBElem]:
    """Reduced Groebner basis of the submodule generated by gens.

    Zero generators are skipped.  Each output element carries its
    representation over the input generators, keyed by their positions in
    gens (a zero generator's index never appears).  The product criterion
    applies when every generator lies in one row, where the input is an
    ideal.
    """
    product_criterion = len({r for g in gens for r, _ in g}) <= 1
    key = _term_key()
    basis: list[GBElem] = []
    for i, g in enumerate(gens):
        if not g:
            continue
        rep = {(i, (0,) * len(next(iter(g))[1])): 1}
        basis.append(_make_elem(dict(g), key, rep))

    pairs: list = []
    # pairs already treated, as ordered (i, j) with i < j, the way push_pairs
    # pushes them
    done: set[tuple[int, int]] = set()

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
        if (i, j) in done:
            continue
        done.add((i, j))
        irow, imon = basis[i].lead
        _, jmon = basis[j].lead
        if product_criterion and monomial_mul(imon, jmon) == lcm:
            continue
        skip = False
        for k, b in enumerate(basis):
            if k == i or k == j or b.lead[0] != irow:
                continue
            if (
                monomial_divides(b.lead[1], lcm)
                and ((i, k) if i < k else (k, i)) in done
                and ((j, k) if j < k else (k, j)) in done
            ):
                skip = True
                break
        if skip:
            continue
        u: MVec = {}
        _mvec_axpy(u, 1, monomial_div(lcm, imon), basis[i].vec)
        _mvec_axpy(u, -1, monomial_div(lcm, jmon), basis[j].vec)
        rep: MVec = {}
        _mvec_axpy(rep, 1, monomial_div(lcm, imon), basis[i].rep)
        _mvec_axpy(rep, -1, monomial_div(lcm, jmon), basis[j].rep)
        rem = reduce_vec(u, basis, key, rep=rep)
        if rem:
            basis.append(_make_elem(rem, key, rep))
            push_pairs(len(basis) - 1)

    return _reduce_basis(basis, key)


def _reduce_basis(basis: list[GBElem], key) -> list[GBElem]:
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
        rep = dict(b.rep)
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
        _mvec_axpy(out, c, mon, elems[k].rep)
    return out


def _lift(target: MVec, gb: list[GBElem], key) -> MVec | None:
    """Coordinates of target over the generators of the tracked basis gb
    (reduce with quotients, expand the reps), or None if it is outside."""
    quotients: MVec = {}
    if reduce_vec(dict(target), gb, key, quotients=quotients):
        return None
    return _apply_rep(quotients, gb)


def syzygy_module(gens: list[MVec], gb: list[GBElem], nvars: int) -> list[MVec]:
    """Generators of {a : sum a_k gens_k = 0}, indexed by position in gens,
    from gb, the tracked basis of gens: the unit syzygies of the zero
    generators, then the Schreyer syzygies of gb (from the quotients of
    each S-vector, which must reduce to zero) through the reps, then
    e_k - (the lift of gens_k) for each nonzero k."""
    zero_mon: Monomial = (0,) * nvars
    result: list[MVec] = [{(k, zero_mon): 1} for k, g in enumerate(gens) if not g]
    key = _term_key()
    for j, (jrow, jmon) in enumerate(e.lead for e in gb):
        for i in range(j):
            irow, imon = gb[i].lead
            if irow != jrow:
                continue
            lcm = monomial_lcm(imon, jmon)
            a, b = monomial_div(lcm, imon), monomial_div(lcm, jmon)
            u: MVec = {}
            _mvec_axpy(u, 1, a, gb[i].vec)
            _mvec_axpy(u, -1, b, gb[j].vec)
            quotients: MVec = {}
            if reduce_vec(u, gb, key, quotients=quotients):
                raise CertificateError("S-vector of a Groebner basis did not reduce to zero")
            syz: MVec = {(i, a): 1, (j, b): -1}
            vec_axpy(syz, -1, quotients)
            result.append(_apply_rep(syz, gb))
    for k, g in enumerate(gens):
        if not g:
            continue
        back = _lift(g, gb, key)
        if back is None:
            raise CertificateError("generator does not reduce to zero against its own basis")
        vec = {(k, zero_mon): 1}
        vec_axpy(vec, -1, back)
        result.append(vec)
    return [v for v in result if v]


def lift_through(gb: list[GBElem], targets) -> list[MVec | None]:
    """For each target, coordinates a with sum a_k columns_k = target over
    the columns whose tracked basis is gb, or None if there is no
    solution."""
    key = _term_key()
    return [_lift(t, gb, key) for t in targets]


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
    # monic divisors leave the remainder of the given ones
    elems = [_make_elem(_poly_to_vec(g), key, {}) for g in basis if not g.is_zero]
    rem = reduce_vec(_poly_to_vec(f), elems, key)
    return _vec_to_poly(rem, f.nvars)


def buchberger(generators: list[Polynomial]) -> list[Polynomial]:
    """Canonical reduced Groebner basis of the ideal (generators)."""
    gens = [_poly_to_vec(f) for f in generators if not f.is_zero]
    if not gens:
        return []
    nvars = generators[0].nvars
    gb = module_groebner(gens)
    return [_vec_to_poly(b.vec, nvars) for b in gb]


def ideal_member(f: Polynomial, gb_polys: list[Polynomial]) -> bool:
    return normal_form(f, gb_polys).is_zero


# -- matrix-level syzygies --------------------------------------------------


def syzygy_basis(m: PolyMatrix, gb: list[GBElem]) -> PolyMatrix:
    """First syzygy matrix of the columns of m, whose tracked basis is gb.

    Returns s with row twists = column twists of m, columns generating
    {v : m v = 0} sorted by degree (ties in the order syzygy_module gives
    them); the product m * s is checked to vanish identically.
    """
    syz = syzygy_module(list(m.vecs), gb, m.nvars) if m.cols else []
    cols = sorted(((column_degree(v, m.col_twists), v) for v in syz),
                  key=lambda dv: dv[0])
    out = PolyMatrix(m.nvars, m.col_twists, [d for d, _ in cols],
                     [v for _, v in cols])
    if not (m * out).is_zero:
        raise CertificateError("syzygy certification failed: m * syz != 0")
    return out
