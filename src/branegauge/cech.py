"""The chart sets of Cech cochains on the standard affine cover of P^n.

A p-cochain lives on the (p+1)-subsets of the charts U_0..U_n, in
lexicographic order; its entries are Laurent sections (charts, generator,
exponents).  The Cech differential sends the entry on a chart set S to each
chart set S + {j}, with the sign (-1)^(position of j).  The Atiyah class
(gauge.py) is such a cochain, certified by the Euler sequence, so no
truncated window is built here.
"""

from __future__ import annotations

from itertools import combinations


def chart_subsets(nvars: int, p: int) -> list[tuple[int, ...]]:
    """Sorted (p+1)-subsets of the chart indices, in lexicographic order."""
    return list(combinations(range(nvars), p + 1))


def _cofaces(charts: tuple[int, ...], nvars: int):
    """The incidence rule of the Cech differential: each chart set one
    chart j bigger, with the sign (-1)^(position of j), and j."""
    for j in range(nvars):
        if j not in charts:
            bigger = tuple(sorted(charts + (j,)))
            yield bigger, (-1) ** bigger.index(j), j
