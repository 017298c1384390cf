"""The benchmark's workloads: manifest text and a correctness oracle each.

Every workload is a single `brane-gauge run` manifest.  The oracles read the
rendered report only, so they hold whatever the engine does internally, and
they never look at timings.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

# -- report parsing -----------------------------------------------------------


def report_blocks(text: str) -> tuple[dict, list]:
    """Split a report into its header and one ordered dict per task block."""
    chunks = text.split("\n\n")
    header = dict(_pairs(chunks[0]))
    return header, [dict(_pairs(c)) for c in chunks[1:] if c.strip()]


def _pairs(chunk: str):
    for line in chunk.splitlines():
        key, _, value = line.partition(": ")
        yield key, value


def _expect(ok: bool, what: str, problems: list) -> None:
    if not ok:
        problems.append(what)


def _check_header(header, blocks, tasks: int, problems: list) -> None:
    _expect(header.get("tasks") == str(tasks) and len(blocks) == tasks,
            f"expected {tasks} task blocks, got {len(blocks)}", problems)


# -- hom-table ---------------------------------------------------------------

HOM_TABLE = """\
[ring]
n = 3

[complex B1]
degrees = 0..0
term 0 = S(1)
generators 0 = [S(1)]

[complex B23]
degrees = -1..0
term -1 = S(2)
term 0 = S(3)
generators -1 = [S(2)]
generators 0 = [S(3)]

[task lem1-check]

[task gauge-bound]
complex = B1

[task gauge-bound]
complex = B23

[task sheaf-hom]
source = S(4)
target = Omega1

[task generators]

[task disjointness]
i = 1
j = 2

[task disjointness]
i = 1
j = 4
"""


def check_hom_table(text: str, manifest: str) -> list:
    header, blocks = report_blocks(text)
    problems: list = []
    _check_header(header, blocks, 7, problems)
    if problems:
        return problems
    lem1 = blocks[0]
    _expect(lem1.get("status") == "finding", "lem1-check is not a finding",
            problems)
    for i in range(1, 5):
        for j in range(1, 5):
            value = lem1.get(f"pair ({i},{j})", "")
            want = "dim=3 " if j == 4 else "dim=0 "
            _expect(value.startswith(want),
                    f"pair ({i},{j}): {value!r}, expected {want.strip()}",
                    problems)
    marked = sum("finding=support-disjoint" in v for v in lem1.values())
    _expect(lem1.get("findings") == "3" and marked == 3,
            "expected exactly 3 support-disjoint findings", problems)
    for b in blocks[1:]:
        _expect(b.get("status") == "ok", f"task {b.get('task')} not ok",
                problems)
    for b in blocks[1:3]:
        _expect(b.get("hom-dim") == "0" and b.get("count") == "at_most_1",
                f"gauge-bound {b.get('complex')}: {b.get('count')}", problems)
    _expect(blocks[3].get("dim") == "0", "sheaf-hom S(4)->Omega1 not 0",
            problems)
    return problems


# -- cech-atiyah -------------------------------------------------------------

ATIYAH_TWISTS = range(-3, 4)
OMEGA1_H = (0, 1, 0, 0)  # h^i(Omega1) on P^3, i = 0..3


def cech_atiyah_manifest(seed: int) -> str:
    out = ["[ring]", "n = 3"]
    for a in ATIYAH_TWISTS:
        out += ["", "[task atiyah]", f"a = {a}"]
    for i in range(len(OMEGA1_H)):
        out += ["", "[task cech]", "module = Omega1", f"i = {i}"]
    return "\n".join(out) + "\n"


def check_cech_atiyah(text: str, manifest: str) -> list:
    header, blocks = report_blocks(text)
    problems: list = []
    _check_header(header, blocks, len(ATIYAH_TWISTS) + len(OMEGA1_H), problems)
    if problems:
        return problems
    for b in blocks:
        _expect(b.get("status") == "ok", f"task {b.get('task')} not ok",
                problems)
    for a, b in zip(ATIYAH_TWISTS, blocks):
        _expect(b.get("class-coordinate") == str(a),
                f"atiyah a={a}: coordinate {b.get('class-coordinate')}",
                problems)
    for i, (h, b) in enumerate(zip(OMEGA1_H, blocks[len(ATIYAH_TWISTS):])):
        _expect(b.get("dim") == str(h),
                f"h^{i}(Omega1) = {b.get('dim')}, expected {h}", problems)
    return problems


# -- complex-batch -----------------------------------------------------------
#
# Two-term complexes F1 -> F0 of free modules on P^2.  The mix of shapes is
# fixed and cycled, and the seed draws only the twists and the polynomials:
# the per-seed cost then varies little, while no two complexes repeat.
# A shape is (rank, column degree offsets, singular); a singular rank-2 map
# has a second column that is a multiple of the first, so it is not
# injective and its cokernel is resolved instead of turned into a triangle.

NV = 3
COMPLEXES = 300
SHAPES = (
    (1, (1,), False),
    (2, (0, 1), True),
    (1, (2,), False),
    (2, (1, 1), True),
    (2, (0, 1), False),
    (2, (1, 2), True),
)


def _monomials(nv: int, d: int):
    if nv == 1:
        return [(d,)]
    return [(k,) + rest for k in range(d, -1, -1)
            for rest in _monomials(nv - 1, d - k)]


def _random_poly(rng, d: int) -> dict:
    """A nonzero homogeneous polynomial of degree d, as {monomial: int}."""
    mons = _monomials(NV, d)
    chosen = rng.sample(mons, min(len(mons), rng.randint(1, 3)))
    return {m: rng.choice((-3, -2, -1, 1, 2, 3, 5)) for m in chosen}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, x in p.items():
        for b, y in q.items():
            m = tuple(i + j for i, j in zip(a, b))
            out[m] = out.get(m, 0) + x * y
    return {m: c for m, c in out.items() if c}


def _poly_sub(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) - c
    return {m: c for m, c in out.items() if c}


def _poly_str(p: dict) -> str:
    if not p:
        return "0"
    parts = []
    for mon in sorted(p, reverse=True):
        c = p[mon]
        factors = [f"x{i}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(mon) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else [])
                        + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _random_complex(rng, shape):
    """(t1, t0, columns) for one two-term complex of the given shape."""
    rank, offsets, singular = shape
    base = rng.randint(-2, 1)
    t0 = [base + rng.randint(0, 1) for _ in range(rank)]
    t1 = [max(t0) + off for off in offsets]
    while True:
        cols = []
        for c in range(rank):
            col = []
            for r in range(rank):
                d = t1[c] - t0[r]
                col.append(_random_poly(rng, d) if d >= 0 else {})
            cols.append(col)
        if singular:
            # second column = (random form of the right degree) * first column
            mult = _random_poly(rng, t1[1] - t1[0])
            cols[1] = [_poly_mul(mult, e) for e in cols[0]]
            return t1, t0, cols
        if rank == 1 or _poly_sub(_poly_mul(cols[0][0], cols[1][1]),
                                  _poly_mul(cols[1][0], cols[0][1])):
            return t1, t0, cols


def _fmt_cols(cols) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(f'"{_poly_str(e)}"' for e in col) + "]"
        for col in cols) + "]"


def _scalar_cols(rank: int, r: int):
    return [[{(0,) * NV: r} if i == j else {} for i in range(rank)]
            for j in range(rank)]


def complex_batch_manifest(seed: int) -> str:
    rng = random.Random(seed)
    out = ["[ring]", f"n = {NV - 1}"]
    seen = set()
    tasks = []
    k = 0
    while k < COMPLEXES:
        shape = SHAPES[k % len(SHAPES)]
        t1, t0, cols = _random_complex(rng, shape)
        sig = (tuple(t1), tuple(t0), _fmt_cols(cols))
        if sig in seen:
            continue
        seen.add(sig)
        rank, _, singular = shape
        src, tgt, cx = f"F{k}s", f"F{k}t", f"K{k}"
        out += ["", f"[module {src}]", f"twists = {t1}",
                "", f"[module {tgt}]", f"twists = {t0}",
                "", f"[complex {cx}]", "degrees = -1..0",
                f"term -1 = {src}", f"term 0 = {tgt}",
                f"map -1 = {_fmt_cols(cols)}"]
        for kind in ("cone", "quasi-iso"):
            r = _fmt_cols(_scalar_cols(rank, rng.choice((-2, -1, 1, 2, 3))))
            tasks += ["", f"[task {kind}]", f"source = {cx}", f"target = {cx}",
                      f"level -1 = {r}", f"level 0 = {r}"]
        tasks += ["", "[task hom-complex]", f"source = {cx}",
                  f"target = {cx}",
                  "", "[task shift]", f"complex = {cx}",
                  f"k = {rng.randint(-2, 2)}"]
        if singular:
            coker = f"C{k}"
            out += ["", f"[module {coker}]", f"twists = {t0}",
                    f"relations = {_fmt_cols(cols)}"]
            tasks += ["", "[task resolve]", f"module = {coker}"]
        else:
            tasks += ["", "[task triangle-from-ses]", f"source = {src}",
                      f"target = {tgt}", f"matrix = {_fmt_cols(cols)}"]
        k += 1
    return "\n".join(out + tasks) + "\n"


def check_complex_batch(text: str, manifest: str) -> list:
    header, blocks = report_blocks(text)
    problems: list = []
    _check_header(header, blocks, manifest.count("[task "), problems)
    if problems:
        return problems
    n = NV - 1
    for b in blocks:
        tag = f"task {b.get('task')} ({b.get('kind')})"
        _expect(b.get("status") == "ok", f"{tag} not ok", problems)
        kind = b.get("kind")
        if kind == "cone":
            hs = [v for key, v in b.items() if key.startswith("h^")]
            _expect(hs and all(v == "0" for v in hs),
                    f"{tag}: cone of an isomorphism has cohomology", problems)
        elif kind == "quasi-iso":
            _expect(b.get("quasi-iso") == "true", f"{tag}: not a quasi-iso",
                    problems)
        elif kind == "hom-complex":
            _expect(b.get("dd-zero") == "true", f"{tag}: d o d != 0",
                    problems)
        elif kind == "triangle-from-ses":
            _expect(b.get("les-ok") == "true", f"{tag}: LES check failed",
                    problems)
        elif kind == "resolve":
            length = b.get("length", "")
            _expect(length.isdigit() and int(length) <= n + 1,
                    f"{tag}: resolution length {length}", problems)
        elif kind == "shift":
            k = int(b.get("k", "0"))
            _expect(b.get("window") == f"{-1 - k}..{-k}",
                    f"{tag}: window {b.get('window')}", problems)
    return problems


# -- the table ---------------------------------------------------------------


class Workload(NamedTuple):
    """A manifest made from the seed, its exit code and its report oracle.

    `check(report, manifest)` lists the problems found; empty when correct.
    Only complex-batch draws its manifest from the seed; the other two are
    fixed, as the paper's computations are.
    """

    name: str
    manifest: Callable[[int], str]
    expected_exit: int
    check: Callable[[str, str], list]


WORKLOADS = {
    w.name: w for w in (
        Workload("hom-table", lambda seed: HOM_TABLE, 1, check_hom_table),
        Workload("cech-atiyah", cech_atiyah_manifest, 0, check_cech_atiyah),
        Workload("complex-batch", complex_batch_manifest, 0,
                 check_complex_batch),
    )
}
