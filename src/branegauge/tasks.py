"""Task execution over a parsed manifest.

Each task runs independently; a failure is captured in its report and later
tasks still execute.  Statuses: ok, false (a verified claim came back
negative), finding (a structured mathematical finding), error (structural).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cech import DEFAULT_CECH_BOUND, cech_cohomology_dim
from .complexes import (
    ComplexMap,
    cohomology_subquotient,
    cone,
    hom_complex,
    is_quasi_iso,
    shift,
    triangle_from_module_ses,
    triangle_les_ok,
)
from .errors import BraneGaugeError, Finding
from .gauge import atiyah_class_line_bundle, gauge_field_count_bound, lem1_table
from .manifest import Manifest, TaskDef, _columns_for_map
from .modules import (
    GradedMap,
    annihilator,
    cokernel_with_projection,
    free_resolution,
    graded_piece_dim,
)
from .projective import generator, loci_disjoint, sheaf_hom_dim
from .reports import TaskReport, fmt_bool, fmt_int_list, fmt_str_list


@dataclass
class RunContext:
    """What every handler of one run shares.

    `cache` is the run's one memo dict, keyed by namespaced tuples such as
    ("saturate", module, floor) or ("hom_pair", n, i, j).  run_tasks creates
    it and drops it when the run ends; the lem1-check, gauge-bound and
    sheaf-hom handlers pass it down explicitly.  Nothing is cached globally.
    """

    manifest: Manifest
    cech_bound: int
    max_degree: int
    cache: dict = field(default_factory=dict)


def run_tasks(m: Manifest, cech_bound: int | None = None,
              max_degree: int = 5) -> list:
    """Execute every task in manifest order; one report per task."""
    ctx = RunContext(
        manifest=m,
        cech_bound=cech_bound if cech_bound is not None else DEFAULT_CECH_BOUND,
        max_degree=max_degree,
    )
    reports = []
    for task in m.tasks:
        handler = _HANDLERS[task.kind]
        payload = [(k, _echo(v)) for k, (v, _) in sorted(task.params.items())]
        try:
            status, result = handler(task, ctx)
            payload.extend(result)
        except Finding as f:
            status = "finding"
            payload.append(("message", str(f)))
            for k in sorted(f.details):
                payload.append((f"detail {k}", _echo(f.details[k])))
        except BraneGaugeError as e:
            status = "error"
            payload.append(("message", str(e)))
        reports.append(TaskReport(task.index, task.kind, status, payload))
    return reports


def _echo(v) -> str:
    if isinstance(v, bool):
        return fmt_bool(v)
    if isinstance(v, list):
        return fmt_int_list(v)
    return str(v)


def _param(task: TaskDef, key: str, default=None):
    if key in task.params:
        return task.params[key][0]
    return default


def _twists_lines(cx, label="term"):
    out = []
    for i in cx.window():
        out.append((f"{label} {i}", fmt_int_list(cx.term(i).cover_twists)))
    return out


def _complex_map_from_task(task: TaskDef, ctx: RunContext):
    m = ctx.manifest
    src = m.complexes[_param(task, "source")]
    tgt = m.complexes[_param(task, "target")]
    nv = m.space.nvars
    levels = {}
    for key, cols in sorted(task.matrices.items()):
        if key == "matrix":
            continue
        _, i = key
        a, b = src.term(i), tgt.term(i)
        mat = _columns_for_map(nv, b.cover_twists, a.cover_twists, cols,
                               f"level {i}", task.line)
        levels[i] = GradedMap(a, b, mat, check=True)
    return ComplexMap(src, tgt, levels, check=True)


# -- handlers ---------------------------------------------------------------


def _run_resolve(task, ctx):
    mod = ctx.manifest.resolve_module(_param(task, "module"), task.line)
    res = free_resolution(mod, _param(task, "max-length"))
    payload = [("length", str(res.length)),
               ("free 0", fmt_int_list(res.base_twists))]
    for k, step in enumerate(res.steps, start=1):
        payload.append((f"free {k}", fmt_int_list(step.col_twists)))
    return "ok", payload


def _run_shift(task, ctx):
    cx = ctx.manifest.complexes[_param(task, "complex")]
    shifted = shift(cx, _param(task, "k"))
    payload = [("window", f"{shifted.lo}..{shifted.hi}")]
    payload.extend(_twists_lines(shifted))
    return "ok", payload


def _run_cone(task, ctx):
    h = _complex_map_from_task(task, ctx)
    con = cone(h)
    payload = [("window", f"{con.lo}..{con.hi}")]
    payload.extend(_twists_lines(con))
    for i in con.window():
        sq = cohomology_subquotient(con, i)
        payload.append((f"h^{i} at degree 0",
                        str(graded_piece_dim(sq.module, 0))))
    return "ok", payload


def _run_hom_complex(task, ctx):
    m = ctx.manifest
    b = m.complexes[_param(task, "source")]
    c = m.complexes[_param(task, "target")]
    oracle = _param(task, "oracle", "module")
    if oracle == "sheaf":
        rep = hom_complex(b, c, hom_dim=sheaf_hom_dim)
    else:
        rep = hom_complex(b, c)
    payload = [("window", f"{rep.lo}..{rep.hi}")]
    for k, d in enumerate(rep.dims):
        payload.append((f"dim {rep.lo + k}", str(d)))
    payload.append(("zero", fmt_bool(rep.is_zero)))
    if rep.dd_zero is not None:
        payload.append(("dd-zero", fmt_bool(rep.dd_zero)))
    return "ok", payload


def _run_triangle_from_ses(task, ctx):
    m = ctx.manifest
    src = m.resolve_module(_param(task, "source"), task.line)
    tgt = m.resolve_module(_param(task, "target"), task.line)
    cols = task.matrices.get("matrix")
    if cols is None:
        raise BraneGaugeError("triangle-from-ses needs matrix = [[..]]")
    mat = _columns_for_map(m.space.nvars, tgt.cover_twists, src.cover_twists,
                           cols, "matrix", task.line)
    f = GradedMap(src, tgt, mat, check=True)
    _, proj = cokernel_with_projection(f)
    tri = triangle_from_module_ses(f, proj)
    d = ctx.max_degree
    ok = triangle_les_ok(tri, -d, d)
    payload = [("cone-window", f"{tri.c.lo}..{tri.c.hi}")]
    payload.extend((f"cone-term {i}", fmt_int_list(tri.c.term(i).cover_twists))
                   for i in tri.c.window())
    payload.append(("les-window", f"{-d}..{d}"))
    payload.append(("les-ok", fmt_bool(ok)))
    return ("ok" if ok else "finding"), payload


def _run_generators(task, ctx):
    space = ctx.manifest.space
    payload = [("count", str(space.n + 1))]
    for k in range(1, space.n + 2):
        g = generator(k, space)
        payload.append((
            f"S({k})",
            f"twists={fmt_int_list(g.module.cover_twists)} "
            f"zeros={fmt_int_list(sorted(g.locus.zero_indices))} "
            f"nonzero={g.locus.nonzero_index}",
        ))
    return "ok", payload


def _run_disjointness(task, ctx):
    space = ctx.manifest.space
    a = generator(_param(task, "i"), space).locus
    b = generator(_param(task, "j"), space).locus
    verdict = loci_disjoint(a, b)
    return ("ok" if verdict else "false"), [("disjoint", fmt_bool(verdict))]


def _run_sheaf_hom(task, ctx):
    m = ctx.manifest
    src = m.resolve_module(_param(task, "source"), task.line)
    tgt = m.resolve_module(_param(task, "target"), task.line)
    return "ok", [("dim", str(sheaf_hom_dim(src, tgt, ctx.cache)))]


def _run_cech(task, ctx):
    mod = ctx.manifest.resolve_module(_param(task, "module"), task.line)
    i = _param(task, "i")
    b = ctx.cech_bound
    dim = cech_cohomology_dim(mod, i, b)
    return "ok", [("bound", str(b)), ("recheck", str(b + 1)),
                  ("stable", "true"), ("dim", str(dim))]


def _run_lem1_check(task, ctx):
    space = ctx.manifest.space
    table, findings = lem1_table(space, ctx.cache)
    found = {(f["source_generator"], f["target_generator"]): f["hom_dim"]
             for f in findings}
    nonzero = sum(1 for d in table.values() if d)
    payload = [("pairs", str(len(table)))]
    for (i, j), d in table.items():
        if d is None:
            value = (f"dim={found[(i, j)]} vanishes=false "
                     f"support-disjoint=true finding=support-disjoint")
        else:
            disjoint = loci_disjoint(
                generator(i, space).locus, generator(j, space).locus
            )
            value = (f"dim={d} vanishes={fmt_bool(d == 0)} "
                     f"support-disjoint={fmt_bool(disjoint)}")
        payload.append((f"pair ({i},{j})", value))
    payload.append(("all-vanish", fmt_bool(not findings and nonzero == 0)))
    payload.append(("findings", str(len(findings))))
    if findings:
        return "finding", payload
    return ("ok" if nonzero == 0 else "false"), payload


def _run_atiyah(task, ctx):
    space = ctx.manifest.space
    a = _param(task, "a")
    coord = atiyah_class_line_bundle(a, space, ctx.cech_bound)
    return "ok", [
        ("bound", str(ctx.cech_bound)),
        ("recheck", str(ctx.cech_bound + 1)),
        ("class-coordinate", str(coord)),
        ("connection-exists", fmt_bool(coord == 0)),
    ]


def _run_gauge_bound(task, ctx):
    m = ctx.manifest
    name = _param(task, "complex")
    cx = m.complexes[name]
    decomposition = m.complex_layout[name]["generators"]
    brane_id = _param(task, "brane-id", name)
    rep = gauge_field_count_bound(cx, decomposition, m.space,
                                  brane_id=brane_id, bound=ctx.cech_bound,
                                  cache=ctx.cache)
    payload = [
        ("brane-id", rep.brane_id),
        ("hom-dim", str(rep.hom_dim)),
        ("atiyah-status", rep.atiyah_status),
        ("count", rep.count),
    ]
    return ("ok" if rep.count != "no_bound" else "false"), payload


def _run_quasi_iso(task, ctx):
    h = _complex_map_from_task(task, ctx)
    verdict = is_quasi_iso(h)
    return ("ok" if verdict else "false"), [("quasi-iso", fmt_bool(verdict))]


def _run_annihilator(task, ctx):
    mod = ctx.manifest.resolve_module(_param(task, "module"), task.line)
    gens = annihilator(mod)
    return "ok", [
        ("count", str(len(gens))),
        ("generators", fmt_str_list(str(g) for g in gens)),
    ]


_HANDLERS = {
    "resolve": _run_resolve,
    "shift": _run_shift,
    "cone": _run_cone,
    "hom-complex": _run_hom_complex,
    "triangle-from-ses": _run_triangle_from_ses,
    "generators": _run_generators,
    "disjointness": _run_disjointness,
    "sheaf-hom": _run_sheaf_hom,
    "cech": _run_cech,
    "lem1-check": _run_lem1_check,
    "atiyah": _run_atiyah,
    "gauge-bound": _run_gauge_bound,
    "quasi-iso": _run_quasi_iso,
    "annihilator": _run_annihilator,
}
