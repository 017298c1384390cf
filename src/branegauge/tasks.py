"""Task execution over a parsed manifest.

Each task runs independently; a failure is captured in its report and later
tasks still execute.  Statuses: ok, false (a verified claim came back
negative), finding (a structured mathematical finding), error (structural).
"""

from __future__ import annotations

from .complexes import (
    ComplexMap,
    _WindowRanks,
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
)
from .projective import (
    generator,
    loci_disjoint,
    sheaf_cohomology_dim,
    sheaf_hom_dim,
)
from .reports import TaskReport, fmt_bool, fmt_int_list, fmt_str_list


class RunContext:
    """What every handler of one run shares.

    `cache` is the run's one memo dict, keyed by namespaced tuples such as
    ("sheaf_hom", source, target), ("hom_pair", n, i, j) and the duality
    numbers ("sheaf_h", module), which the cech tasks and the Atiyah
    class's Euler certificate share.  run_tasks creates it and drops it
    when the run ends; the lem1-check, gauge-bound, sheaf-hom, cech,
    atiyah and hom-complex (oracle = sheaf) handlers pass it down
    explicitly.  Beside each ("sheaf_hom", source, target) int sits
    ("hom_h0", H), h^0 of the sheaf of the Hom module H that
    modules.hom_module presents (Hom(F0, target) itself when the source's
    relations act on the target by zero), so pairs with one Hom module
    share one resolution.  Values are ints (every Hom-side entry) and
    tuples of ints (duality numbers), never a module, a complex, a tracker
    or a window.  A failed check stores no verdict.  Two
    other memos sit outside it: the process-wide tables
    polynomials.monomials_of_degree and linalg._cover_index (which refuses
    a window past linalg.WINDOW_CAP coordinates before listing it), and the
    per-instance relation basis and pruned relations of a module and
    cokernel of a map (modules), which the manifest's modules and maps keep
    for the whole run.  Mutable; equal by its fields.
    """

    __slots__ = ("manifest", "max_degree", "cache")

    def __init__(self, manifest: Manifest, max_degree: int,
                 cache: dict | None = None):
        self.manifest = manifest
        self.max_degree = max_degree
        self.cache = {} if cache is None else cache

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)


def run_tasks(m: Manifest, max_degree: int = 5) -> list:
    """Execute every task in manifest order; one report per task."""
    ctx = RunContext(manifest=m, max_degree=max_degree)
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


def _twists_lines(cx, label="term"):
    out = []
    for i in cx.window():
        out.append((f"{label} {i}", fmt_int_list(cx.term(i).cover_twists)))
    return out


def _complex_map_from_task(task: TaskDef, ctx: RunContext):
    src, tgt = task.args["source"], task.args["target"]
    nv = ctx.manifest.space.nvars
    levels = {}
    for key, cols in sorted(task.matrices.items()):
        if key == "matrix":
            continue
        _, i = key
        a, b = src.term(i), tgt.term(i)
        mat = _columns_for_map(nv, b.cover_twists, a.cover_twists, cols,
                               f"level {i}", task.matrix_lines[key])
        levels[i] = GradedMap(a, b, mat, check=True)
    return ComplexMap(src, tgt, levels, check=True)


# -- handlers ---------------------------------------------------------------


def _run_resolve(task, ctx):
    res = free_resolution(task.args["module"], task.args.get("max-length"))
    payload = [("length", str(res.length)),
               ("free 0", fmt_int_list(res.base_twists))]
    for k, step in enumerate(res.steps, start=1):
        payload.append((f"free {k}", fmt_int_list(step.col_twists)))
    return "ok", payload


def _run_shift(task, ctx):
    shifted = shift(task.args["complex"], task.args["k"])
    payload = [("window", f"{shifted.lo}..{shifted.hi}")]
    payload.extend(_twists_lines(shifted))
    return "ok", payload


def _run_cone(task, ctx):
    h = _complex_map_from_task(task, ctx)
    con = cone(h)
    payload = [("window", f"{con.lo}..{con.hi}")]
    payload.extend(_twists_lines(con))
    w = _WindowRanks(0, 0)
    for i in con.window():
        payload.append((f"h^{i} at degree 0", str(w.h_dims(con, i)[0])))
    return "ok", payload


def _run_hom_complex(task, ctx):
    b, c = task.args["source"], task.args["target"]
    if task.args.get("oracle") == "sheaf":
        rep = hom_complex(
            b, c, hom_dim=lambda f, g: sheaf_hom_dim(f, g, ctx.cache))
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
    src, tgt = task.args["source"], task.args["target"]
    mat = _columns_for_map(ctx.manifest.space.nvars, tgt.cover_twists,
                           src.cover_twists, task.matrices["matrix"], "matrix",
                           task.matrix_lines["matrix"])
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
    a = generator(task.args["i"], space).locus
    b = generator(task.args["j"], space).locus
    verdict = loci_disjoint(a, b)
    return ("ok" if verdict else "false"), [("disjoint", fmt_bool(verdict))]


def _run_sheaf_hom(task, ctx):
    dim = sheaf_hom_dim(task.args["source"], task.args["target"], ctx.cache)
    return "ok", [("dim", str(dim))]


def _run_cech(task, ctx):
    dim = sheaf_cohomology_dim(task.args["module"], task.args["i"], ctx.cache)
    return "ok", [("dim", str(dim))]


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
    coord = atiyah_class_line_bundle(task.args["a"], space, ctx.cache)
    return "ok", [
        ("class-coordinate", str(coord)),
        ("connection-exists", fmt_bool(coord == 0)),
    ]


def _run_gauge_bound(task, ctx):
    m = ctx.manifest
    name = task.params["complex"][0]
    decomposition = m.complex_layout[name]["generators"]
    brane_id = task.args.get("brane-id", name)
    rep = gauge_field_count_bound(task.args["complex"], decomposition, m.space,
                                  brane_id=brane_id, cache=ctx.cache)
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
    gens = annihilator(task.args["module"])
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
