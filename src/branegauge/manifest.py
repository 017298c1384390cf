"""Manifest parsing and printing.

A manifest is a single UTF-8 file of named blocks:

    [ring]
    n = 2

    [module M]
    twists = [0, -1]
    relations = [["x0", "0"], ["x1^2", "x2"]]

    [complex C]
    degrees = 0..1
    term 0 = M
    term 1 = O(1)
    map 0 = [["x0"]]
    generators 0 = [S(1)]

    [task resolve]
    module = M

Relations and map matrices are column-major: each inner list is the image of
one source generator, entries running down the target rows.  Module
references resolve against declared names first, then the built-ins O(a),
Omega1 and S(k).  Parsing is eager: every polynomial, twist and reference is
validated up front with a line diagnostic, and complexes are checked to
square to zero.  Each task parameter has a type in _TASK_PARAMS and is
checked once, into TaskDef.args (references come back resolved); task
matrices are parsed when the task runs.
"""

from __future__ import annotations

import re

from .complexes import BoundedComplex
from .errors import BraneGaugeError, ManifestError
from .modules import GradedMap, GradedModule
from .polymatrix import PolyMatrix, column_degree, column_vec
from .polynomials import Polynomial, parse_polynomial
from .projective import (
    ProjectiveSpace,
    parse_component,
    parse_sheaf_name,
    sheaf_module,
)
from .reports import fmt_int_list

_BLOCK_RE = re.compile(r"^\[([a-z-]+)(?:\s+([A-Za-z_][\w.()-]*))?\]$")
_KEY_RE = re.compile(r"^([a-z][a-z-]*)(?:\s+(-?\d+))?\s*=\s*(.*)$")

# per task kind: its required and its optional parameters, each mapping a
# name to the parameter's type, and the matrix keys it takes: "matrix" (one
# required matrix = ..), "level N" (optional per-degree level N = .. keys)
# or None (no matrix key at all).  The types (_argument checks each):
# module (a declared or built-in module), complex (a declared complex),
# int, generator (an int in 1..n+1), oracle ('module' or 'sheaf') and text
# (any value)
_TASK_PARAMS = {
    "resolve": ({"module": "module"}, {"max-length": "int"}, None),
    "shift": ({"complex": "complex", "k": "int"}, {}, None),
    "cone": ({"source": "complex", "target": "complex"}, {}, "level N"),
    "hom-complex": ({"source": "complex", "target": "complex"},
                    {"oracle": "oracle"}, None),
    "triangle-from-ses": ({"source": "module", "target": "module"}, {},
                          "matrix"),
    "generators": ({}, {}, None),
    "disjointness": ({"i": "generator", "j": "generator"}, {}, None),
    "sheaf-hom": ({"source": "module", "target": "module"}, {}, None),
    "cech": ({"module": "module", "i": "int"}, {}, None),
    "lem1-check": ({}, {}, None),
    "atiyah": ({"a": "int"}, {}, None),
    "gauge-bound": ({"complex": "complex"}, {"brane-id": "text"}, None),
    "quasi-iso": ({"source": "complex", "target": "complex"}, {}, "level N"),
    "annihilator": ({"module": "module"}, {}, None),
}
TASK_KINDS = tuple(_TASK_PARAMS)


class TaskDef:
    """One task block: its kind, 1-based index and line, and what the parser
    read of it.  Mutable, with no instance dict (one per task); equal by
    its fields."""

    __slots__ = ("kind", "index", "line", "params", "args", "matrices",
                 "matrix_lines")

    def __init__(self, kind: str, index: int, line: int,
                 params: dict | None = None, args: dict | None = None,
                 matrices: dict | None = None,
                 matrix_lines: dict | None = None):
        self.kind = kind
        self.index = index
        self.line = line
        self.params = {} if params is None else params  # name -> (raw value, line)
        self.args = {} if args is None else args  # name -> checked value
        # "matrix" or ("level", i) -> columns, and the line of each key
        self.matrices = {} if matrices is None else matrices
        self.matrix_lines = {} if matrix_lines is None else matrix_lines

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)


class Manifest:
    """A parsed manifest: the ring, its named modules and complexes with
    their declared layout, and the tasks in order.  Equal by its fields."""

    __slots__ = ("n", "space", "modules", "complexes", "complex_layout",
                 "tasks")

    def __init__(self, n: int, space: ProjectiveSpace, modules: dict,
                 complexes: dict, complex_layout: dict, tasks: list):
        self.n = n
        self.space = space
        self.modules = modules  # name -> GradedModule
        self.complexes = complexes  # name -> BoundedComplex
        self.complex_layout = complex_layout  # name -> degrees/terms/maps/generators
        self.tasks = tasks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def resolve_module(self, ref: str, line: int | None = None) -> GradedModule:
        return resolve_module_ref(ref, self.space, self.modules, line)


def resolve_module_ref(ref: str, space: ProjectiveSpace, named: dict,
                       line: int | None = None) -> GradedModule:
    """A module reference: declared name or built-in O(a) / Omega1 / S(k)."""
    if ref in named:
        return named[ref]
    sheaf = parse_sheaf_name(ref)
    if sheaf is not None:
        try:
            return sheaf_module(sheaf, space)
        except BraneGaugeError as e:
            raise ManifestError(f"{ref}: {e}", line=line) from e
    raise ManifestError(
        f"unresolved module reference {ref!r}; expected a declared module, "
        "O(a), Omega1 or S(k)", line=line,
    )


# -- value scanner ----------------------------------------------------------


def _parse_value(text: str, line: int):
    """Parse a right-hand side: int, a..b range, bare token, quoted string,
    or (nested) list.  Returns the value and rejects trailing junk."""
    value, pos = _scan_value(text, 0, line)
    if text[pos:].strip():
        raise ManifestError(
            f"trailing characters after value: {text[pos:].strip()!r}",
            line=line, column=pos + 1,
        )
    return value


def _scan_value(text: str, pos: int, line: int):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        raise ManifestError("missing value", line=line, column=pos + 1)
    ch = text[pos]
    if ch == "[":
        items = []
        pos += 1
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == "]":
                return items, pos + 1
            item, pos = _scan_value(text, pos, line)
            items.append(item)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            if pos < len(text) and text[pos] == "]":
                return items, pos + 1
            raise ManifestError(
                "expected ',' or ']' in list", line=line, column=pos + 1
            )
    if ch == '"':
        end = text.find('"', pos + 1)
        if end < 0:
            raise ManifestError("unterminated string", line=line, column=pos + 1)
        return text[pos + 1:end], end + 1
    # bare token: runs to the next comma or bracket, may contain spaces
    end = pos
    while end < len(text) and text[end] not in ",]\"[":
        end += 1
    token = text[pos:end].strip()
    if not token:
        raise ManifestError("empty value item", line=line, column=pos + 1)
    if re.fullmatch(r"-?\d+", token):
        return int(token), end
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", token)
    if m:
        return ("range", int(m.group(1)), int(m.group(2))), end
    return token, end


# -- the parser -------------------------------------------------------------


def _strip_comment(line: str) -> str:
    """line up to its first '#' outside double quotes, right-stripped."""
    if "#" not in line:
        return line.rstrip()
    quoted = False
    for k, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:k].rstrip()
    return line.rstrip()


def _int_value(value, key: str, line: int) -> int:
    if not isinstance(value, int):
        raise ManifestError(f"{key} expects an integer", line=line)
    return value


def _string_list(value, key: str, line: int) -> list:
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ManifestError(f"{key} expects a list of names", line=line)
    return value


def _matrix_value(value, key: str, line: int) -> list:
    if (not isinstance(value, list)
            or any(not isinstance(col, list) for col in value)):
        raise ManifestError(
            f"{key} expects a list of columns (lists of polynomial strings)",
            line=line,
        )
    cols = []
    for col in value:
        entries = []
        for e in col:
            if isinstance(e, int):
                e = str(e)
            if not isinstance(e, str):
                raise ManifestError(
                    f"{key} entries must be polynomial strings", line=line
                )
            entries.append(e)
        cols.append(entries)
    return cols


def _poly(text: str, nv: int, line: int) -> Polynomial:
    try:
        return parse_polynomial(text, nv)
    except BraneGaugeError as e:
        raise ManifestError(f"bad polynomial {text!r}: {e}", line=line) from e


def _read_columns(nv: int, row_twists, cols, key: str, line: int):
    """Column-major string data, one column at a time: each is checked to
    have one entry per row and yielded as a list of polynomials."""
    for ci, col in enumerate(cols):
        if len(col) != len(row_twists):
            raise ManifestError(
                f"{key}: column {ci} has {len(col)} entries, expected "
                f"{len(row_twists)}", line=line,
            )
        yield [_poly(e, nv, line) for e in col]


def _columns_matrix(nv: int, row_twists, cols, key: str, line: int) -> PolyMatrix:
    """Column-major string data to a PolyMatrix, inferring column twists
    from the first nonzero entry of each column."""
    vecs = []
    col_twists = []
    for ci, col in enumerate(_read_columns(nv, row_twists, cols, key, line)):
        vec = column_vec(col)
        try:
            tw = column_degree(vec, row_twists)
        except BraneGaugeError as e:
            raise ManifestError(f"{key}: column {ci}: {e}", line=line) from e
        if tw is None:
            raise ManifestError(
                f"{key}: column {ci} is identically zero; its degree cannot "
                "be inferred", line=line,
            )
        vecs.append(vec)
        col_twists.append(tw)
    try:
        return PolyMatrix(nv, tuple(row_twists), col_twists, vecs)
    except BraneGaugeError as e:
        raise ManifestError(f"{key}: {e}", line=line) from e


def parse_manifest(text) -> Manifest:
    """Parse manifest text (str or UTF-8 bytes) into a validated Manifest."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ManifestError(
                f"not valid UTF-8: {e.reason} at byte {e.start}",
                line=text.count(b"\n", 0, e.start) + 1,
            ) from None
    n = None
    space = None
    modules: dict = {}
    complex_blocks: list = []
    tasks: list = []
    block = None  # ("ring"|"module"|"complex"|"task", name, line, data)

    def close_block():
        nonlocal n, space
        if block is None:
            return
        kind, name, bline, data = block
        if kind == "ring":
            if "n" not in data:
                raise ManifestError("[ring] needs n = <dimension>", line=bline)
            if n is not None:
                raise ManifestError("duplicate [ring] block", line=bline)
            n = _int_value(data["n"][0], "n", data["n"][1])
            try:
                space = ProjectiveSpace(n)
            except BraneGaugeError as e:
                raise ManifestError(str(e), line=data["n"][1]) from e
        elif kind == "module":
            if space is None:
                raise ManifestError(
                    "[module] must come after [ring]", line=bline
                )
            if name in modules:
                raise ManifestError(f"duplicate module {name!r}", line=bline)
            if "twists" not in data:
                raise ManifestError("module needs twists = [..]", line=bline)
            tw_val, tw_line = data["twists"]
            if (not isinstance(tw_val, list)
                    or any(not isinstance(t, int) for t in tw_val)):
                raise ManifestError("twists expects a list of integers",
                                    line=tw_line)
            covers = tuple(tw_val)
            cols: list = []
            if "relations" in data:
                cols = _matrix_value(data["relations"][0], "relations",
                                     data["relations"][1])
            nv = space.nvars
            if cols:
                rel = _columns_matrix(nv, covers, cols, "relations",
                                      data["relations"][1])
            else:
                rel = PolyMatrix.zero(nv, covers, ())
            modules[name] = GradedModule(rel)
        elif kind == "complex":
            complex_blocks.append((name, bline, data))
        else:
            task = TaskDef(kind=name, index=len(tasks) + 1, line=bline)
            takes = _TASK_PARAMS[name][2]
            for key, (value, kline) in data.items():
                if key == "matrix":
                    mkey, family = "matrix", "matrix"
                elif key.startswith("level "):
                    mkey, family = ("level", int(key.split()[1])), "level N"
                else:
                    task.params[key] = (value, kline)
                    continue
                if family != takes:
                    raise ManifestError(
                        f"task {name!r} does not take {key!r}; it takes "
                        + (f"{takes} keys" if takes else "no matrix"),
                        line=kline,
                    )
                task.matrices[mkey] = _matrix_value(value, key, kline)
                task.matrix_lines[mkey] = kline
            tasks.append(task)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        if line != line.lstrip():
            line = line.strip()
        m = _BLOCK_RE.match(line)
        if m:
            close_block()
            btype, bname = m.group(1), m.group(2)
            if btype == "ring":
                if bname is not None:
                    raise ManifestError("[ring] takes no name", line=lineno)
                block = ("ring", None, lineno, {})
            elif btype in ("module", "complex"):
                if bname is None:
                    raise ManifestError(f"[{btype}] needs a name", line=lineno)
                if parse_sheaf_name(bname) is not None:
                    raise ManifestError(
                        f"{bname!r} shadows a built-in name", line=lineno
                    )
                block = (btype, bname, lineno, {})
            elif btype == "task":
                if bname not in TASK_KINDS:
                    raise ManifestError(
                        f"unknown task kind {bname!r}; expected one of "
                        + ", ".join(TASK_KINDS), line=lineno,
                    )
                block = ("task", bname, lineno, {})
            else:
                raise ManifestError(
                    f"unknown block type {btype!r}; expected ring, module, "
                    "complex or task", line=lineno,
                )
            continue
        km = _KEY_RE.match(line)
        if not km:
            raise ManifestError(
                "expected a block header [..] or a key = value line",
                line=lineno,
            )
        if block is None:
            raise ManifestError(
                "key outside any block; start with [ring]", line=lineno
            )
        key = km.group(1) + (f" {km.group(2)}" if km.group(2) else "")
        value = _parse_value(km.group(3), lineno)
        if key in block[3]:
            raise ManifestError(f"duplicate key {key!r}", line=lineno)
        block[3][key] = (value, lineno)
    close_block()

    if space is None:
        raise ManifestError("manifest has no [ring] block", line=1)

    complexes: dict = {}
    complex_layout: dict = {}
    for name, bline, data in complex_blocks:
        if name in modules or name in complexes:
            raise ManifestError(f"duplicate name {name!r}", line=bline)
        complexes[name], complex_layout[name] = _build_complex(
            name, bline, data, space, modules
        )

    for task in tasks:
        _validate_task(task, space, modules, complexes)

    return Manifest(
        n=space.n, space=space, modules=modules, complexes=complexes,
        complex_layout=complex_layout, tasks=tasks,
    )


def _build_complex(name, bline, data, space, modules):
    if "degrees" not in data:
        raise ManifestError("complex needs degrees = lo..hi", line=bline)
    dval, dline = data["degrees"]
    if isinstance(dval, int):
        lo = hi = dval
    elif isinstance(dval, tuple) and dval[0] == "range":
        lo, hi = dval[1], dval[2]
    else:
        raise ManifestError("degrees expects lo..hi", line=dline)
    if hi < lo:
        raise ManifestError("degrees range is empty", line=dline)
    nv = space.nvars
    terms = []
    for i in range(lo, hi + 1):
        key = f"term {i}"
        if key in data:
            ref, kline = data[key]
            if not isinstance(ref, str):
                raise ManifestError(f"{key} expects a module name", line=kline)
            terms.append(resolve_module_ref(ref, space, modules, kline))
        else:
            terms.append(GradedModule.free(nv, ()))
    diffs = []
    for i in range(lo, hi):
        key = f"map {i}"
        src, tgt = terms[i - lo], terms[i + 1 - lo]
        if key in data:
            cols, kline = data[key]
            cols = _matrix_value(cols, key, kline)
            if len(cols) != src.rank:
                raise ManifestError(
                    f"{key}: {len(cols)} columns for a rank-{src.rank} source",
                    line=kline,
                )
            mat = _columns_for_map(nv, tgt.cover_twists, src.cover_twists,
                                   cols, key, kline)
            try:
                diffs.append(GradedMap(src, tgt, mat, check=True))
            except BraneGaugeError as e:
                raise ManifestError(f"{key}: {e}", line=kline) from e
        else:
            diffs.append(GradedMap.zero_map(src, tgt))
    generators: dict = {}
    for key, (value, kline) in data.items():
        if key.startswith("generators "):
            i = int(key.split()[1])
            if not lo <= i <= hi:
                raise ManifestError(
                    f"{key} outside degrees {lo}..{hi}", line=kline
                )
            generators[i] = _string_list(value, key, kline)
            try:  # each component a built-in S(k) or O(a) in range
                for comp in generators[i]:
                    sheaf_module(parse_component(comp), space)
            except BraneGaugeError as e:
                raise ManifestError(f"{key}: {e}", line=kline) from e
        elif key not in ("degrees",) and not key.startswith(("term ", "map ")):
            raise ManifestError(f"unknown complex key {key!r}", line=kline)
    for key in data:
        if key.startswith(("term ", "map ")):
            i = int(key.split()[1])
            top = hi if key.startswith("term ") else hi - 1
            if not lo <= i <= top:
                raise ManifestError(
                    f"{key} outside degrees {lo}..{hi}", line=data[key][1]
                )
    try:
        cx = BoundedComplex(nv, lo, terms, diffs, check=True)
    except BraneGaugeError as e:
        raise ManifestError(f"complex {name!r}: {e}", line=bline) from e
    layout = {"lo": lo, "hi": hi, "data": data, "generators": generators}
    return cx, layout


def _columns_for_map(nv, row_twists, col_twists, cols, key, line):
    """Matrix data for a map whose column twists are already known."""
    polys = list(_read_columns(nv, row_twists, cols, key, line))
    try:
        return PolyMatrix.from_columns(nv, tuple(row_twists), polys,
                                       list(col_twists))
    except BraneGaugeError as e:
        raise ManifestError(f"{key}: {e}", line=line) from e


def _validate_task(task: TaskDef, space, modules, complexes):
    required, optional, takes = _TASK_PARAMS[task.kind]
    for p in required:
        if p not in task.params:
            raise ManifestError(
                f"task {task.kind!r} needs {p} = ...", line=task.line
            )
    if takes == "matrix" and "matrix" not in task.matrices:
        raise ManifestError(
            f"task {task.kind!r} needs matrix = [[..]]", line=task.line
        )
    types = {**required, **optional}
    for p in task.params:
        if p not in types:
            raise ManifestError(
                f"task {task.kind!r} does not take {p!r}; allowed: "
                + (", ".join(sorted(types)) or "none"), line=task.line,
            )
    for p, kind in types.items():
        if p in task.params:
            value, line = task.params[p]
            task.args[p] = _argument(kind, p, value, line, space, modules,
                                     complexes)
    if takes == "level N":
        src, tgt = task.args["source"], task.args["target"]
        for (_, i), kline in task.matrix_lines.items():
            if i not in src.window() and i not in tgt.window():
                raise ManifestError(
                    f"level {i} outside the source degrees {src.lo}..{src.hi}"
                    f" and the target degrees {tgt.lo}..{tgt.hi}", line=kline,
                )


def _argument(kind: str, name: str, value, line: int, space, modules,
              complexes):
    """The checked value of one task parameter of the given type (see
    _TASK_PARAMS): a module or complex reference comes back resolved."""
    if kind == "module":
        if not isinstance(value, str):
            raise ManifestError(f"{name} expects a module name", line=line)
        return resolve_module_ref(value, space, modules, line)
    if kind == "complex":
        if not isinstance(value, str) or value not in complexes:
            raise ManifestError(
                f"{name} must name a declared complex", line=line
            )
        return complexes[value]
    if kind == "oracle":
        if value not in ("module", "sheaf"):
            raise ManifestError(
                f"{name} must be 'module' or 'sheaf'", line=line
            )
        return value
    if kind == "text":
        return value
    if kind not in ("int", "generator"):
        raise AssertionError(f"unknown parameter type {kind!r}")
    value = _int_value(value, name, line)
    if kind == "generator" and not 1 <= value <= space.n + 1:
        raise ManifestError(
            f"{name} = {value} outside the generator range 1..{space.n + 1}",
            line=line,
        )
    return value


# -- the printer ------------------------------------------------------------


def _fmt_matrix(cols) -> str:
    inner = ", ".join(
        "[" + ", ".join(f'"{e}"' for e in col) + "]" for col in cols
    )
    return f"[{inner}]"


def print_manifest(m: Manifest) -> str:
    """Canonical text for a manifest; parsing it reproduces the same
    structures (round-trip normal form)."""
    out = ["[ring]", f"n = {m.n}", ""]
    for name, module in m.modules.items():
        out.append(f"[module {name}]")
        out.append(f"twists = {fmt_int_list(module.cover_twists)}")
        rel = module.relations
        if rel.cols:
            canonical = [[str(q) for q in rel.column(c)]
                         for c in range(rel.cols)]
            out.append(f"relations = {_fmt_matrix(canonical)}")
        out.append("")
    for name, cx in m.complexes.items():
        layout = m.complex_layout[name]
        lo, hi = layout["lo"], layout["hi"]
        out.append(f"[complex {name}]")
        out.append(f"degrees = {lo}..{hi}")
        data = layout["data"]
        for i in range(lo, hi + 1):
            key = f"term {i}"
            if key in data:
                out.append(f"term {i} = {data[key][0]}")
        for i in range(lo, hi):
            key = f"map {i}"
            if key in data:
                cols = [
                    [str(q) for q in cx.diff(i).matrix.column(c)]
                    for c in range(cx.term(i).rank)
                ]
                out.append(f"map {i} = {_fmt_matrix(cols)}")
        for i in sorted(layout["generators"]):
            names = ", ".join(layout["generators"][i])
            out.append(f"generators {i} = [{names}]")
        out.append("")
    for task in m.tasks:
        out.append(f"[task {task.kind}]")
        for key in sorted(task.params):
            out.append(f"{key} = {task.params[key][0]}")
        if "matrix" in task.matrices:
            out.append(f"matrix = {_fmt_matrix(task.matrices['matrix'])}")
        for mk in sorted(k for k in task.matrices if k != "matrix"):
            out.append(f"level {mk[1]} = {_fmt_matrix(task.matrices[mk])}")
        out.append("")
    return "\n".join(out)
