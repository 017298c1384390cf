"""Layering check for the package modules.

    python .github/scripts/layering.py

Reads the package-internal imports of every `src/branegauge/*.py` (relative
`from .x import ...` and `from . import x`, and absolute `branegauge.x`)
and follows them transitively.  It fails when

- `polynomials` reaches any module but `errors`: the monomial kernel is the
  floor layer that every other module builds on;
- `homspace` reaches `groebner` or `modules`: `HomBasis` is the Groebner-free
  cross-check of the module-Hom path, so it must not depend on that path;
- `complexes` reaches `projective`, `gauge`, `cech`, `tasks`, `manifest` or
  `cli`: the derived layer sits below the projective layer, which reads
  `complexes.rhom_complex` for sheaf Hom, so that edge never closes a cycle;
- `polymatrix` or `linalg` reaches any module but `errors`, `polynomials`,
  `linalg` and `polymatrix`: the matrix form and the sparse algebra sit
  below the Groebner engine, which builds on them;
- `cech` reaches any package module: it is only the chart sets and the
  incidence rule of Cech cochains, which the Atiyah class in `gauge` reads,
  and it builds no window;
- `groebner` reaches any module but those four: the engine works on the
  matrix form's columns and knows nothing of modules;
- `modules` reaches any module but those four and `groebner`: graded
  modules are presentations over the engine, below the derived and
  projective layers;
- any module but `modules` imports `groebner` directly: the derived,
  projective and gauge layers reach the engine only through graded
  modules (the re-exports in `__init__` are exempt);
- any module but `groebner`, `__init__` included, names `module_groebner`
  outside `modules.GradedModule.relation_gb` (apart from the import in
  `modules` that serves it): each Groebner basis has one owner, the
  presentation whose relations it spans, so no caller builds a second basis
  of the same columns;
- any module, `__init__` included, names `_prune_constants` outside
  `modules.GradedModule.pruned_relations` (apart from its definition in
  `modules`): each presentation prunes its unit entries once, and every
  dimension, rank and zero test reads that one pruned presentation, so no
  caller prunes the same relations again;
- any module, `__init__` included, defines, imports or names one of the
  Cech window names that live in the test oracles (`tests/_oracles.py`):
  `CechLevel`, `cech_level_span`, `_in_relation_span`,
  `DEFAULT_CECH_BOUND`, `_checked_bound`, `CechStabilizationError` and
  `cech_h_dim_at`.  The package's one h^i is
  `projective.sheaf_cohomology_dim`, by local duality, and the Atiyah class
  is certified by the Euler sequence, so no certificate reads a truncation
  bound and no second h^i route comes back into the package;
- any module, `__init__` included, imports `dataclasses`: the records are
  `typing.NamedTuple`s and `__slots__` classes, so importing the package
  pulls in neither `dataclasses` nor the `inspect`, `ast`, `dis` and
  `tokenize` it loads, which is most of the package's import time.

Prints one line per broken rule, with the import chain or the place that
breaks it, and exits 1 if there is any, else 0.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "branegauge"

BASE = {"errors", "polynomials", "linalg", "polymatrix"}
# module -> the only modules it may reach, directly or through others
ONLY = {
    "polynomials": {"errors"},
    "polymatrix": BASE,
    "linalg": BASE,
    "cech": set(),
    "groebner": BASE,
    "modules": BASE | {"groebner"},
}
# module -> modules it must not reach, directly or through others
BANNED = {
    "homspace": {"groebner", "modules"},
    "complexes": {"projective", "gauge", "cech", "tasks", "manifest", "cli"},
}


def direct_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that path imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names)
            elif node.level == 0 and (node.module or "").startswith("branegauge."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("branegauge."):
                    out.add(a.name.split(".")[1])
    return out & modules


# the one package module that may import the engine directly
ENGINE_CLIENT = "modules"

# name -> (module, function, kind): the one function that may name it; its
# module may also name it by that kind of place, the import that serves the
# function or the definition.  groebner, which defines and runs
# module_groebner, is not scanned for it
ONE_OWNER = {
    "module_groebner": ("modules", "GradedModule.relation_gb", "import"),
    "_prune_constants": ("modules", "GradedModule.pruned_relations", "def"),
}

# the Cech window names that live in the test oracles, never in the package
ORACLE_NAMES = ("CechLevel", "cech_level_span", "_in_relation_span",
                "DEFAULT_CECH_BOUND", "_checked_bound",
                "CechStabilizationError", "cech_h_dim_at")


def imports_dataclasses(tree: ast.AST) -> bool:
    """Whether tree imports the dataclasses module or a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "dataclasses" for a in node.names):
            return True
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "dataclasses"):
            return True
    return False


def naming_places(tree: ast.AST, name: str) -> list[tuple[str, str]]:
    """(qualified place, kind) for every node of tree that names `name`:
    a definition ("def"), an imported alias on either side of `as`
    ("import"), or a name or an attribute ("use")."""
    out = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            inner = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{qual}.{child.name}" if qual else child.name
                if child.name == name:
                    out.append((inner, "def"))
            if ((isinstance(child, ast.Name) and child.id == name)
                    or (isinstance(child, ast.Attribute)
                        and child.attr == name)):
                out.append((inner, "use"))
            elif (isinstance(child, ast.alias)
                  and name in (child.name, child.asname)):
                out.append((inner, "import"))
            visit(child, inner)

    visit(tree, "")
    return out


def stray_names(mod: str, tree: ast.AST, name: str) -> list[str]:
    """Where mod names `name` outside its ONE_OWNER function, as qualified
    names; the owner module's own import or definition of it (as ONE_OWNER
    says) is allowed."""
    owner_mod, owner_fn, allowed = ONE_OWNER[name]
    return [f"{mod}.{where}" if where else mod
            for where, kind in naming_places(tree, name)
            if (mod, where) != (owner_mod, owner_fn)
            and not (kind == allowed and mod == owner_mod)]


def chains(start: str, graph: dict) -> dict[str, list[str]]:
    """Every module start reaches, with one import chain to it."""
    seen = {start: [start]}
    todo = [start]
    while todo:
        mod = todo.pop()
        for dep in sorted(graph[mod]):
            if dep not in seen:
                seen[dep] = seen[mod] + [dep]
                todo.append(dep)
    del seen[start]
    return seen


def main() -> int:
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {m: direct_imports(PACKAGE / f"{m}.py", modules) for m in modules}
    broken = []
    for mod in sorted(ONLY.keys() | BANNED.keys()):
        for dep, chain in sorted(chains(mod, graph).items()):
            if (mod in ONLY and dep not in ONLY[mod]) or dep in BANNED.get(mod, ()):
                broken.append(f"{mod} reaches {dep}: {' -> '.join(chain)}")
    for mod in sorted(modules - {"groebner", ENGINE_CLIENT}):
        if "groebner" in graph[mod]:
            broken.append(f"{mod} imports groebner directly; only "
                          f"{ENGINE_CLIENT} may")
    for mod in sorted(modules | {"__init__"}):
        tree = ast.parse((PACKAGE / f"{mod}.py").read_text(encoding="utf-8"))
        for name, (owner_mod, owner_fn, _) in ONE_OWNER.items():
            if name == "module_groebner" and mod == "groebner":
                continue
            for where in stray_names(mod, tree, name):
                broken.append(f"{where} names {name} outside "
                              f"{owner_mod}.{owner_fn}")
        for name in ORACLE_NAMES:
            for where, _ in naming_places(tree, name):
                broken.append(f"{mod}{'.' + where if where else ''} names "
                              f"{name}; it is a test oracle")
        if imports_dataclasses(tree):
            broken.append(f"{mod} imports dataclasses; package records are "
                          f"NamedTuples and __slots__ classes")
    for line in broken:
        print(line)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
