"""Unused-import and dead-definition checks for the package modules.

    python .github/scripts/unused_imports.py [FILE ...]

Unused imports: with no arguments it checks every `src/branegauge/*.py`
except `__init__.py`, whose imports are the package's public names, and
every `tests/*.py`.  A name bound by an `import` or `from ... import`
statement fails the check when the module never reads it anywhere,
annotations included (`import a.b` binds and is read as `a`).
`from __future__` imports are exempt.

Dead definitions: every top-level function, class or assigned name and
every method of a top-level class in `src/branegauge/*.py` (or in the given
files) fails the check when no file under `src/` or `tests/` names it: as a
name that is read, as an attribute, or in an import.  Assigning a name does
not name it.  Dunder names are exempt; Python reads them.

Unread fields: every field of a record class at the top level of
`src/branegauge/*.py` (or of the given files) fails the check when no file
under `src/` or `tests/` reads it as an attribute (`x.field` in a load).
A record is a `typing.NamedTuple`, in class syntax or as the
`NamedTuple("Name", [(field, type), ...])` base of a subclass, or a class
with `__slots__`; its fields are the annotated names, the listed pairs or
the slot names.  Passing a field to the constructor by keyword does not
read it.

Prints one `path:line: name` line per unused import, one
`path:line: dead definition qualname` line per dead definition and one
`path:line: unread field Class.field` line per unread field, and exits 1
if there is any, else 0.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "branegauge"
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every import in path whose name is never read."""
    tree = _tree(path)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(path: Path) -> list[tuple[int, str, str]]:
    """(line, qualname, name) of path's top-level functions, classes and
    non-dunder assigned names and of the non-dunder methods of its
    top-level classes."""
    out = []
    for node in _tree(path).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                (node.lineno, name.id, name.id)
                for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and not _dunder(name.id)
            )
        if not isinstance(node, _DEFS):
            continue
        out.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (item.lineno, f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, _FUNCS) and not _dunder(item.name)
            )
    return out


def _named(node: ast.AST, name: str) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == name


def _record_fields(node: ast.ClassDef) -> list[tuple[int, str]]:
    """(line, name) of the fields of a record class: the annotated names of
    a `NamedTuple` class, the ("name", type) pairs of a
    `NamedTuple("Name", [...])` base, and the names in `__slots__`."""
    out = []
    for base in node.bases:
        if _named(base, "NamedTuple"):
            out.extend((item.lineno, item.target.id) for item in node.body
                       if isinstance(item, ast.AnnAssign)
                       and isinstance(item.target, ast.Name))
        elif (isinstance(base, ast.Call) and _named(base.func, "NamedTuple")
              and len(base.args) == 2 and isinstance(base.args[1], ast.List)):
            out.extend((pair.lineno, pair.elts[0].value)
                       for pair in base.args[1].elts)
    for item in node.body:
        if (isinstance(item, ast.Assign)
                and any(_named(t, "__slots__") for t in item.targets)
                and isinstance(item.value, ast.Tuple)):
            out.extend((item.lineno, elt.value) for elt in item.value.elts)
    return out


def record_fields(path: Path) -> list[tuple[int, str, str]]:
    """(line, qualname, name) of every field of path's top-level record
    classes (_record_fields)."""
    return [
        (line, f"{node.name}.{name}", name)
        for node in _tree(path).body if isinstance(node, ast.ClassDef)
        for line, name in _record_fields(node)
    ]


def read_attributes(paths) -> set[str]:
    """Every attribute name the files read (`x.name` in a load)."""
    return {
        node.attr
        for path in paths for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def named(paths) -> set[str]:
    """Every identifier the files name: names read, attributes and imports."""
    out: set[str] = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.split(".")[-1])
    return out


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    importers = paths if argv else (
        [p for p in paths if p.name != "__init__.py"]
        + sorted((ROOT / "tests").glob("*.py")))
    bad = 0
    for path in importers:
        for line, name in unused_imports(path):
            print(f"{path}:{line}: {name}")
            bad += 1
    readers = (sorted((ROOT / "src").rglob("*.py"))
               + sorted((ROOT / "tests").rglob("*.py")))
    used = named(readers)
    for path in paths:
        for line, qualname, name in definitions(path):
            if name not in used:
                print(f"{path}:{line}: dead definition {qualname}")
                bad += 1
    read = read_attributes(readers)
    for path in paths:
        for line, qualname, name in record_fields(path):
            if name not in read:
                print(f"{path}:{line}: unread field {qualname}")
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
