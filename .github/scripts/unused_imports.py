"""Unused-import check for the package modules.

    python .github/scripts/unused_imports.py [FILE ...]

With no arguments it checks every `src/branegauge/*.py` except
`__init__.py`, whose imports are the package's public names.  A name bound
by an `import` or `from ... import` statement fails the check when the
module never reads it anywhere, annotations included (`import a.b` binds
and is read as `a`).  `from __future__` imports are exempt.  Prints one
`path:line: name` line per unused import and exits 1 if there is any,
else 0.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "branegauge"


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every import in path whose name is never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
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


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(
        p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
    )
    bad = 0
    for path in paths:
        for line, name in unused_imports(path):
            print(f"{path}:{line}: {name}")
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
