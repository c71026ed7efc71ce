"""The package root re-exports only names the program uses or the README
documents: a public name with neither is library-only code."""
import ast
from pathlib import Path

import colorbench

PACKAGE = Path(colorbench.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _names_used_in_modules() -> set[str]:
    """Every name that code in a module other than ``__init__`` reads, bare
    or as an attribute."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_or_documented():
    exports, used = _exports(), _names_used_in_modules()
    assert {"read_spectrum_csv", "generate_atlas", "render_chart"} <= set(exports) & used
    readme = README.read_text(encoding="utf-8")
    orphans = [name for name in exports if name not in used and f"`{name}`" not in readme]
    assert orphans == [], "re-exported, but no module uses it and the README does not name it"
