"""Source hygiene: no module in the package or the tests imports a name it
never uses (an unused root import keeps a name in ``chgeom.__all__``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "chgeom").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement and never read in the module
    (names listed in ``__all__`` count as read)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_unused_import_scan_flags_unused_names():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "from x import y as z\n__all__ = ['tau']\nprint(np.pi, pi)\n"
    )
    assert unused_imports(tree) == [(1, "os"), (4, "z")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(ast.parse(path.read_text()))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
