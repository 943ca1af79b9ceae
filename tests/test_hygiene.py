"""Source hygiene: no module in the package or the tests imports a name it
never uses, no package function takes a parameter it never reads,
README's list of classifier reasons matches the reasons the code returns,
and no package module passes or stores J as a matrix (``model.j_action``
applies it)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "chgeom").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement and never read in the module."""
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
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_unused_import_scan_flags_unused_names():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "from x import y as z\nprint(np.pi, pi)\n"
    )
    assert unused_imports(tree) == [(1, "os"), (3, "tau"), (4, "z")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(ast.parse(path.read_text()))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def unused_parameters(tree: ast.Module) -> list:
    """(line, function, parameter) for every parameter of a function or
    lambda that its body never reads; ``self``, ``cls`` and names that
    start with ``_`` are exempt."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [
            (node.lineno, name, p.arg)
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
        ]
    return found


def test_unused_parameter_scan_flags_unread_names():
    tree = ast.parse(
        "def f(self, x, y, _z, *args, w=1, **kw):\n"
        "    y = x\n"
        "    return lambda v, u: g(lambda: kw, v, w)\n"
        "class C:\n"
        "    def m(cls, a):\n"
        "        def inner():\n"
        "            return a\n"
    )
    assert unused_parameters(tree) == [
        (1, "f", "y"), (1, "f", "args"), (3, "<lambda>", "u"),
    ]


def test_no_unused_parameters():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {func}({param})"
        for path in sorted((ROOT / "src" / "chgeom").glob("*.py"))
        for line, func, param in unused_parameters(ast.parse(path.read_text()))
    ]
    assert not found, "parameters never read:\n" + "\n".join(found)


def _string_literals(node: ast.AST) -> set:
    """Every string literal in an expression; an f-string reads each of
    its fields as N (f"h={h}" -> "h=N")."""
    if isinstance(node, ast.JoinedStr):
        return {
            "".join(v.value if isinstance(v, ast.Constant) else "N" for v in node.values)
        }
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set().union(*(_string_literals(child) for child in ast.iter_child_nodes(node)))


def unclassified_reasons(tree: ast.Module) -> set:
    """The fixed reasons of the ``_unclassified`` calls in a module: the
    string literals of their reason argument (a computed message, such
    as ``str(exc)``, gives none)."""
    reasons = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_unclassified":
            args = node.args[3:] + [kw.value for kw in node.keywords if kw.arg == "reason"]
            for arg in args:
                reasons |= _string_literals(arg)
    return reasons


def readme_reasons(text: str) -> set:
    """The reasons named as reason `X` in README's "How `classify`
    decides" list."""
    section = text.split("How `classify` decides", 1)[1].split("\n\n", 2)[1]
    return set(re.findall(r"reason `([^`]+)`", section))


def test_reason_scans_read_literals_and_readme_entries():
    tree = ast.parse(
        "def classify(g, h, exc):\n"
        "    _unclassified(g, h, {}, 'hopf' if h <= 1 else f'h={h}')\n"
        "    _unclassified(g, h, {}, str(exc))\n"
        "    _unclassified(g, h, {}, reason='orientation')\n"
        "    other(g, h, {}, 'not a reason')\n"
    )
    assert unclassified_reasons(tree) == {"hopf", "h=N", "orientation"}
    readme = (
        "How `classify` decides, with the `reason`:\n\n"
        "- Otherwise it gives reason `hopf` or reason `h=N`.\n"
        "- The reason is the `NoRealSolution` message.\n\n"
        "Later: reason `elsewhere`.\n"
    )
    assert readme_reasons(readme) == {"hopf", "h=N"}


def test_readme_lists_every_classify_reason():
    spectral = ROOT / "src" / "chgeom" / "spectral.py"
    code = unclassified_reasons(ast.parse(spectral.read_text()))
    docs = readme_reasons((ROOT / "README.md").read_text())
    assert code == docs, f"only in spectral.py: {code - docs}; only in README: {docs - code}"


def names_called(tree: ast.Module, name: str) -> list:
    """Lines where ``name`` is a parameter, keyword argument, attribute
    or variable name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.keyword)):
            bound = node.arg
        elif isinstance(node, ast.Attribute):
            bound = node.attr
        elif isinstance(node, ast.Name):
            bound = node.id
        else:
            continue
        if bound == name:
            found.append(node.lineno)
    return sorted(found)


def test_name_scan_finds_parameters_attributes_and_names():
    tree = ast.parse(
        "def f(x, jmat):\n"
        "    jmat = self.jmat\n"
        "    g(jmat=x)\n"
        "    return 'jmat'\n"
    )
    assert names_called(tree, "jmat") == [1, 2, 2, 3]


def test_no_module_carries_a_j_matrix():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src" / "chgeom").glob("*.py"))
        for line in names_called(ast.parse(path.read_text()), "jmat")
    ]
    assert not found, "apply J with model.j_action, not a matrix:\n" + "\n".join(found)
