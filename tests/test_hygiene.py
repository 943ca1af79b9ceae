"""Source hygiene: no module in the package or the tests imports a name it
never uses, no package function takes a parameter it never reads, every
module-level name of a production module is read by a production module
(a read from ``chgeom.oracles`` does not count), every
exception class of a production module is caught there, no production
module imports ``chgeom.oracles``, README's list of classifier reasons
matches the reasons the code returns, and no package module passes or
stores J as a matrix (``model.j_action`` applies it), and every xfail
mark of the suite is strict and names its ROADMAP item."""

import ast
import builtins
import importlib
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chgeom"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
        for path in sorted(PACKAGE.glob("*.py"))
        for line, func, param in unused_parameters(ast.parse(path.read_text()))
    ]
    assert not found, "parameters never read:\n" + "\n".join(found)


# production modules are every package module but the oracles
PRODUCTION = tuple(path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "oracles")
# oracles and fixtures that only perfbench/ reads or wraps by name; they
# move to chgeom.oracles once the benchmark stops naming them (ROADMAP
# item 24)
FROZEN = {
    "spectral.catalog_germ",
    "tubes.orbit_second_fundamental_form",
    "tubes.tube_shape_operator",
    "tubes.tube_spectrum_closed",
}


def _module_names(tree: ast.Module) -> dict:
    """Each module-level function, class and assigned name, with the
    statement that defines it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        defined[sub.id] = stmt
    return defined


def _package_bindings(tree: ast.Module) -> dict:
    """What each name a module imports from its package stands for: a
    module (``from . import jacobi``: "jacobi") or a module's name
    (``from .jacobi import _f``: ("jacobi", "_f"))."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (node.module, alias.name) if node.module else alias.name
                bound[alias.asname or alias.name] = target
    return bound


def _names_read(stmt: ast.stmt, module: str, own: dict, bound: dict) -> set:
    """(module, name) of every package name a statement reads: a name of
    its own module, one imported from the package (the import counts as
    a read), or an attribute of an imported package module."""
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            read.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if isinstance(bound.get(node.value.id), str):
                read.add((bound[node.value.id], node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in own:
                read.add((module, node.id))
            elif isinstance(bound.get(node.id), tuple):
                read.add(bound[node.id])
    return read


def unread_names(trees: dict, production) -> list:
    """(module, name) for every module-level name of a production module
    that no statement of a production module reads, other than the
    statement that defines it: a name that only the other modules of
    ``trees`` read is unread."""
    reads = []
    for module in production:
        tree = trees[module]
        own, bound = _module_names(tree), _package_bindings(tree)
        reads += [(stmt, _names_read(stmt, module, own, bound)) for stmt in tree.body]
    return [
        (module, name)
        for module in production
        for name, stmt in _module_names(trees[module]).items()
        if not any((module, name) in read for other, read in reads if other is not stmt)
    ]


def test_unread_name_scan_flags_names_only_their_definition_reads():
    trees = {
        "a": ast.parse(
            "X = 1\nY = X\nW: int = 3\nZ = 2\nV = 4\n"
            "def f():\n    return f()\nclass C:\n    pass\n"
        ),
        "b": ast.parse(
            "from . import a\nfrom .a import Y\nV = 5\n"
            "def g():\n    from .a import C\n    return Y, C, a.Z, V\n"
        ),
        "oracles": ast.parse("from .b import g\ndef f():\n    return g(f, W)\n"),
    }
    # b.g is read by the oracles alone
    assert unread_names(trees, ("a", "b")) == [("a", "W"), ("a", "V"), ("a", "f"), ("b", "g")]


def test_production_modules_define_only_names_the_package_reads():
    """Only tests call what ``chgeom.oracles`` holds; a production name
    that no production module reads belongs there (or is dead)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unread = {f"{module}.{name}" for module, name in unread_names(trees, PRODUCTION)}
    assert unread == FROZEN, (
        f"never read by a production module: {sorted(unread - FROZEN)}; "
        f"frozen but read or gone: {sorted(FROZEN - unread)}"
    )


BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _last_name(node: ast.expr):
    """``x`` of a name ``x`` or an attribute ``a.b.x``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def uncaught_exceptions(trees: dict) -> list:
    """(module, class) for every exception class a module of ``trees``
    defines (one derived from a builtin exception or from another such
    class) that no ``except`` clause of those modules names."""
    names, classes, grown = set(BUILTIN_EXCEPTIONS), [], True
    while grown:  # a class may derive from one defined further on
        grown = False
        for module, tree in trees.items():
            for stmt in tree.body:
                if isinstance(stmt, ast.ClassDef) and stmt.name not in names and any(
                    _last_name(base) in names for base in stmt.bases
                ):
                    names.add(stmt.name)
                    classes.append((module, stmt.name))
                    grown = True
    caught = {
        _last_name(node)
        for tree in trees.values()
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for node in ast.walk(handler.type)
    }
    return sorted(cls for cls in classes if cls[1] not in caught)


def test_uncaught_exception_scan_flags_classes_no_except_names():
    trees = {
        "a": ast.parse(
            "class Planted(Base):\n    pass\nclass Base(ValueError):\n    pass\n"
            "class Plain:\n    pass\ntry:\n    pass\nexcept Base:\n    pass\n"
        ),
        "b": ast.parse(
            "class Caught(a.Base):\n    pass\nclass Other(KeyError):\n    pass\n"
            "try:\n    pass\nexcept (np.linalg.LinAlgError, a.Caught):\n    pass\n"
        ),
    }
    assert uncaught_exceptions(trees) == [("a", "Planted"), ("b", "Other")]


def test_production_modules_define_only_exceptions_they_catch():
    """Bad input raises ``ValueError``; a subclass earns its place only
    where an ``except`` clause of the package tells it apart (today
    ``numlab.Indeterminate``, which ``residual_suites`` turns into an
    indeterminate suite)."""
    trees = {module: ast.parse((PACKAGE / f"{module}.py").read_text()) for module in PRODUCTION}
    found = uncaught_exceptions(trees)
    assert not found, "exception classes no except clause names: " + ", ".join(
        f"{module}.{name}" for module, name in found
    )


def oracle_imports(tree: ast.Module) -> list:
    """Lines of the import statements that load ``chgeom.oracles``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("oracles" in path.split(".") for path in paths):
            found.append(node.lineno)
    return found


def test_oracle_import_scan_finds_every_spelling():
    tree = ast.parse(
        "from .oracles import f\nfrom . import model, oracles\n"
        "import chgeom.oracles\nfrom chgeom import oracles\nfrom .model import oracles_x\n"
    )
    assert oracle_imports(tree) == [1, 2, 3, 4]


def test_no_production_module_imports_the_oracles():
    found = [
        f"src/chgeom/{module}.py:{line}"
        for module in PRODUCTION
        for line in oracle_imports(ast.parse((PACKAGE / f"{module}.py").read_text()))
    ]
    assert not found, "production modules import chgeom.oracles:\n" + "\n".join(found)


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
        "- The reason is the catalog's `c > 0` message.\n\n"
        "Later: reason `elsewhere`.\n"
    )
    assert readme_reasons(readme) == {"hopf", "h=N"}


def test_readme_lists_every_classify_reason():
    spectral = PACKAGE / "spectral.py"
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
        for path in sorted(PACKAGE.glob("*.py"))
        for line in names_called(ast.parse(path.read_text()), "jmat")
    ]
    assert not found, "apply J with model.j_action, not a matrix:\n" + "\n".join(found)


def xfail_defects(module) -> list:
    """(test, reason) of each xfail mark on a module's test functions, or
    on their parametrize cases, that is not strict=True or whose reason
    names no ``ROADMAP item N``."""
    found = []
    for name, fn in vars(module).items():
        if not name.startswith("test_") or not callable(fn):
            continue
        marks = list(getattr(fn, "pytestmark", []))
        for mark in [m for m in marks if m.name == "parametrize"]:
            values = mark.args[1] if len(mark.args) > 1 else mark.kwargs["argvalues"]
            marks += [m for value in values for m in getattr(value, "marks", ())]
        found += [
            (name, mark.kwargs.get("reason"))
            for mark in marks
            if mark.name == "xfail" and not (
                mark.kwargs.get("strict") is True
                and re.search(r"ROADMAP item \d+", mark.kwargs.get("reason", ""))
            )
        ]
    return found


def test_xfail_scan_flags_loose_and_unnamed_marks():
    def mark(*decorators):
        def test(v=None):
            return v
        for decorator in decorators:
            test = decorator(test)
        return test

    module = types.SimpleNamespace(
        test_named=mark(pytest.mark.xfail(strict=True, reason="ROADMAP item 7: x")),
        test_loose=mark(pytest.mark.xfail(reason="ROADMAP item 7: x")),
        test_unnamed=mark(pytest.mark.xfail(strict=True, reason="a known miss")),
        test_cases=mark(pytest.mark.parametrize("v", [
            1,
            pytest.param(2, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3")),
            pytest.param(3, marks=pytest.mark.xfail(strict=True, reason="item 3")),
        ])),
        helper=mark(pytest.mark.xfail(reason="not a test")),
    )
    assert xfail_defects(module) == [
        ("test_loose", "ROADMAP item 7: x"), ("test_unnamed", "a known miss"),
        ("test_cases", "item 3"),
    ]


def test_every_xfail_is_strict_and_names_its_roadmap_item():
    """README's convention: a known defect is a strict xfail whose reason
    names the ROADMAP item that owns it, so it fails once fixed."""
    found = [
        f"{path.name}::{test}: {reason!r}"
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        for test, reason in xfail_defects(importlib.import_module(path.stem))
    ]
    assert not found, "xfail marks that are not strict or name no ROADMAP item:\n" + "\n".join(found)
