"""Layout checks on the package source.

The benchmark tracer names qcext layers by module and attribute path:
perfbench/tracing.py wraps each SPANS target at run time, and a target that
no longer resolves would make a traced run fail.  The tracer is loaded from
its file, so this test needs nothing from perfbench on the import path.
Every module but __init__.py uses each name it imports, every top-level
private name is used somewhere in the package outside its own definition,
and so is every public one that qcext does not export in __all__ and every
public method of a top-level class.  Every tolerance and step constant has
a comment right above it that says what it decides.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("qcext_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_span_resolves():
    for name, (mod_name, attr, _) in _spans().items():
        owner = importlib.import_module(f"qcext.{mod_name}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            # the tracer replaces methods in the class dict
            owner = getattr(owner, cls_name)
            assert meth in vars(owner), name
        assert callable(getattr(owner, meth)), name


def test_no_unused_imports_in_the_package():
    # the package, its tests and its scripts; __init__.py imports names to
    # re-export them, so it is left out
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted(
        p for d in ("src/qcext", "tests", "scripts") for p in (root / d).glob("*.py")
    ):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported[bound] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.relative_to(root)}:{line} {name}"
            for name, line in imported.items()
            if name not in used and name != "annotations"
        ]
    assert not unused, unused


def _definitions(tree, methods):
    """(label, name, node) for each top-level definition of the module and,
    with methods, each method of its top-level classes as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, t.id, node
        if methods and isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item


def _unused_top_level_names(wanted, methods=False):
    """module:line name for each top-level name (and, with methods, each
    method of a top-level class) that wanted(name) selects and that nothing
    in the package names outside its own definition."""
    src = Path(__file__).resolve().parents[1] / "src" / "qcext"
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))
    }
    uses = []  # (module, line, name)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((mod, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                uses += [(mod, node.lineno, a.name) for a in node.names]
    unused = []
    for mod, tree in trees.items():
        for label, name, node in _definitions(tree, methods):
            if not wanted(label):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(
                n == name and not (m == mod and line in span) for m, line, n in uses
            ):
                unused.append(f"{mod}:{node.lineno} {label}")
    return unused


def test_every_private_name_is_used_in_the_package():
    # a top-level _name is module-internal or shared within qcext only, so a
    # definition nothing else in the package names is dead code
    unused = _unused_top_level_names(
        lambda name: name.startswith("_") and not name.startswith("__")
    )
    assert not unused, unused


def test_every_public_name_is_used_or_exported():
    # a public top-level name that no other definition uses and qcext does
    # not export serves only the tests, which is dead code in the package;
    # so does a public method that nothing in the package calls, whether or
    # not its class is exported
    exported = set(importlib.import_module("qcext").__all__)
    unused = _unused_top_level_names(
        lambda label: not label.rpartition(".")[2].startswith("_")
        and label not in exported,
        methods=True,
    )
    assert not unused, unused


# module-level tolerances and steps, by name
TOLERANCE = re.compile(r"(TAU_\w+|H_\w+|DEGENERATE_TOL|POLE_EXCLUSION)$")


def test_every_tolerance_has_a_comment_above_it():
    src = Path(__file__).resolve().parents[1] / "src" / "qcext"
    bare = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, ast.Assign):
                continue
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            above = lines[node.lineno - 2].lstrip() if node.lineno > 1 else ""
            if any(TOLERANCE.match(n) for n in names) and not above.startswith("#"):
                bare.append(f"{path.name}:{node.lineno} {', '.join(names)}")
    assert not bare, bare
