"""The benchmark's tracer finds every name it wraps.

``perfbench/spans.py`` replaces names at the places their callers look
them up: module globals, and methods read from the ``__dict__`` of the
class that defines them.  A rename, a method moved to a base class or a
deleted binding would make ``install`` fail; this checks every name in
the tracer's tables, runs ``install`` once and puts everything back.

The tracer's names are also the only module-level imports the package
may leave unread: every other imported name is read in its module.  And
a module-level function is read in the package outside its own body,
exported in ``curvesat.__all__`` or one of those names: none is kept
for tests alone.
"""

import ast
import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "curvesat"


def _load_spans():
    spec = importlib.util.spec_from_file_location("curvesat_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patched_names(spans):
    """(owner, attribute) of every name ``Tracer.install`` replaces."""
    names = [(owner, attr) for _, _, owner, attr in spans.SITES]
    names += [(owner, attr) for owner, attr, _ in spans.INSERT_SITES]
    names += [(owner, attr) for owner, attr in spans.BATCH_SITES]
    # the two patches install makes outside the tables
    names += [("curvesat.saturation", "lefschetz_check"),
              ("curvesat.jacobian:CurveData", "ar_min_generators")]
    return names


def _bound(spans, names):
    """The object each name is bound to, as its callers see it; None
    where the name is missing."""
    out = {}
    for owner, attr in names:
        obj = spans._resolve(owner)
        where = obj.__dict__ if isinstance(obj, type) else vars(obj)
        out[owner, attr] = where.get(attr)
    return out


def test_every_traced_name_is_bound():
    spans = _load_spans()
    bound = _bound(spans, _patched_names(spans))
    assert [name for name, obj in bound.items() if obj is None] == []


def test_tracer_installs_and_uninstalls():
    spans = _load_spans()
    names = _patched_names(spans)
    before = _bound(spans, names)
    tracer = spans.Tracer().install()
    try:
        during = _bound(spans, names)
        patched = {(obj, attr) for obj, attr, _ in tracer._saved}
    finally:
        tracer.uninstall()
    assert patched == {(spans._resolve(owner), attr) for owner, attr in names}
    assert [name for name in names if during[name] is before[name]] == []
    assert _bound(spans, names) == before


def _unread_imports(path: Path) -> set:
    """The names a module imports at module level and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_unread_import_is_a_traced_name():
    patched = set(_patched_names(_load_spans()))
    unread = {(f"curvesat.{path.stem}", name)
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unread_imports(path)}
    assert sorted(unread - patched) == []


def _reads(tree) -> list:
    """(name, line) of every name a module reads, as a variable or as an
    attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.append((node.attr, node.lineno))
    return out


def test_every_module_function_is_read_exported_or_traced():
    spans = _load_spans()
    traced = list(_bound(spans, _patched_names(spans)).values())
    exported = set(importlib.import_module("curvesat").__all__)
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = defaultdict(list)          # name -> (module, line) of its reads
    for stem, tree in trees.items():
        for name, line in _reads(tree):
            reads[name].append((stem, line))
    unreached = []
    for stem, tree in trees.items():
        module = importlib.import_module(f"curvesat.{stem}")
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            read = any(where != stem or line not in body
                       for where, line in reads[node.name])
            func = vars(module)[node.name]
            if not (read or node.name in exported
                    or any(func is t for t in traced)):
                unreached.append(f"curvesat.{stem}.{node.name}")
    assert unreached == []
