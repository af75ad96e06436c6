"""The benchmark's tracer finds every name it wraps.

``perfbench/spans.py`` replaces names at the places their callers look
them up: module globals, and methods read from the ``__dict__`` of the
class that defines them.  A rename, a method moved to a base class or a
deleted binding would make ``install`` fail; this checks every name in
the tracer's tables, runs ``install`` once and puts everything back.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
