"""The benchmark's tracer finds every name it wraps.

``perfbench/spans.py`` replaces names at the places their callers look
them up: module globals, and methods read from the ``__dict__`` of the
class that defines them.  A rename or a method moved to a base class
would make ``install`` fail; this runs it once and puts everything back.
"""

import importlib.util
from pathlib import Path

from curvesat import analysis, jacobian, resolution, saturation
from curvesat.jacobian import CurveData, FormsIdeal

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("curvesat_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    """A sample of the names the tracer wraps, as their callers see them."""
    return {
        "FormsIdeal.rref_at": FormsIdeal.__dict__["rref_at"],
        "FormsIdeal.kernel_at": FormsIdeal.__dict__["kernel_at"],
        "CurveData.tjurina": CurveData.__dict__["tjurina"],
        "CurveData.milnor_dims": CurveData.__dict__["milnor_dims"],
        "CurveData.ar_min_generators": CurveData.__dict__["ar_min_generators"],
        "jacobian.rref_int": jacobian.rref_int,
        "jacobian.poly_columns_int": jacobian.poly_columns_int,
        "resolution.kernel_int": resolution.kernel_int,
        "saturation.lefschetz_check": saturation.lefschetz_check,
        "analysis.saturate": analysis.saturate,
    }


def test_tracer_installs_and_uninstalls():
    before = _wrapped_names()
    tracer = _load_spans().Tracer().install()
    try:
        during = _wrapped_names()
    finally:
        tracer.uninstall()
    assert all(during[name] is not before[name] for name in before)
    assert _wrapped_names() == before
