"""The generator scan of the saturation (``SaturationData.generators``).

One scan gives the minimal generators of I and of N = I/J and the
correction term e2.  It is compared with the three scans it replaced,
kept here as the reference: the N(f) count over every degree of the
table, the I count over degrees 0..r_I + 1 with the RREF of the shift
span built at every degree, and e2 from three separate ranks.
"""

import pytest

from curvesat import catalog, resolution, saturation
from curvesat.analysis import analyze_full
from curvesat.errors import KmaxExhaustedError
from curvesat.exactla import rank_growth, rank_int, rref_extend, rref_insert
from curvesat.jacobian import shift_block_vector
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import HomogeneousPoly, slice_dim
from curvesat.resolution import min_generators
from curvesat.saturation import (n_min_generators, saturate,
                                 saturate_three_forms)

# three cubics that are not the partials of one curve, with content
THREE_FORMS = ("2*x^3 - 4*x*y*z", "x^2*y + 3*y^2*z", "x*z^2 - y^3")

# xy and concurrent-4 have mdr = 0, fermat-5 is smooth, and N of
# nodal-5 is generated in degree 1 but nonzero up to degree 8
NAMES = ["xy", "concurrent-4", "fermat-5", "nodal-5", "nf-d10-k3",
         "generic-5", "braid", "three-forms"]


def _sat(name):
    if name == "three-forms":
        return saturate_three_forms(*(parse_poly(t) for t in THREE_FORMS))
    obj = catalog.load(name)
    return saturate(obj.product() if isinstance(obj, Arrangement) else obj)


def _shifted(sat, k):
    return [shift_block_vector(vec, var, k - 1, (0,))
            for vec in sat.extras.get(k - 1, ())
            for var in range(3)]


def reference_n_generators(sat):
    degrees = []
    for k, n_k in enumerate(sat.n_table):
        if not n_k:
            continue
        piv, rows = sat.data.rref_at(k)
        grew = rank_growth(piv, rows, _shifted(sat, k), slice_dim(k))
        degrees.extend([k] * (n_k - grew))
    return degrees


def reference_i_generators(sat):
    data = sat.data
    degrees, gens = [], []
    for k in range(sat.reg_saturated() + 2):
        dim_i = sat.i_dim(k)
        if not dim_i:
            continue
        if k >= data.e + 1:
            piv, rows = data.rref_at(k)
            rows = [list(r) for r in rows]
        else:
            piv, rows = [], []
        piv, rows = rref_extend(piv, rows, _shifted(sat, k), slice_dim(k))
        count = dim_i - len(piv)
        if count:
            picked = 0
            for row in sat.i_rref(k)[1]:
                if rref_insert(piv, rows, list(row), slice_dim(k)):
                    degrees.append(k)
                    gens.append(HomogeneousPoly.from_vector(k, row))
                    picked += 1
            if picked != count:
                raise KmaxExhaustedError("inconsistent generator count")
    return degrees, gens


def reference_e2(sat):
    """3 - dim(J_e meet S_1 * I_(e-1)) from three separate ranks."""
    data = sat.data
    e = data.e
    shifted = _shifted(sat, e)
    ncols = slice_dim(e)
    dim_b = rank_int([list(r) for r in shifted], ncols)
    dim_a = data.rank_at(e)
    dim_ab = dim_a + rank_growth(*data.rref_at(e), shifted, ncols)
    return 3 - (dim_a + dim_b - dim_ab)


@pytest.mark.parametrize("name", NAMES)
def test_scan_matches_the_three_reference_scans(name):
    sat = _sat(name)
    scan = sat.generators
    assert list(scan.n_degrees) == reference_n_generators(_sat(name))
    degrees, gens = reference_i_generators(_sat(name))
    assert list(scan.module.degrees) == degrees
    assert [list(row) for row in scan.module.vectors] == [g.int_vector()
                                                          for g in gens]
    assert scan.e2 == reference_e2(_sat(name))
    assert n_min_generators(sat) == list(scan.n_degrees)
    assert min_generators(sat) == (degrees, gens)


def test_one_analysis_runs_one_scan(monkeypatch):
    # the N(f) generators, the S/I_f table and the e2 verdict all read
    # the scan cached on the saturation data
    scans = []
    scan_type = saturation.GeneratorScan

    def counted(*args):
        scans.append(args)
        return scan_type(*args)

    monkeypatch.setattr(saturation, "GeneratorScan", counted)
    report, _, _ = analyze_full(catalog.load("nodal-5"))
    assert len(scans) == 1
    assert list(report.n_generator_degrees) == [1, 1]


def test_scan_extends_no_copy_of_a_jacobian_slice(monkeypatch):
    # the generators of I_f for nf-d10-k3 sit at 8 and 9, that of N at
    # 8; the walk carries S_1 I_(k-1) on its own echelon chain, so the
    # scan neither extends nor inserts into a canonical slice
    sat = _sat("nf-d10-k3")
    assert sat.data.e == 9
    calls = []

    def recording(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for module in (saturation, resolution):
        for name in ("rref_extend", "rref_insert"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recording(name, getattr(module, name)))
    assert min_generators(sat)[0] == [8, 9]
    assert n_min_generators(sat) == [8]
    assert calls == []


@pytest.mark.parametrize("name", ["nodal-5", "nf-d7-k3"])
def test_a_corrupted_dimension_makes_the_walk_raise(monkeypatch, name):
    # the walk checks dim I_k against the rank of its own chain at every
    # degree it reaches: one too many is never reached by the picks, and
    # one too few lies below the rank of S_1 I_(k-1) wherever no
    # generator sits at k or above
    sat = _sat(name)
    top = sat.reg_saturated() + 2
    last = sat.generators.module.degrees[-1]
    bad = [(k, 1) for k in range(top + 1)]
    bad += [(k, -1) for k in range(last + 1, top + 1)]
    for degree, delta in bad:
        sat = _sat(name)
        i_dim = sat.i_dim
        monkeypatch.setattr(
            sat, "i_dim",
            lambda k, d=degree, x=delta: i_dim(k) + (x if k == d else 0))
        with pytest.raises(KmaxExhaustedError):
            sat.generators
