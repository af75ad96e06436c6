"""The generator pick of the saturation (``SaturationData.generators``).

One pass picks the minimal generators of I at the lifts' markers, and
counts those of N = I/J and the correction term e2 off the picks.  It
is compared with the three scans it replaced, kept here as the
reference: the N(f) count over every degree of the table, the I count
over degrees 0..r_I + 1 with the RREF of the shift span built at every
degree, and e2 from three separate ranks; and with the Nakayama walk
of ``jacobian.minimal_generators`` over the slices of I, built here
by extending the canonical slices of J with the lifts in an
``exactla.IncrementalSpan`` (``reference_walk``), on every catalog
entry.
"""

import random
import sys
from functools import lru_cache

import pytest

from curvesat import catalog, exactla, saturation
from curvesat.analysis import analyze_full
from curvesat.errors import FreenessCheckFailedError, KmaxExhaustedError
from curvesat.exactla import (IncrementalSpan, back_phase, rank_int,
                              rref_insert)
from curvesat.jacobian import (FormsIdeal, minimal_generators,
                               shift_block_vector)
from curvesat.parsing import Arrangement, parse_arrangement, parse_poly
from curvesat.poly import HomogeneousPoly, slice_dim
from curvesat.resolution import betti_saturated, min_generators
from curvesat.saturation import (n_min_generators, saturate,
                                 saturate_three_forms)
from curvesat.suite import random_arrangement_text

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


def _extended(pivots, rows, vecs, ncols):
    """The span of an echelon form extended by vecs, as an
    ``IncrementalSpan`` that shares the rows and writes none."""
    span = IncrementalSpan(ncols, pivots, rows)
    span.extend(vecs)
    return span


def _growth(pivots, rows, vecs, ncols):
    return len(_extended(pivots, rows, vecs, ncols).pivots) - len(pivots)


def _extended_rref(pivots, rows, vecs, ncols):
    """Canonical RREF of span(rows) + span(vecs); rows are consumed."""
    span = _extended(pivots, rows, vecs, ncols)
    back_phase(span.pivots, span.rows, ncols)
    return span.pivots, span.rows


def i_rref(sat, k):
    """Canonical RREF of I_k: that of J_k extended by the lifts."""
    jpiv, jrows = sat.data.rref_at(k)
    return _extended_rref(jpiv, [list(r) for r in jrows],
                          sat.extras.get(k, ()), slice_dim(k))


def reference_walk(sat):
    """The Nakayama walk over the slices of I that the pick replaced:
    the module of its picks, canonical rows of RREF(I_k), on degrees
    0..r_I + 2."""
    top = sat.reg_saturated() + 2
    degrees, module = minimal_generators(
        (0,), 0, top, sat.i_dim, lambda k: i_rref(sat, k)[1])
    if top in degrees:
        raise KmaxExhaustedError(
            f"a generator of the saturation in degree {top}, above reg(I)")
    return module


def reference_n_generators(sat):
    degrees = []
    for k, n_k in enumerate(sat.n_table):
        if not n_k:
            continue
        piv, rows = sat.data.rref_at(k)
        grew = _growth(piv, rows, _shifted(sat, k), slice_dim(k))
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
        piv, rows = _extended_rref(piv, rows, _shifted(sat, k), slice_dim(k))
        count = dim_i - len(piv)
        if count:
            picked = 0
            for row in i_rref(sat, k)[1]:
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
    dim_ab = dim_a + _growth(*data.rref_at(e), shifted, ncols)
    return 3 - (dim_a + dim_b - dim_ab)


@pytest.mark.parametrize("name", NAMES)
def test_scan_matches_the_three_reference_scans(name):
    sat = _sat(name)
    scan = sat.generators
    assert list(scan.n_degrees) == reference_n_generators(_sat(name))
    degrees, gens = reference_i_generators(_sat(name))
    walked = reference_walk(_sat(name))
    assert list(walked.degrees) == list(scan.degrees) == degrees
    assert [list(row) for row in walked.vectors] == [g.int_vector()
                                                     for g in gens]
    assert scan.e2 == reference_e2(_sat(name))
    assert n_min_generators(sat) == list(scan.n_degrees)
    assert min_generators(sat) == (degrees, [
        HomogeneousPoly.from_vector(k, vec)
        for k, vec in zip(scan.degrees, scan.vectors)])


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


def _rref_insert_owners():
    """The modules of the package that bind ``exactla.rref_insert``."""
    return [module for name, module in sorted(sys.modules.items())
            if name.partition(".")[0] == "curvesat"
            and vars(module).get("rref_insert") is exactla.rref_insert]


def test_scan_extends_no_copy_of_a_jacobian_slice(monkeypatch):
    # the generators of I_f for nf-d10-k3 sit at 8 and 9, that of N at
    # 8; the pick reads residuals at the lifts' markers below e = 9 and
    # the lift shifts, the forms of J and the lifts at e: it extends no
    # slice of J_f, writes none of its rows, and min_generators reads
    # the cached picks.  A span seeded with rows joins vectors to them
    # through an IncrementalSpan built with those rows, and rref_insert
    # does that too: both are recorded, rref_insert wherever it is bound
    sat = _sat("nf-d10-k3")
    data = sat.data
    assert data.e == 9
    jacobian_rows = {k: [list(r) for r in data.rref_at(k)[1]]
                     for k in (8, 9)}
    calls = []
    insert = exactla.rref_insert
    init = IncrementalSpan.__init__

    def recording_insert(*args):
        calls.append("rref_insert")
        return insert(*args)

    def recording_init(self, ncols, pivots=(), rows=()):
        if rows:
            calls.append("IncrementalSpan with rows")
        init(self, ncols, pivots, rows)

    owners = _rref_insert_owners()
    assert exactla in owners
    for module in owners:
        monkeypatch.setattr(module, "rref_insert", recording_insert)
    monkeypatch.setattr(IncrementalSpan, "__init__", recording_init)
    assert n_min_generators(sat) == [8]
    assert min_generators(sat)[0] == [8, 9]
    assert calls == []
    assert {k: [list(r) for r in data.rref_at(k)[1]]
            for k in (8, 9)} == jacobian_rows


@pytest.mark.parametrize("name", ["nodal-5", "nf-d7-k3"])
def test_a_corrupted_dimension_makes_the_walk_raise(monkeypatch, name):
    # the pick checks its count against its picks at every degree up to
    # r_I + 2: n_k, and with it dim I_k, one off in either direction
    # leaves a count the picks do not meet, or a negative one
    top = _sat(name).reg_saturated() + 2
    for degree in range(top + 1):
        for delta in (1, -1):
            sat = _sat(name)
            n_dim = sat.n_dim
            monkeypatch.setattr(
                sat, "n_dim",
                lambda k, d=degree, x=delta: n_dim(k) + (x if k == d else 0))
            with pytest.raises(KmaxExhaustedError):
                sat.generators


@pytest.mark.parametrize("name", ["nodal-5", "nf-d7-k3", "braid"])
def test_a_corrupted_quotient_dimension_makes_the_count_raise(monkeypatch,
                                                              name):
    # one too few in n_k leaves the count below the rank of S_1 I_(k-1)
    # at every degree up to r_I + 2 where no generator of I sits
    sat = _sat(name)
    top = sat.reg_saturated() + 2
    quiet = [k for k in range(top + 1) if k not in sat.generators.degrees]
    assert quiet
    for degree in quiet:
        sat = _sat(name)
        n_dim = sat.n_dim
        monkeypatch.setattr(
            sat, "n_dim", lambda k, d=degree: n_dim(k) - (k == d))
        with pytest.raises(KmaxExhaustedError, match="negative generator"):
            sat.generators


def test_a_corrupted_slice_at_the_generator_degree_makes_the_count_raise(
        monkeypatch):
    # nodal-3: J_f is generated in degree e = 2 = r_I + 2, where I_f has
    # no generator; one too few in dim I_e makes the count there negative
    sat = saturate(catalog.load("nodal-3"))
    e = sat.data.e
    assert e == sat.reg_saturated() + 2 and e not in sat.generators.degrees
    sat = saturate(catalog.load("nodal-3"))
    i_dim = sat.i_dim
    monkeypatch.setattr(sat, "i_dim", lambda k: i_dim(k) - (k == e))
    with pytest.raises(KmaxExhaustedError, match="negative generator"):
        sat.generators


@pytest.mark.parametrize("name", ["nodal-5", "nf-d7-k3", "braid",
                                  "three-forms"])
def test_a_corrupted_hilbert_function_makes_the_table_raise(monkeypatch,
                                                            name):
    # the S/I_f relations are read off the Hilbert function of S/I_f
    # and the counted generators: dim I_k one off, in any degree up to
    # kmax, leaves a negative relation count
    for degree in range(_sat(name).kmax + 1):
        for delta in (1, -1):
            sat = _sat(name)
            sat.generators
            i_dim = sat.i_dim
            monkeypatch.setattr(
                sat, "i_dim",
                lambda k, d=degree, x=delta: i_dim(k) + (x if k == d else 0))
            with pytest.raises(FreenessCheckFailedError):
                betti_saturated(sat)


# every catalog entry, the three forms above and the random arrangements
# of ``run_suite(random_count=25, seed=0)``
_RNG = random.Random(0)
RANDOM = {f"random-{i}": random_arrangement_text(_RNG) for i in range(25)}
ENTRIES = [*catalog.names(), "three-forms", *RANDOM]


@lru_cache(maxsize=None)
def _entry(name):
    if name in RANDOM:
        return saturate(parse_arrangement(RANDOM[name]).product())
    return _sat(name)


@pytest.mark.parametrize("name", ENTRIES)
def test_the_count_is_the_walk(name):
    # the generator degrees of I the pick gives are those the walk
    # picks, and N(f)'s and e2 are what the walk's degrees gave, with
    # the full rank growth of the lift shifts against J_e
    sat = _entry(name)
    scan = sat.generators
    walked = list(reference_walk(sat).degrees)
    assert list(scan.degrees) == walked
    data = sat.data
    e = data.e
    n_degrees = [k for k in walked if k != e]
    e2 = 3 - data.rank_at(e)
    if e < sat.reg_saturated() + 2:
        grew = _growth(*data.rref_at(e), _shifted(sat, e), slice_dim(e))
        e2 = 3 - (sat.i_dim(e) - walked.count(e)) + grew
        n_degrees += [e] * (sat.n_dim(e) - grew)
    assert list(scan.n_degrees) == sorted(n_degrees)
    assert scan.e2 == e2


@pytest.mark.parametrize("name", ENTRIES)
def test_the_saturated_closed_form_is_the_walked_table(name):
    # the S/I_f table read off the Hilbert function must be the walk's
    # generators and the relation walk over their module up to r_I + 2
    sat = _entry(name)
    walked = reference_walk(sat)
    relations = walked.relations(sat.reg_saturated() + 2)[0]
    assert betti_saturated(sat).twists == (walked.degrees,
                                           tuple(sorted(relations)))


@pytest.mark.parametrize("name", ENTRIES)
def test_the_picks_generate_the_saturation(name):
    # the module of the picks has the slices of I in every degree up to
    # r_I + 2, past reg(I) = r_I + 1
    sat = _entry(name)
    scan = sat.generators
    picks = FormsIdeal(scan.vectors, scan.degrees)
    assert all(picks.rank_at(k) == sat.i_dim(k)
               for k in range(sat.reg_saturated() + 3))
