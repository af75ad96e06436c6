"""The shift-chain scans of AR(f) and of module relations.

Each scan is compared with the from-scratch algorithm it replaced,
kept here as the reference: a kernel at every degree, and the rank of
the variable shifts of the previous degree's kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesat import catalog
from curvesat.exactla import (IncrementalSpan, back_phase, kernel_int,
                              rank_int, rref_insert, rref_int)
from curvesat.jacobian import (CurveData, FormsIdeal, ShiftChain,
                               shift_block_vector)
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import monomial_basis, monomial_index, slice_dim
from curvesat.resolution import min_generators
from curvesat.saturation import saturate

NODAL6 = "x*y*z^4 + x^6 + y^6"
# every coefficient nonzero; the curve is smooth
DENSE4 = ("2*x^4 - x^3*y + 3*x^3*z + x^2*y^2 - 2*x^2*y*z + x^2*z^2"
          " + 3*x*y^3 - x*y^2*z + 2*x*y*z^2 - 3*x*z^3 + y^4 + 2*y^3*z"
          " - y^2*z^2 + 3*y*z^3 - 2*z^4")

CURVES = ["fermat-5", "dense-4", "generic-5", "braid", "nf-d7-k3", "nodal-6",
          "concurrent-4"]


def _curve(name):
    if name == "dense-4":
        return parse_poly(DENSE4)
    if name == "nodal-6":
        return parse_poly(NODAL6)
    obj = catalog.load(name)
    return obj.product() if isinstance(obj, Arrangement) else obj


def _shifted(basis, k_from, block_shifts):
    return [shift_block_vector(v, var, k_from, block_shifts)
            for var in range(3) for v in basis]


def reference_ar_generators(cd, top):
    """AR(f) generators with the kernel at every degree, each picked
    greedily against the shifts of the previous degree's kernel."""
    degrees, vectors = [], []
    for m in range(cd.mdr(), top + 1):
        shifted = _shifted(cd.kernel_at(m - 1), m - 1, (0, 0, 0))
        ncols = 3 * slice_dim(m)
        base = rank_int([list(v) for v in shifted], ncols)
        kernel = cd.kernel_at(m)
        if len(kernel) == base:
            continue
        span = IncrementalSpan(ncols)
        for vec in shifted:
            span.insert(vec)
        for vec in kernel:
            if span.insert(vec):
                degrees.append(m)
                vectors.append(list(vec))
        assert len(span.pivots) == len(kernel)
    return degrees, vectors


def _times_monomial(vec, mu, k_from, block_shifts):
    k_to = k_from + mu.degree
    out = []
    start = 0
    for t in block_shifts:
        basis = monomial_basis(k_from - t)
        block = [0] * slice_dim(k_to - t)
        for mono, v in zip(basis, vec[start:start + len(basis)]):
            if v:
                block[monomial_index(mono * mu)] = v
        out.extend(block)
        start += len(basis)
    return out


def reference_relation_degrees(vectors, degrees, block_shifts, top):
    """Relation degrees with ``kernel_int`` of the generator map at
    every degree."""
    found = []
    prev = []
    for k in range(min(degrees), top + 1):
        cols = [_times_monomial(v, mu, e, block_shifts)
                for v, e in zip(vectors, degrees)
                for mu in monomial_basis(k - e)]
        rows = [list(t) for t in zip(*cols)]
        kern = kernel_int(rows, len(cols)) if cols else []
        base = rank_int(_shifted(prev, k - 1, tuple(degrees)),
                        sum(slice_dim(k - e) for e in degrees))
        found.extend([k] * (len(kern) - base))
        prev = kern
    return found


@pytest.mark.parametrize("name", CURVES)
def test_chain_scans_match_the_kernel_at_every_degree(name):
    f = _curve(name)
    cd = CurveData(f)
    sat = saturate(cd)
    top = sat.reg_jacobian() - cd.d + 3
    degrees, ar = cd.ar_min_generators(top)
    vectors = list(ar.vectors)
    assert (degrees, vectors) == reference_ar_generators(CurveData(f), top)
    assert degrees
    # relations of AR(f), in total degrees: AR(f) sits in ⊕ S(-(d-1))
    rels = ar.relations(top + cd.d)[0]
    assert rels == reference_relation_degrees(vectors, ar.degrees,
                                              ar.block_shifts, top + cd.d)
    # relations among the generators of the saturation, block shifts (0,)
    a, gens = min_generators(sat)
    ideal = [g.int_vector() for g in gens]
    r_top = sat.reg_saturated() + 2
    assert (FormsIdeal(ideal, a).relations(r_top)[0]
            == reference_relation_degrees(ideal, a, (0,), r_top))


def _count_kernels(monkeypatch):
    # AR(f) kernels are those of the curve's J_f, relation kernels those
    # of the modules the relation scans build
    ar_degrees, relation_degrees = [], []
    kernel_at = FormsIdeal.kernel_at

    def counted_kernel_at(self, m):
        if isinstance(self, CurveData):
            ar_degrees.append(m)
        else:
            relation_degrees.append(m + self.e)
        return kernel_at(self, m)

    monkeypatch.setattr(FormsIdeal, "kernel_at", counted_kernel_at)
    return ar_degrees, relation_degrees


def _ar_walks(name):
    """The AR(f) walk and the walk over its relations, to the tops the
    S/J_f table once read off the regularity: r_J - d + 3 and r_J + 3."""
    cd = CurveData(_curve(name))
    top = saturate(cd).reg_jacobian() - cd.d + 3

    def walk():
        cd.ar_min_generators(top)[1].relations(top + cd.d)
    return walk


@pytest.mark.parametrize("name, ar_kernels", [("fermat-5", [4]),
                                               ("nf-d7-k3", [1, 6])])
def test_kernels_only_where_a_generator_or_relation_appears(
        monkeypatch, name, ar_kernels):
    # AR(f) of fermat-5 is generated by the Koszul relations in degree
    # 4, that of nf-d7-k3 in degrees 1 and 6; no degree of either scan
    # carries a new relation below its top
    walk = _ar_walks(name)
    ar_degrees, relation_degrees = _count_kernels(monkeypatch)
    walk()
    assert ar_degrees == ar_kernels
    assert relation_degrees == []


def _walks(name):
    # the three walks of the resolutions: AR(f) among the partials, the
    # relations of AR(f), and those of the generators of the saturation
    cd = CurveData(_curve(name))
    sat = saturate(cd)
    top = sat.reg_jacobian() + 3
    a, gens = min_generators(sat)
    ideal = FormsIdeal([g.int_vector() for g in gens], a)
    return [(cd, top), (cd.relations(top)[1], top),
            (ideal, sat.reg_saturated() + 2)]


def _vectors(draw, count, ncols):
    entries = st.integers(-3, 3) | st.just(0)
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_echelon_chain_spans_what_the_canonical_chain_spans(data):
    # the walk's forward echelon chain and a chain made canonical by a
    # back phase after each step, as rref_at does, driven through the
    # same steps, inserts and extras, agree on the pivots and on every
    # insert answer; their rows span the same slice
    draw = data.draw
    shifts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    canonical = ShiftChain(shifts, min(shifts) - 1)
    echelon = ShiftChain(shifts, min(shifts) - 1)
    for _ in range(draw(st.integers(1, 4))):
        ncols = sum(slice_dim(canonical.k + 1 - t) for t in shifts)
        extra = _vectors(draw, draw(st.integers(0, 3)), ncols)
        canonical.step(extra)
        back_phase(canonical.pivots, canonical.rows, canonical.ncols)
        echelon.step(extra)
        assert echelon.pivots == canonical.pivots
        ncols = canonical.ncols
        for vec in _vectors(draw, draw(st.integers(0, 2)), ncols):
            grew = rref_insert(canonical.pivots, canonical.rows, list(vec),
                               ncols)
            assert echelon.insert(vec) == grew
        assert echelon.pivots == canonical.pivots
        assert (rref_int([list(r) for r in echelon.rows], ncols)
                == (canonical.pivots, canonical.rows))


# -- the walk against a reference that rebuilds each degree's span from
# -- the variable shifts of the previous one


def reference_walk(module, top):
    """(degrees, vectors) of ``module.relations(top)``: at each degree
    the span of the variable shifts of the previous degree's span, grown
    by the kernel vectors that enlarge it, in order; at top the new
    relations are only counted."""
    shifts = module.degrees
    degrees, vectors = [], []
    rows = []
    for k in range(module.e, top + 1):
        ncols = sum(slice_dim(k - a) for a in shifts)
        span = IncrementalSpan(ncols)
        span.extend(_shifted(rows, k - 1, shifts))
        count = ncols - module.rank_at(k) - len(span.pivots)
        degrees.extend([k] * count)
        if count and k < top:
            picked = [vec for vec in module.kernel_at(k - module.e)
                      if span.insert(vec)]
            assert len(picked) == count
            vectors.extend(picked)
        rows = span.rows
    return degrees, vectors


def _matches_reference(module, top):
    degrees, walked = module.relations(top)
    assert (degrees, [list(v) for v in walked.vectors]) \
        == reference_walk(module, top)
    assert walked.block_shifts == module.degrees
    return degrees


@pytest.mark.parametrize("name", ["fermat-5", "nf-d7-k3", "generic-5",
                                  "braid"])
def test_relation_walks_match_a_walk_on_full_coordinates(name):
    # J_f, AR(f) and the generators of I_f
    for module, top in _walks(name):
        _matches_reference(module, top)


def test_a_zero_partial_keeps_its_block():
    # f = xy: f_z = 0 puts e_3 among the relations of J_f, in degree 1,
    # beside the Koszul relation of x and y in degree 2
    cd = CurveData(parse_poly("x*y"))
    sat = saturate(cd)
    top = sat.reg_jacobian() + 3
    assert _matches_reference(cd, top) == [1, 2]
    a, gens = min_generators(sat)
    _matches_reference(cd.relations(top)[1], top)
    _matches_reference(FormsIdeal([g.int_vector() for g in gens], a),
                       sat.reg_saturated() + 2)


@pytest.mark.parametrize("vectors, degrees", [
    ([[0] * 3, [0, 1, 0], [1, 0, 0]], (1, 1, 1)),
    ([[0] * 3, [0] * 6, [1, 0, 0, 0, 0, 0]], (1, 2, 2)),
    ([[0] * 6, [0, 0, 1]], (2, 1)),
    ([[0] * 3, [0] * 3], (1, 1)),
])
def test_relation_walks_with_zero_generators_match_full_coordinates(
        vectors, degrees):
    # a zero generator v_i puts S(-a_i) e_i among the relations, also
    # where every generator is zero
    _matches_reference(FormsIdeal(vectors, degrees), max(degrees) + 2)


@st.composite
def small_modules(draw):
    """(vectors, degrees, block_shifts) of a module with one to four
    generators, some of them zero, in one or two blocks."""
    shifts = tuple(draw(st.lists(st.integers(0, 1), min_size=1,
                                 max_size=2)))
    degrees = draw(st.lists(st.integers(max(shifts), max(shifts) + 2),
                            min_size=1, max_size=4))
    vectors = []
    for a in degrees:
        ncols = sum(slice_dim(a - t) for t in shifts)
        if draw(st.booleans()):
            vectors.append([0] * ncols)
        else:
            vectors.append(_vectors(draw, 1, ncols)[0])
    return vectors, degrees, shifts


@settings(max_examples=60, deadline=None)
@given(small_modules())
def test_relation_walks_of_small_modules_match_full_coordinates(module):
    vectors, degrees, shifts = module
    _matches_reference(FormsIdeal(vectors, degrees, shifts),
                       max(degrees) + 2)
