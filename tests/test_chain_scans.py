"""The shift-chain scans of AR(f) and of module relations.

Each scan is compared with the from-scratch algorithm it replaced,
kept here as the reference: a kernel at every degree, and the rank of
the variable shifts of the previous degree's kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesat import catalog
from curvesat.exactla import (IncrementalSpan, kernel_int, rank_int,
                              rref_insert, rref_int)
from curvesat.jacobian import (CurveData, EchelonChain, FormsIdeal,
                               ShiftChain, shift_block_vector)
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import monomial_basis, monomial_index, slice_dim
from curvesat.resolution import (betti_jacobian, betti_saturated,
                                 min_generators)
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
        assert len(span) == len(kernel)
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


@pytest.mark.parametrize("name", CURVES)
def test_a_walk_hands_on_the_ranks_of_its_module(name):
    # the ranks a relation walk records for the module of its picks are
    # those of a cold elimination of that module's generator multiples;
    # walks: AR(f) among the partials, the relations of AR(f), and those
    # of the generators of the saturation
    cd = CurveData(_curve(name))
    sat = saturate(cd)
    top = sat.reg_jacobian() + 3
    a, gens = min_generators(sat)
    ideal = FormsIdeal([g.int_vector() for g in gens], a)
    walks = [(cd, top), (cd.relations(top)[1], top),
             (ideal, sat.reg_saturated() + 2)]
    for module, top in walks:
        walked = module.relations(top)[1]
        cold = FormsIdeal(walked.vectors, walked.degrees,
                          walked.block_shifts)
        assert walked._ranks == {k: cold.rank_at(k)
                                 for k in range(module.e, top + 1)}
    # and the generator walk of the saturation, over degrees 0..r_I + 2
    walked = sat.generators.module
    cold = FormsIdeal(walked.vectors, walked.degrees)
    assert walked._ranks == {k: cold.rank_at(k)
                             for k in range(sat.reg_saturated() + 3)}


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


@pytest.mark.parametrize("name, ar_kernels", [("fermat-5", [4]),
                                               ("nf-d7-k3", [1, 6])])
def test_kernels_only_where_a_generator_or_relation_appears(
        monkeypatch, name, ar_kernels):
    # AR(f) of fermat-5 is generated by the Koszul relations in degree
    # 4, that of nf-d7-k3 in degrees 1 and 6; no degree of either scan
    # carries a new relation below its top
    ar_degrees, relation_degrees = _count_kernels(monkeypatch)
    betti_jacobian(_curve(name))
    assert ar_degrees == ar_kernels
    assert relation_degrees == []


@pytest.mark.parametrize("name", ["fermat-5", "nf-d7-k3"])
def test_the_relations_of_ar_rebuild_no_slice(monkeypatch, name):
    # the walk over the relations of AR(f) reads the ranks the AR(f)
    # walk handed on: only the slices of J_f are ever eliminated
    modules = []
    rref_at = FormsIdeal.rref_at

    def recorded(self, k):
        modules.append(self)
        return rref_at(self, k)

    monkeypatch.setattr(FormsIdeal, "rref_at", recorded)
    betti_jacobian(_curve(name))
    assert modules
    assert all(isinstance(m, CurveData) for m in modules)


@pytest.mark.parametrize("name", ["nf-d7-k3", "nodal-5", "braid"])
def test_the_saturated_walk_rebuilds_no_slice(monkeypatch, name):
    # the S/I_f table walks the relations of the module the generator
    # walk returned, which carries that walk's ranks: no slice of the
    # I_f module is eliminated, only those of J_f
    modules = []
    rref_at = FormsIdeal.rref_at

    def recorded(self, k):
        modules.append(self)
        return rref_at(self, k)

    monkeypatch.setattr(FormsIdeal, "rref_at", recorded)
    betti_saturated(_curve(name))
    assert modules
    assert all(isinstance(m, CurveData) for m in modules)


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
def test_next_rank_is_the_rank_step_builds(data):
    # next_rank(extra) counts the slice step(extra) would build and
    # leaves the chain where it was, after any prior steps and inserts
    draw = data.draw
    shifts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    chain = EchelonChain(shifts, min(shifts) - 1)
    for _ in range(draw(st.integers(0, 3))):
        if chain.ncols():
            for vec in _vectors(draw, draw(st.integers(0, 2)), chain.ncols()):
                chain.insert(vec)
        ncols = sum(slice_dim(chain.k + 1 - t) for t in shifts)
        chain.step(_vectors(draw, draw(st.integers(0, 2)), ncols))
    ncols = sum(slice_dim(chain.k + 1 - t) for t in shifts)
    extra = _vectors(draw, draw(st.integers(0, 3)), ncols)
    before = (chain.k, [list(r) for r in chain.rows], list(chain.pivots))
    rank = chain.next_rank(extra)
    assert (chain.k, chain.rows, chain.pivots) == before
    chain.step(extra)
    assert rank == len(chain.pivots)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_echelon_chain_spans_what_the_canonical_chain_spans(data):
    # the walk's forward echelon chain and the canonical chain, driven
    # through the same steps, inserts and extras, agree on the pivots,
    # on every insert answer, and next_rank counts the slice the
    # canonical step builds; their rows span the same slice
    draw = data.draw
    shifts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    canonical = ShiftChain(shifts, min(shifts) - 1)
    echelon = EchelonChain(shifts, min(shifts) - 1)
    for _ in range(draw(st.integers(1, 4))):
        ncols = sum(slice_dim(canonical.k + 1 - t) for t in shifts)
        extra = _vectors(draw, draw(st.integers(0, 3)), ncols)
        rank = echelon.next_rank(extra)
        canonical.step(extra)
        assert rank == len(canonical.pivots)
        echelon.step(extra)
        assert echelon.pivots == canonical.pivots
        ncols = canonical.ncols()
        for vec in _vectors(draw, draw(st.integers(0, 2)), ncols):
            grew = rref_insert(canonical.pivots, canonical.rows, list(vec),
                               ncols)
            assert echelon.insert(vec) == grew
        assert echelon.pivots == canonical.pivots
        assert (rref_int([list(r) for r in echelon.rows], ncols)
                == (canonical.pivots, canonical.rows))


@pytest.mark.parametrize("name", ["fermat-5", "nf-d7-k3"])
def test_the_top_degree_of_a_walk_is_only_counted(monkeypatch, name):
    # a walk steps its chain to top - 1 and takes the rank at top
    # without building that slice: one extension of the walk's echelon
    # span per degree below top
    for module, top in _walks(name):
        first = module.relations(top)      # every slice of module cached
        steps, widths = [], []
        step, extend = EchelonChain.step, IncrementalSpan.extend

        def counted_step(chain, extra=()):
            steps.append(chain.k + 1)
            step(chain, extra)

        def recorded(span, vecs):
            widths.append(span.ncols)
            return extend(span, vecs)

        monkeypatch.setattr(EchelonChain, "step", counted_step)
        monkeypatch.setattr(IncrementalSpan, "extend", recorded)
        again = module.relations(top)
        monkeypatch.undo()
        assert again[0] == first[0]
        assert steps == list(range(module.e, top))
        assert widths == [sum(slice_dim(k - a) for a in module.degrees)
                          for k in range(module.e, top)]
