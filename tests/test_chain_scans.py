"""The shift-chain scans of AR(f) and of module relations.

Each scan is compared with the from-scratch algorithm it replaced,
kept here as the reference: a kernel at every degree, and the rank of
the variable shifts of the previous degree's kernel.
"""

import pytest

from curvesat import catalog
from curvesat.exactla import IncrementalSpan, kernel_int, rank_int
from curvesat.jacobian import CurveData, FormsIdeal, shift_block_vector
from curvesat.parsing import Arrangement, parse_poly
from curvesat.poly import monomial_basis, monomial_index, slice_dim
from curvesat.resolution import (betti_jacobian, min_generators,
                                 module_syzygy_degrees)
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
    degrees, vectors = cd.ar_min_generators(top)
    assert (degrees, vectors) == reference_ar_generators(CurveData(f), top)
    assert degrees
    rels = module_syzygy_degrees(vectors, degrees, (0, 0, 0), top + 1)
    assert rels == reference_relation_degrees(vectors, degrees, (0, 0, 0),
                                              top + 1)
    # relations among the generators of the saturation, block shifts (0,)
    a, gens = min_generators(sat)
    ideal = [g.int_vector() for g in gens]
    r_top = sat.reg_saturated() + 2
    assert (module_syzygy_degrees(ideal, a, (0,), r_top)
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
