"""Invariants checked against Groebner bases computed by sympy.

Every other Hilbert-function check in the suite re-reads ranks from the
package's own elimination kernel, so a fault there could pass them all.
Here the Milnor table and N(f) come from sympy's Groebner bases instead:

* dim (S/J_f)_k counts the degree-k monomials outside the leading
  terms of a grevlex Groebner basis of (f_x, f_y, f_z);
* the saturation is I_f = J_f : l^oo for a linear form l, found by
  eliminating t from J_f + (1 - t*l) in lex order, and
  n_k = dim (S/J_f)_k - dim (S/I_f)_k.

J_f : l^oo drops the primary components of J_f supported on the line
l = 0, so it is I_f only when l misses every singular point.  With
l = x + 2y + 5z, which passes through a node of generic-5, the table
comes out as [0, 0, 0, 1, 3, 3, 1, 1, 1, 1] instead of
[0, 0, 0, 0, 2, 2, 0, 0, 0, 0].  So N(f) is computed for two forms and
both must agree with the package.  The same oracle saturates one ideal
of three cubics that are not the partials of a curve, the path of
``saturate_three_forms``.
"""

import pytest

from curvesat import (Arrangement, catalog, milnor_dims, n_table,
                      parse_poly, saturate_three_forms)

sympy = pytest.importorskip("sympy")

X, Y, Z, T = sympy.symbols("x y z t")

MILNOR_CURVES = ("nodal-5", "nf-d6-k4", "braid", "generic-5", "fermat-6",
                 "near-pencil-4")
N_CURVES = ("nf-d5-k2", "generic-5", "braid", "nodal-5", "nf-d6-k3",
            "near-pencil-4")
FORMS = ((3, -1, 7), (2, 5, -3))
# three cubics that are not the partials of one curve, with content;
# test_resolution checks their table [0, 1, 4, 5, 4, 1, 0] by hand
THREE_FORMS = ("2*x^3 - 4*x*y*z", "x^2*y + 3*y^2*z", "x*z^2 - y^3")


def _curve(name):
    obj = catalog.load(name)
    return obj.product() if isinstance(obj, Arrangement) else obj


def _to_sympy(f):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * X ** m.ex * Y ** m.ey * Z ** m.ez
               for m, c in f.terms.items())


def _jacobian(f):
    g = _to_sympy(f)
    return [sympy.diff(g, v) for v in (X, Y, Z)]


def _leading_exponents(basis, order):
    return [sympy.Poly(g, X, Y, Z).monoms(order=order)[0] for g in basis]


def _standard_monomial_counts(leads, top):
    """dim (S/I)_k for k = 0..top, I with the given leading monomials."""
    dims = []
    for k in range(top + 1):
        free = 0
        for a in range(k + 1):
            for b in range(k - a + 1):
                c = k - a - b
                if not any(a >= u and b >= v and c >= w
                           for u, v, w in leads):
                    free += 1
        dims.append(free)
    return dims


def _milnor_oracle(gens, top):
    """dim (S/J)_k for k = 0..top, J generated by the sympy forms gens."""
    basis = sympy.groebner(gens, X, Y, Z, order="grevlex")
    return _standard_monomial_counts(_leading_exponents(basis.exprs, "grevlex"), top)


def _n_oracle(gens, form, top):
    """dim (I/J)_k for k = 0..top, I = J : l^oo with l the linear form
    of coefficients form, J generated by the sympy forms gens."""
    ell = form[0] * X + form[1] * Y + form[2] * Z
    basis = sympy.groebner(list(gens) + [1 - T * ell], T, X, Y, Z,
                           order="lex")
    saturated = [g for g in basis.exprs if not g.has(T)]
    sat_dims = _standard_monomial_counts(_leading_exponents(saturated, "lex"), top)
    return [m - s for m, s in zip(_milnor_oracle(gens, top), sat_dims)]


@pytest.mark.parametrize("name", MILNOR_CURVES)
def test_milnor_table_matches_groebner_basis(name):
    f = _curve(name)
    dims = milnor_dims(f)
    assert dims == _milnor_oracle(_jacobian(f), len(dims) - 1)


@pytest.mark.parametrize("name", N_CURVES)
def test_n_table_matches_saturation_by_elimination(name):
    f = _curve(name)
    table = n_table(f)
    for form in FORMS:
        assert table == _n_oracle(_jacobian(f), form, len(table) - 1), form


def test_three_form_n_table_matches_saturation_by_elimination():
    # the descent of saturate_three_forms is driven by the same
    # Hilbert-function identity as the curve path; here its table
    # meets a Groebner basis instead
    gens = [parse_poly(t) for t in THREE_FORMS]
    table = saturate_three_forms(*gens).n_table
    for form in FORMS:
        assert table == _n_oracle([_to_sympy(g) for g in gens], form,
                                  len(table) - 1), form
