"""The public generator picks stay bit-identical: for every catalog
entry, the Ziegler pair included, the SHA-256 of a canonical JSON of
the picks of ``SaturationData.generators`` and of what the walks of
``jacobian.minimal_generators`` hand out is pinned in
``data/walk_digests.json``:

- ``min_generators(f)``: the generator degrees of I_f and the printed
  generators, the picks of ``SaturationData.generators``;
- ``CurveData.ar_min_generators(2(d - 1))``: the degrees of AR(f),
  which must also be the closed form ``resolution.ar_min_generators``,
  and the syzygy vectors of its module;
- the relation degrees of the module of those generators up to
  r_I + 2, the walk of ``FormsIdeal.relations``.

A change that is meant to alter a pick must regenerate the file
(``python tests/test_walk_digests.py``) and say which entries moved
and why.
"""

import hashlib
import json
from functools import cache
from pathlib import Path

import pytest

from curvesat import catalog
from curvesat.jacobian import CurveData, FormsIdeal
from curvesat.parsing import Arrangement
from curvesat.resolution import ar_min_generators, min_generators
from curvesat.saturation import saturate

PATH = Path(__file__).parent / "data" / "walk_digests.json"


def walks(name) -> dict:
    """The outputs of the three public walks on a catalog entry."""
    obj = catalog.load(name)
    cd = CurveData(obj.product() if isinstance(obj, Arrangement) else obj)
    sat = saturate(cd)
    degrees, gens = min_generators(sat)
    ar_degrees, ar = cd.ar_min_generators(2 * (cd.d - 1))
    # the walked degrees of AR(f) are the closed form's, mdr = 0 and
    # the Ziegler pair included
    assert sorted(ar_degrees) == ar_min_generators(sat)
    module = FormsIdeal([g.int_vector() for g in gens], degrees)
    relations = module.relations(sat.reg_saturated() + 2)[0]
    return {"min_generators": [degrees, [str(g) for g in gens]],
            "ar_min_generators": [ar_degrees, [list(v) for v in ar.vectors]],
            "generator_relations": relations}


def digest(name) -> str:
    text = json.dumps(walks(name), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def pinned() -> dict:
    return json.loads(PATH.read_text())


def test_every_catalog_entry_is_pinned():
    assert sorted(pinned()) == sorted(catalog.names())


@pytest.mark.parametrize("name", catalog.names())
def test_walk_digest(name):
    assert digest(name) == pinned()[name]


if __name__ == "__main__":
    PATH.write_text(json.dumps({name: digest(name)
                                for name in catalog.names()},
                               indent=1, sort_keys=True) + "\n")
