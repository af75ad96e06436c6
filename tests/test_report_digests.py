"""Reports stay byte-identical: the SHA-256 of the text and JSON report
of every catalog entry is pinned in ``data/report_digests.json``.  The
Ziegler pair takes most of the catalog's run time, so its two digests
are checked where ``test_acceptance`` already analyzes it for its
Betti tables, and this module checks the other entries.

A change that is meant to alter a report must regenerate the file and
say which entries moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from curvesat import catalog
from curvesat.analysis import analyze_full, emit_json

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "report_digests.json").read_text())
NAMES = [n for n in catalog.names() if not n.startswith("ziegler")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_catalog_entry_is_pinned():
    assert sorted(DIGESTS) == sorted(catalog.names())


@pytest.mark.parametrize("name", NAMES)
def test_report_digest(name):
    e = catalog.entry(name)
    report, cd, _ = analyze_full(catalog.load(name), name=e.name,
                                 irreducible=e.irreducible)
    assert {"text": _sha(report.to_text()),
            "json": _sha(emit_json(report))} == DIGESTS[name]
    # every entry certifies a degree, so its descent takes one-form
    # kernels (see test_saturation for an uncertified curve)
    assert cd.regular_degree() is not None
