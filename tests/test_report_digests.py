"""Reports stay byte-identical: the SHA-256 of the text and JSON report
of every catalog entry outside the Ziegler pair is pinned in
``data/report_digests.json``.  The Ziegler tables are checked by the
acceptance tests instead; the two take most of the catalog's run time.

A change that is meant to alter a report must regenerate the file and
say which entries moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from curvesat import catalog
from curvesat.analysis import analyze_catalog, emit_json

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "report_digests.json").read_text())
NAMES = [n for n in catalog.names() if not n.startswith("ziegler")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_entry_outside_the_ziegler_pair_is_pinned():
    assert sorted(DIGESTS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_report_digest(name):
    report = analyze_catalog(name)
    assert {"text": _sha(report.to_text()),
            "json": _sha(emit_json(report))} == DIGESTS[name]
