"""Property sweep over the catalog plus random arrangements."""

import os
import random
import time

import pytest

from curvesat import catalog
from curvesat.parsing import parse_arrangement
from curvesat.suite import (_worker_count, property_names,
                            random_arrangement_text, run_suite)

EXPECTED_PROPERTIES = [
    "lefschetz-inequalities",
    "duality",
    "resolution-identities",
    "saturation-oracle",
    "module-vanishing",
    "syzygy-bound",
    "arrangement-tau",
    "n-generator-degrees",
    "jacobian-table-shape",
    "lefschetz-nearly-free",
    "verdicts",
]


def test_property_names_stable():
    assert property_names() == EXPECTED_PROPERTIES


def test_random_arrangement_text_is_deterministic():
    first = random_arrangement_text(random.Random(7))
    second = random_arrangement_text(random.Random(7))
    assert first == second
    arr = parse_arrangement(first)
    assert 4 <= arr.degree <= 9


def test_random_arrangements_vary_with_seed():
    texts = {random_arrangement_text(random.Random(s)) for s in range(6)}
    assert len(texts) > 1


def test_unknown_property_rejected_before_any_analysis():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="unknown suite properties"):
        run_suite(random_count=0, only=("no-such-property",))
    # validation must happen before the (slow) catalog sweep
    assert time.perf_counter() - start < 2.0


def test_run_suite_small_sweep():
    result = run_suite(random_count=2, seed=1)
    assert result.ok
    assert len(result.records) == len(catalog.names()) + 2
    assert [p.name for p in result.properties] == EXPECTED_PROPERTIES
    # the catalog is rich enough to exercise every property
    assert all(p.checked > 0 for p in result.properties)

    lines = result.summary_lines()
    assert lines[-1].startswith("suite: PASS")
    assert any(line.startswith("property duality:") for line in lines)

    data = result.to_jsonable()
    assert data["ok"] is True
    assert set(data["curves"]) == {r.name for r in result.records}
    assert [p["name"] for p in data["properties"]] == EXPECTED_PROPERTIES
    assert all(p["failures"] == [] for p in data["properties"])


def test_worker_count_is_clamped_to_the_cpu_count(monkeypatch):
    # reads the setting only; no worker process is started
    monkeypatch.setenv("CURVESAT_THREADS", str(10 ** 9))
    assert _worker_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("CURVESAT_THREADS", "-3")
    assert _worker_count() == 1
    monkeypatch.setenv("CURVESAT_THREADS", "many")
    assert _worker_count() == 1
