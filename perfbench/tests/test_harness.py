"""Tests of the benchmark harness itself (not of curvesat).

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import (WORKLOADS, Curve, Workload,  # noqa: E402
                       arrangement_tau, check_arrangement, check_binomial,
                       check_dense, recorded_curves, smooth_milnor)

cs = run.load_program()

SMALL = [
    Curve("nf-d4-k1", "poly", "2*y^4 - 3*x*z^3", irreducible=True,
          lefschetz_seeds=(7,), expect={"d": 4}),
    Curve("lines4", "arrangement", "x\ny\nx + y + z\nx - 2*y + 3*z\n",
          expect={"tau": 6}),
    Curve("quartic", "poly", "x^4 + y^4 + z^4 - x*y*z^2",
          expect={"d": 4}),
]


# checks nothing, for tests that only compare digests
UNCHECKED = Workload("small", None, lambda curve, report, samples: [])


def analyzed(curve):
    parse = (cs.parsing.parse_arrangement if curve.kind == "arrangement"
             else cs.parsing.parse_poly)
    report, _cd, sat = cs.analysis.analyze_full(
        parse(curve.text), name=curve.name, irreducible=curve.irreducible)
    samples = [cs.saturation.lefschetz_check(sat, seed=s)
               for s in curve.lefschetz_seeds]
    return report, samples


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name):
    gen = WORKLOADS[name].generate
    assert gen(3) == gen(3)
    assert len(gen(3)) == len(gen(4))
    if name != "binomials":  # binomial shapes are fixed; only a, b move
        assert gen(3) != gen(4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_inputs_replay_as_generated(name):
    curves = WORKLOADS[name].generate(5)
    result = json.loads(json.dumps(
        {"inputs": [dataclasses.asdict(c) for c in curves]}))
    assert recorded_curves(result) == curves


def test_random_arrangements_are_generic_with_a_fixed_line_count():
    for seed in range(5):
        for curve in WORKLOADS["arrangements"].generate(seed):
            lines = curve.text.splitlines()
            assert len(lines) == 7
            assert all(line.count("x") == line.count("y") ==
                       line.count("z") == 1 for line in lines)
            assert curve.expect["tau"] == 7 * 6 // 2


def test_dense_forms_have_every_monomial():
    for curve in WORKLOADS["dense-smooth"].generate(3):
        assert len(curve.text.split(" + ")) == 28   # monomials of degree 6
        assert "*x^6*y^0*z^0" in curve.text


def test_only_arrangements_add_the_ziegler_pair_when_traced():
    extra = WORKLOADS["arrangements"].traced_extra()
    assert [c.name for c in extra] == ["ziegler-A", "ziegler-Aprime"]
    assert WORKLOADS["binomials"].traced_extra() == []


def test_point_formula_matches_known_arrangements():
    # braid arrangement: four triple points and three double points
    braid = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1),
             (0, 1, -1)]
    assert arrangement_tau(braid) == 4 * 4 + 3
    # four lines in general position: six double points
    assert arrangement_tau([(1, 0, 0), (0, 1, 0), (1, 1, 1),
                            (1, -2, 3)]) == 6


def test_smooth_milnor_is_the_cube_of_the_geometric_series():
    assert smooth_milnor(3, 5) == [1, 3, 3, 1, 0, 0]
    assert sum(smooth_milnor(7, 30)) == 6 ** 3


def test_self_times_on_a_synthetic_span_tree():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [3, 6] overlapping 1;
    # 3: grandchild of 1 [2, 3]; 4: child [9, 12] clipped to the root
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_self_times_of_nested_spans_add_up_to_the_root():
    start = [0.0, 0.5, 0.75, 2.0, 5.0]
    end = [8.0, 1.5, 1.25, 4.0, 7.5]
    parent = [-1, 0, 1, 0, 0]
    assert sum(self_times(start, end, parent)) == pytest.approx(8.0)


def test_correct_reports_pass_their_checks():
    for curve, check in zip(SMALL, (check_binomial, check_arrangement,
                                    check_dense)):
        report, samples = analyzed(curve)
        assert check(curve, report, samples) == []


def test_corrupted_reports_trip_the_checks():
    nf, lines, quartic = SMALL
    report, samples = analyzed(nf)
    bad = [dataclasses.replace(report, tau=report.tau + 1),
           dataclasses.replace(report, n_table=(0,) * len(report.n_table)),
           dataclasses.replace(report, mdr=2)]
    for r in bad:
        assert check_binomial(nf, r, samples)
    failed = [dataclasses.replace(s, pattern_ok=False) for s in samples]
    assert check_binomial(nf, report, failed)

    report, samples = analyzed(lines)
    assert check_arrangement(lines, dataclasses.replace(report, tau=7), [])
    verdict = cs.Verdict("sigma-formula", "FAIL", {})
    assert check_arrangement(
        lines, dataclasses.replace(report, verdicts=(verdict,)), [])
    tables = {"jacobian": ((3, 3, 3), (5, 5)),
              "saturated": ((3, 3, 3), (5, 5))}
    wrong = dataclasses.replace(lines, expect={"tables": tables})
    assert check_arrangement(wrong, report, [])

    report, samples = analyzed(quartic)
    milnor = list(report.milnor_table)
    milnor[2] += 1
    assert check_dense(quartic,
                       dataclasses.replace(report, milnor_table=milnor), [])
    free = cs.BettiTable(((3, 3, 3), (6, 6)))
    assert check_dense(quartic,
                       dataclasses.replace(report, betti_jacobian=free), [])
    # a smooth form reported singular, or with tau above 0, while the
    # tables still look smooth
    nodal = dataclasses.replace(report.classification, kind="NODAL")
    assert check_dense(quartic,
                       dataclasses.replace(report, classification=nodal), [])
    assert check_dense(quartic, dataclasses.replace(report, tau=1), [])


def test_traced_and_untraced_passes_give_the_same_reports():
    plain = run.run_pass(cs, UNCHECKED, SMALL)
    before = cs.jacobian.rref_insert
    tracer = Tracer()
    with tracer:
        assert cs.jacobian.rref_insert is not before
        traced = run.run_pass(cs, UNCHECKED, SMALL, tracer)
    assert cs.jacobian.rref_insert is before
    digests = [c["digest"] for c in plain["curves"]]
    assert None not in digests
    assert digests == [c["digest"] for c in traced["curves"]]
    layers = {tracer.kinds[k][1] for k in tracer.kind}
    assert layers >= {"parsing", "poly", "exactla", "jacobian",
                      "saturation", "resolution", "classify", "analysis"}
    metrics = layer_metrics(tracer, traced["wall_s"])
    assert 0.5 < metrics["trace.layer_share"] <= 1.0
    assert metrics["exactla.insert.calls"] > 0
    assert set(tracer.curve) == {0, 1, 2}


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace in (False, True):
        _, metrics, _, _ = run.measure(cs, UNCHECKED, SMALL[:1], 0, trace)
        assert set(metrics) == set(run.metric_units(trace))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_untraced_runs_make_at_least_two_passes_in_reference_seconds():
    passes, metrics, measured, _ = run.measure(cs, UNCHECKED, SMALL, 0,
                                               False)
    assert len(passes) == run.MIN_PASSES
    for p in passes:
        assert p["wall_s"] == pytest.approx(
            sum(c["busy_s"] for c in p["curves"]))
        for c in p["curves"]:
            # one scale per curve, the machine's speed around it
            assert c["seconds"] / c["raw_seconds"] == \
                pytest.approx(c["busy_s"] / c["raw_busy_s"])
    assert metrics["wall_s"] > 0 and measured["wall_s"] > 0
    assert run.failures(passes) == []


def _result(directory, backend, digest):
    directory.mkdir()
    result = {"workload": "binomials", "trace": 0,
              "environment": {"backend": backend, "seed": 1},
              "digests": {"nf-d7-k1": digest},
              "metrics": {m: 1.0 for m in run.metric_units(False)}}
    (directory / "binomials-seed1-trace0.json").write_text(json.dumps(result))


def test_compare_refuses_results_from_different_backends(tmp_path):
    _result(tmp_path / "a", "python", "x")
    _result(tmp_path / "b", "c", "x")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def test_compare_flags_differing_digests(tmp_path):
    _result(tmp_path / "a", "python", "x")
    _result(tmp_path / "b", "python", "y")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    _result(tmp_path / "c", "python", "x")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 0
