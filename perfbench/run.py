"""End-to-end and per-layer benchmark of curvesat.

    python3 perfbench/run.py --workload arrangements --seed 0 \\
        --seconds 30 --trace 0

Builds a workload's curves from the seed, analyzes each one through the
public API (parse, ``analyze``, ``emit_json``, plus ``lefschetz_check``
samples where the workload asks for them), checks every report and
prints the metrics, one per line, then one JSON object as the last line.
The program is imported from ``src/`` of the checkout this file sits
in; all work runs serially in this process with CURVESAT_THREADS unset.

``--trace 0`` reports the end-to-end metrics: passes over the curves
repeat while another one fits into ``--seconds`` (at least two run).
``--trace 1`` runs one untraced pass and one traced pass, which also
analyzes the workload's traced-only curves, and reports the per-layer
metrics of the traced one.  Metric names and units are the ones listed
in BENCHMARK.json.  Each run also writes its inputs, environment,
per-curve report digests and metrics (and, traced, its spans, gzipped)
to ``--results``.

Times of the end-to-end metrics are in reference seconds: each measured
interval times the machine's speed around it, taken from a fixed
pure-Python loop timed just before and just after (``speed``).  On a
shared machine the speed of the same code drifts by tens of percent
from one minute to the next; the scaling takes that drift out and
leaves changes of the program in.  The measured seconds are printed and
recorded beside them.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, recorded_curves  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 9
# Time of reference_loop on the machine the baseline in README.md was
# measured on (2-core x86-64 VM, Python 3.11); a reference second is a
# second of that machine.
REFERENCE_S = 0.0075
# fresh interpreter -> import -> first report of a trivial curve
SETUP_SNIPPET = ("import curvesat; "
                 "curvesat.emit_json(curvesat.analyze("
                 "curvesat.parse_poly('x*y')))")


def load_program():
    """Import curvesat from this checkout's src/, never from elsewhere."""
    if not (SRC / "curvesat" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC}/curvesat is missing")
    os.environ.pop("CURVESAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import curvesat
    if Path(curvesat.__file__).resolve().parent != SRC / "curvesat":
        raise SystemExit(f"imported curvesat from {curvesat.__file__}, "
                         f"not from {SRC}")
    return curvesat


def metric_units(trace: bool) -> dict:
    """name -> unit of the metrics a run prints, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work of the kinds the program
    does: a small-integer loop and Fraction arithmetic."""
    start = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    f = Fraction(1, 3)
    for i in range(1, 300):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
    return time.perf_counter() - start


def speed() -> float:
    """Reference seconds per measured second, right now."""
    return REFERENCE_S / min(reference_loop(), reference_loop())


def measure_setup() -> tuple:
    """Median set-up time in reference and in measured seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CURVESAT_THREADS", None)
    # the first start writes bytecode, which users pay once per install
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    scaled, measured = [], []
    for i in range(SETUP_REPEATS + 1):
        before = speed()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        if i:
            scaled.append(seconds * (before + speed()) / 2)
            measured.append(seconds)
    return statistics.median(scaled), statistics.median(measured)


def clear_program_caches() -> None:
    """Empty every lru_cache of the program, so each pass starts cold."""
    for name, module in list(sys.modules.items()):
        if name.startswith("curvesat.") and module is not None:
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(cs, workload, curves, tracer=None) -> dict:
    """Analyze and check every curve once.

    Per curve, ``seconds`` is parse + ``analyze`` + ``emit_json`` and
    ``busy_s`` adds the Lefschetz samples, both in reference seconds
    (``raw_`` ones measured); the pass's ``wall_s`` is the sum of the
    ``busy_s``.  Checking, hashing and timing the reference loop happen
    outside these intervals.  Program functions are looked up through
    their modules at each call, so an installed tracer sees them.
    """
    clear_program_caches()
    gc.collect()
    out = {"curves": []}
    start = time.perf_counter()
    before = speed()
    for i, curve in enumerate(curves):
        if tracer is not None:
            tracer.curve_id = i
        text = tb = problems = None
        t0 = time.perf_counter()
        try:
            parse = (cs.parsing.parse_arrangement
                     if curve.kind == "arrangement" else cs.parsing.parse_poly)
            report, _cd, sat = cs.analysis.analyze_full(
                parse(curve.text), name=curve.name,
                irreducible=curve.irreducible)
            text = cs.analysis.emit_json(report)
            t1 = time.perf_counter()
            samples = [cs.saturation.lefschetz_check(sat, seed=s)
                       for s in curve.lefschetz_seeds]
        except Exception as exc:  # a failing curve is counted, not fatal
            t1 = time.perf_counter()
            problems = [f"{type(exc).__name__}: {exc}"]
            tb = traceback.format_exc()
        t2 = time.perf_counter()
        after = speed()
        scale = (before + after) / 2
        before = after
        if problems is None:
            try:
                problems = workload.check(curve, report, samples)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
                tb = traceback.format_exc()
        out["curves"].append({
            "name": curve.name,
            "seconds": (t1 - t0) * scale, "raw_seconds": t1 - t0,
            "busy_s": (t2 - t0) * scale, "raw_busy_s": t2 - t0,
            "digest": (None if text is None
                       else hashlib.sha256(text.encode()).hexdigest()),
            "problems": problems, "traceback": tb})
    out["wall_s"] = sum(c["busy_s"] for c in out["curves"])
    out["raw_wall_s"] = sum(c["raw_busy_s"] for c in out["curves"])
    out["elapsed_s"] = time.perf_counter() - start
    out["shift_maps"] = cs.poly.shift_maps.cache_info()._asdict()
    return out


def _hit_ratio(info: dict) -> float:
    calls = info["hits"] + info["misses"]
    return info["hits"] / calls if calls else 0.0


def measure(cs, workload, curves, seconds: float, traced: bool,
            extra=()):
    """Returns (passes, metrics, measured seconds, tracer or None).

    Traced, the traced pass analyzes ``extra`` after ``curves``;
    ``trace.overhead_ratio`` compares the two passes on ``curves``.
    """
    if traced:
        plain = run_pass(cs, workload, curves)
        tracer = Tracer()
        with tracer:
            marked = run_pass(cs, workload, list(curves) + list(extra),
                              tracer)
        metrics = layer_metrics(tracer, marked["raw_wall_s"])
        common = marked["curves"][:len(curves)]
        metrics["trace.overhead_ratio"] = (
            sum(c["busy_s"] for c in common) / plain["wall_s"])
        metrics["poly.shift_maps.hit_ratio"] = _hit_ratio(
            marked["shift_maps"])
        measured = {"wall_s": marked["raw_wall_s"]}
        return [plain, marked], metrics, measured, tracer
    setup_s, raw_setup_s = measure_setup()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cs, workload, curves))
        took = statistics.median(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and \
                time.perf_counter() - start + took > seconds:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "curve_p50_s": statistics.median(
            c["seconds"] for p in passes for c in p["curves"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = {
        "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "curve_p50_s": statistics.median(
            c["raw_seconds"] for p in passes for c in p["curves"]),
        "setup_s": raw_setup_s,
    }
    return passes, metrics, measured, None


def failures(passes) -> list:
    """Per curve and pass: its problems, plus a digest that differs from
    the curve's digest in another pass (same input, same output)."""
    out = []
    first = {}
    for n, p in enumerate(passes):
        for c in p["curves"]:
            problems = list(c["problems"])
            want = first.setdefault(c["name"], c["digest"])
            if c["digest"] is not None and want is not None \
                    and c["digest"] != want:
                problems.append("report differs from an earlier pass")
            if problems:
                out.append({"pass": n, "curve": c["name"],
                            "problems": problems,
                            "traceback": c["traceback"]})
    return out


def environment(cs, seed: int) -> dict:
    return {
        "backend": cs.backend.BACKEND,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results", type=Path, default=HERE / "results",
                    help="directory for the run's result file")
    ap.add_argument("--replay", type=Path,
                    help="result file whose recorded inputs to run "
                         "instead of generating them from the seed")
    args = ap.parse_args(argv)

    cs = load_program()
    units = metric_units(bool(args.trace))
    workload = WORKLOADS[args.workload]
    if args.replay is not None:
        curves = recorded_curves(json.loads(args.replay.read_text()))
        extra = []
    else:
        curves = workload.generate(args.seed)
        extra = workload.traced_extra() if args.trace else []

    passes, metrics, measured, tracer = measure(
        cs, workload, curves, args.seconds, bool(args.trace), extra)
    failed = failures(passes)
    attempted = sum(len(p["curves"]) for p in passes)

    for f in failed:
        print(f"FAIL pass {f['pass']} {f['curve']}: "
              + "; ".join(f["problems"]))
    print(f"workload {args.workload} seed {args.seed} "
          f"backend {cs.backend.BACKEND} passes {len(passes)} "
          f"curves {attempted}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"fail_ratio {len(failed) / attempted:.6g} 1")
    for name, value in measured.items():
        print(f"measured {name} {value:.6g} s")

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(cs, args.seed),
        "inputs": [asdict(c) for c in list(curves) + list(extra)],
        "digests": {c["name"]: c["digest"] for c in passes[-1]["curves"]},
        "passes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "elapsed_s")}
                   | {"curve_s": {c["name"]: c["seconds"]
                                  for c in p["curves"]},
                      "raw_curve_s": {c["name"]: c["raw_seconds"]
                                      for c in p["curves"]}}
                   for p in passes],
        "metrics": metrics,
        "measured": measured,
        "attempted": attempted,
        "failed": len(failed),
        "failures": failed,
    }
    args.results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (args.results / f"{stem}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        with gzip.open(args.results / f"{stem}-spans.json.gz", "wt",
                       compresslevel=1) as fh:
            json.dump(tracer.dump(), fh)

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
