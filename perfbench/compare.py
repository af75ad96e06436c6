"""Summarize one set of benchmark results, or compare two.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Reads the result files run.py wrote into each directory (``--results``).
For each workload and end-to-end metric it prints the median, the
quartiles and the spread (distance between the quartiles over the
median) of the untraced runs.  Given a second directory it also prints
the change of the median and flags it when it is worse than the
metric's bound in BENCHMARK.json, and it requires identical per-curve
report digests for every workload and seed the two sets share.  Traced
runs take part in the digest check: tracing must not change a report.

Exit status: 0 when everything holds, 1 when a median is worse than its
bound or a digest differs, 2 when the runs used different backends,
which makes their timings incomparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list:
    return [json.loads(p.read_text())
            for p in sorted(directory.glob("*-trace[01].json"))]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results, metrics) -> dict:
    """workload -> metric -> (q1, median, q3, spread)."""
    values = defaultdict(lambda: defaultdict(list))
    for r in results:
        if r["trace"] == 0:
            for m in metrics:
                values[r["workload"]][m].append(r["metrics"][m])
    out = {}
    for workload, per_metric in values.items():
        out[workload] = {}
        for m, vals in per_metric.items():
            q1, _, q3 = quartiles(vals)
            med = statistics.median(vals)
            out[workload][m] = (q1, med, q3, (q3 - q1) / med, len(vals))
    return out


def digest_mismatches(results) -> list:
    seen = {}
    bad = []
    for r in results:
        key = (r["workload"], r["environment"]["seed"])
        for curve, digest in r["digests"].items():
            want = seen.setdefault(key + (curve,), digest)
            if digest != want:
                bad.append(f"{key[0]} seed {key[1]} {curve}")
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(Path(d)) for d in argv]
    for d, results in zip(argv, sets):
        if not results:
            print(f"no result files in {d}", file=sys.stderr)
            return 2
    backends = {r["environment"]["backend"] for rs in sets for r in rs}
    if len(backends) > 1:
        print(f"refusing to compare runs on different backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2

    status = 0
    summaries = [summarize(rs, bounds) for rs in sets]
    for workload in sorted(summaries[0]):
        for name, spec_m in bounds.items():
            q1, med, q3, spread, n = summaries[0][workload][name]
            line = (f"{workload:<13} {name:<12} n={n:<2} median {med:.4g} "
                    f"{spec_m['unit']} q1 {q1:.4g} q3 {q3:.4g} "
                    f"spread {spread:.3f} (bound {spec_m['bound']})")
            if len(summaries) == 2 and workload in summaries[1]:
                _, med2, _, spread2, n2 = summaries[1][workload][name]
                change = med2 / med - 1
                worse = change if spec_m["better"] == "lower" else -change
                flag = "WORSE" if worse > spec_m["bound"] else "ok"
                if flag == "WORSE":
                    status = 1
                line += (f" | n={n2} median {med2:.4g} spread "
                         f"{spread2:.3f} change {change:+.3f} {flag}")
            print(line)
    bad = digest_mismatches([r for rs in sets for r in rs])
    for item in bad:
        print(f"digest differs: {item}")
    if bad:
        status = 1
    print(f"digests: {'identical' if not bad else 'DIFFER'} over "
          f"{sum(len(rs) for rs in sets)} result files")
    return status


if __name__ == "__main__":
    sys.exit(main())
