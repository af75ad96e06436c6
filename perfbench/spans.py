"""Spans around the calls between curvesat's layers, recorded from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each name in ``SITES`` at the place its caller looks it up (a module
global bound by ``from .exactla import ...``, a class attribute, or a
package attribute the harness calls through) with a wrapper that records
a span; ``uninstall`` puts the originals back.  A span is
a name and layer, a start and an end, the index of the enclosing span
and the id of the curve the harness is analyzing.  Spans stay in memory,
in flat arrays, until the run writes them out.

Self time is a span's duration minus the part of it its children cover,
so the self times of all spans add up to the time spent inside the
outermost spans, each second counted once, in the layer that spent it.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

# Layer names are the module names of the package; ``backend`` and
# ``_core_py`` run inside the ``exactla`` spans that call them.
LAYERS = ("parsing", "poly", "exactla", "jacobian", "saturation",
          "resolution", "classify", "analysis")

# Layers that call into exactla, for the per-caller split of its time.
CALLERS = ("jacobian", "saturation", "resolution", "classify")

# Plain spans: (layer, span name, owner, attribute).  An owner of the
# form "module:Class" patches a method on the class.
SITES = (
    ("analysis", "analysis.analyze", "curvesat.analysis", "analyze_full"),
    ("analysis", "analysis.emit_json", "curvesat.analysis", "emit_json"),
    ("parsing", "parsing.parse_poly", "curvesat.parsing", "parse_poly"),
    ("parsing", "parsing.parse_arrangement", "curvesat.parsing",
     "parse_arrangement"),
    ("parsing", "parsing.combinatorics", "curvesat.analysis", "combinatorics"),
    ("poly", "poly.mul", "curvesat.poly:HomogeneousPoly", "__mul__"),
    ("poly", "poly.partials", "curvesat.jacobian", "partials"),
    ("poly", "poly.primitivize", "curvesat.jacobian", "primitivize"),
    ("poly", "poly.columns", "curvesat.jacobian", "poly_columns_int"),
    ("exactla", "exactla.clear_row", "curvesat.saturation", "clear_row"),
    ("jacobian", "jacobian.rref_at", "curvesat.jacobian:FormsIdeal",
     "rref_at"),
    ("jacobian", "jacobian.kernel_at", "curvesat.jacobian:FormsIdeal",
     "kernel_at"),
    ("jacobian", "jacobian.tjurina", "curvesat.jacobian:CurveData",
     "tjurina"),
    ("jacobian", "jacobian.mdr", "curvesat.jacobian:CurveData", "mdr"),
    ("jacobian", "jacobian.ct", "curvesat.jacobian:CurveData",
     "coincidence_threshold"),
    ("jacobian", "jacobian.milnor_dims", "curvesat.jacobian:CurveData",
     "milnor_dims"),
    ("saturation", "saturation.saturate", "curvesat.analysis", "saturate"),
    ("saturation", "saturation.n_gens", "curvesat.analysis",
     "n_min_generators"),
    ("resolution", "resolution.betti_saturated", "curvesat.analysis",
     "betti_saturated"),
    ("resolution", "resolution.betti_jacobian", "curvesat.analysis",
     "betti_jacobian"),
    ("classify", "classify.classify", "curvesat.analysis", "classify"),
    ("classify", "classify.verdicts", "curvesat.analysis",
     "verify_identities"),
)

# Echelon insertion, one vector at a time: (owner, attribute, index of
# the inserted vector among the positional arguments).
INSERT_SITES = (
    ("curvesat.jacobian", "rref_insert", 2),
    ("curvesat.saturation", "rref_insert", 2),
    ("curvesat.resolution", "rref_insert", 2),
    ("curvesat.exactla:IncrementalSpan", "insert", 1),
)

# Batch elimination through the backend; these consume their rows.
BATCH_SITES = (
    ("curvesat.jacobian", "rref_int"),
    ("curvesat.jacobian", "kernel_int"),
    ("curvesat.jacobian", "rank_int"),
    ("curvesat.saturation", "kernel_int"),
    ("curvesat.resolution", "kernel_int"),
    ("curvesat.resolution", "rank_int"),
    ("curvesat.classify", "rank_int"),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        if row:
            best = max(best, max(row), -min(row))
    return best.bit_length()


class Tracer:
    """Records spans and counters while installed.

    Span ``i`` has kind ``kind[i]`` (an index into ``kinds``, a list of
    (name, layer) pairs), interval ``start[i]``..``end[i]`` in
    ``time.perf_counter`` seconds, the index ``parent[i]`` of its
    enclosing span (-1 at the top) and the curve id ``curve[i]``.
    """

    def __init__(self):
        self.kinds: list = []
        self._kind_ids: dict = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.curve = array("q")
        self.curve_id = -1
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._saved: list = []
        self._probe_kind = self._kind("trace.probe", "trace")

    def __len__(self) -> int:
        return len(self.start)

    def _kind(self, name: str, layer: str) -> int:
        got = self._kind_ids.get(name)
        if got is None:
            got = self._kind_ids[name] = len(self.kinds)
            self.kinds.append((name, layer))
        return got

    # -- spans ---------------------------------------------------------

    def _add(self, kind: int, start: float, end: float) -> int:
        self.kind.append(kind)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.curve.append(self.curve_id)
        return len(self.start) - 1

    def _open(self, kind: int) -> int:
        idx = self._add(kind, time.perf_counter(), 0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _caller(self) -> str:
        if not self._stack:
            return "harness"
        return self.kinds[self.kind[self._stack[-1]]][1]

    def _max_bits(self, rows) -> int:
        """Largest entry size of the traced call's input, measured in a
        span of the ``trace`` layer so no program layer pays for it."""
        t0 = time.perf_counter()
        bits = _max_bits(rows)
        self._add(self._probe_kind, t0, time.perf_counter())
        return bits

    def _plain(self, name: str, layer: str, fn):
        kind = self._kind(name, layer)

        def wrapper(*args, **kwargs):
            idx = self._open(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _by_caller(self, op: str) -> dict:
        return {layer: self._kind(f"exactla.{op}.{layer}", "exactla")
                for layer in LAYERS + ("harness",)}

    def _insert(self, fn, vec_pos: int):
        counts = self.counts
        kinds = self._by_caller("insert")

        def wrapper(*args, **kwargs):
            kind = kinds[self._caller()]
            bits = self._max_bits((args[vec_pos],))
            idx = self._open(kind)
            try:
                grew = fn(*args, **kwargs)
            finally:
                self._close(idx)
            counts["exactla.insert.calls"] += 1
            counts["exactla.insert.grew"] += bool(grew)
            if bits > counts["exactla.insert.max_bits"]:
                counts["exactla.insert.max_bits"] = bits
            return grew
        return wrapper

    def _batch(self, fn):
        counts = self.counts
        kinds = self._by_caller("batch")

        def wrapper(rows, ncols, *args, **kwargs):
            kind = kinds[self._caller()]
            bits = self._max_bits(rows)
            counts["exactla.batch.calls"] += 1
            counts["exactla.batch.cells"] += len(rows) * ncols
            if bits > counts["exactla.batch.max_bits"]:
                counts["exactla.batch.max_bits"] = bits
            idx = self._open(kind)
            try:
                return fn(rows, ncols, *args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _lefschetz(self, fn):
        counts = self.counts
        plain = self._plain("saturation.lefschetz", "saturation", fn)

        def wrapper(*args, **kwargs):
            data = plain(*args, **kwargs)
            counts["saturation.lefschetz.attempts"] += data.attempts
            counts["saturation.lefschetz.accepted"] += bool(data.pattern_ok)
            return data
        return wrapper

    def _ar_generators(self, fn):
        counts = self.counts
        plain = self._plain("jacobian.ar_min_generators", "jacobian", fn)

        def wrapper(cd, early_stop=True):
            # betti_jacobian asks for the full scan only when the
            # early-stopped table failed its Hilbert check
            if not early_stop:
                counts["resolution.rescans"] += 1
            return plain(cd, early_stop)
        return wrapper

    def dump(self) -> dict:
        """All spans as JSON-ready columns, times relative to the first."""
        t0 = self.start[0] if len(self) else 0.0
        return {
            "kinds": self.kinds,
            "kind": self.kind.tolist(),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
            "parent": self.parent.tolist(),
            "curve": self.curve.tolist(),
        }

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner: str, attr: str, wrapper_of) -> None:
        obj = _resolve(owner)
        original = obj.__dict__[attr] if isinstance(obj, type) \
            else getattr(obj, attr)
        self._saved.append((obj, attr, original))
        setattr(obj, attr, wrapper_of(original))

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, name, owner, attr in SITES:
            self._patch(owner, attr,
                        lambda fn, n=name, l=layer: self._plain(n, l, fn))
        for owner, attr, pos in INSERT_SITES:
            self._patch(owner, attr, lambda fn, p=pos: self._insert(fn, p))
        for owner, attr in BATCH_SITES:
            self._patch(owner, attr, self._batch)
        self._patch("curvesat.saturation", "lefschetz_check", self._lefschetz)
        self._patch("curvesat.jacobian:CurveData", "ar_min_generators",
                    self._ar_generators)
        return self

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(start, end, parent) -> list:
    """Per span: its duration minus the union of its children's
    intervals, each clipped to the span."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for a, b in sorted((max(start[c], lo), min(end[c], hi))
                           for c in children[i]):
            if b > reach:
                covered += b - max(a, reach)
                reach = b
        out.append(hi - lo - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    per_kind = [0.0] * len(tracer.kinds)
    calls = [0] * len(tracer.kinds)
    for kind, s in zip(tracer.kind, own):
        per_kind[kind] += s
        calls[kind] += 1
    by_name: dict = defaultdict(float)
    by_layer: dict = defaultdict(float)
    for (name, layer), s in zip(tracer.kinds, per_kind):
        by_name[name] += s
        by_layer[layer] += s
    rref_at_calls = sum(n for (name, _), n in zip(tracer.kinds, calls)
                        if name == "jacobian.rref_at")
    c = tracer.counts
    out = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    for kind in ("insert", "batch"):
        prefix = f"exactla.{kind}."
        for caller in CALLERS:
            out[f"exactla.{kind}.self_s.{caller}"] = by_name[prefix + caller]
        out[f"exactla.{kind}.self_s"] = sum(
            v for name, v in by_name.items() if name.startswith(prefix))
        out[f"exactla.{kind}.calls"] = c[f"exactla.{kind}.calls"]
        out[f"exactla.{kind}.max_bits"] = c[f"exactla.{kind}.max_bits"]
    out["exactla.insert.grew_ratio"] = _ratio(c["exactla.insert.grew"],
                                              c["exactla.insert.calls"])
    out["exactla.batch.cells"] = c["exactla.batch.cells"]
    out["jacobian.rref_at.calls"] = rref_at_calls
    for key, name in (("saturate", "saturation.saturate"),
                      ("n_gens", "saturation.n_gens"),
                      ("lefschetz", "saturation.lefschetz")):
        out[f"saturation.{key}.self_s"] = by_name[name]
    out["saturation.lefschetz.accept_ratio"] = _ratio(
        c["saturation.lefschetz.accepted"],
        c["saturation.lefschetz.attempts"])
    for key in ("betti_saturated", "betti_jacobian"):
        out[f"resolution.{key}.self_s"] = by_name[f"resolution.{key}"]
    out["resolution.rescans"] = c["resolution.rescans"]
    out["trace.self_s"] = by_layer["trace"]
    out["trace.spans"] = len(tracer)
    out["trace.layer_share"] = _ratio(
        sum(by_layer[layer] for layer in LAYERS), wall_s)
    return out
