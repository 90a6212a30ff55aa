"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces the public functions listed in ``TIMED`` and
``COUNTED`` with wrappers, in every loaded ``dihedra`` module that holds a
reference to them, so calls that one library function makes to another are
seen too.  Nothing under ``src/`` is edited.  A wrapper records only while
``tracer.active`` is true, which the round runner sets around building the
inputs and around each timed operation, so the benchmark's own checks are
not counted.

A timed wrapper keeps, per metric name, the number of calls, the total time
and the self time (its span minus the wrapped spans inside it).  Spans
(operation, name, start, end, parent) are kept in memory, up to
``SPAN_CAP``, and written as JSON lines by ``write_spans`` when the round
ends.  Counted wrappers only count calls: they sit on hot paths
(``DihedralElement.__mul__``) where a clock read per call would swamp what
it measures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

SPAN_CAP = 100_000

# (metric prefix, module, attribute): a module-level function, or
# "Class.method" for a method.
TIMED = [
    ("jacobian.quotient_genus", "dihedra.jacobian", "quotient_genus"),
    ("jacobian.quotient_decomposition", "dihedra.jacobian", "quotient_decomposition"),
    ("jacobian.prym_decomposition", "dihedra.jacobian", "prym_decomposition"),
    ("jacobian.full_decomposition", "dihedra.jacobian", "full_decomposition"),
    ("jacobian.classify", "dihedra.jacobian", "classify_complete"),
    ("jacobian.classify", "dihedra.jacobian", "classify_k_decompositions"),
    ("jacobian.prym_realization", "dihedra.jacobian", "prym_realization"),
    ("group.fixed_dim", "dihedra.group", "fixed_dim"),
    ("group.eigenvalue_exponents", "dihedra.group", "Irrep.eigenvalue_exponents"),
    ("realizability.is_realizable", "dihedra.realizability", "is_realizable"),
    ("realizability.enumerate_realizable_geosigs", "dihedra.realizability",
     "enumerate_realizable_geosigs"),
    ("realizability.generating_vector", "dihedra.realizability", "generating_vector"),
    ("correspondence.analytic_from_geosig", "dihedra.correspondence", "analytic_from_geosig"),
    ("correspondence.geosig_from_analytic", "dihedra.correspondence", "geosig_from_analytic"),
    ("oracle.scan_skes", "dihedra.oracle", "scan_skes"),
    ("oracle.enumerate_skes", "dihedra.oracle", "enumerate_skes"),
    ("oracle.chevalley_weil", "dihedra.oracle", "chevalley_weil"),
    ("oracle.generates", "dihedra.oracle", "GeneratingVector.generates"),
    ("oracle.verify_ske", "dihedra.oracle", "verify_ske"),
    ("cli.main", "dihedra.cli", "main"),
    ("signatures.parse", "dihedra.signatures", "parse_geometric_signature"),
    ("signatures.parse", "dihedra.signatures", "parse_plain_signature"),
]

COUNTED = [
    ("group.element_mul.calls", "dihedra.group", "DihedralElement.__mul__"),
    ("signatures.geometric_signature.constructed", "dihedra.signatures",
     "GeometricSignature.__post_init__"),
]

# Per-layer metrics the traced run reports, with their units.  Kept in the
# same order as the per_layer list of BENCHMARK.json.
LAYER_METRICS = [
    ("jacobian.quotient_genus.calls", "count"),
    ("jacobian.quotient_genus.self_s", "s"),
    ("group.element_mul.calls", "count"),
    ("jacobian.prym_decomposition.self_s", "s"),
    ("jacobian.quotient_decomposition.self_s", "s"),
    ("group.fixed_dim.calls", "count"),
    ("group.fixed_dim.self_s", "s"),
    ("realizability.is_realizable.calls", "count"),
    ("realizability.is_realizable.self_s", "s"),
    ("correspondence.analytic_from_geosig.calls", "count"),
    ("correspondence.analytic_from_geosig.self_s", "s"),
    ("realizability.enumerate_realizable_geosigs.self_s", "s"),
    ("jacobian.full_decomposition.self_s", "s"),
    ("jacobian.classify.self_s", "s"),
    ("signatures.geometric_signature.constructed", "count"),
    ("oracle.scan_skes.calls", "count"),
    ("oracle.scan_skes.self_s", "s"),
    ("oracle.scan_skes.leaves", "count"),
    ("oracle.scan_skes.leaves_per_s", "1/s"),
    ("oracle.scan_skes.leaf_s", "s"),
    ("oracle.enumerate_skes.records", "count"),
    ("oracle.enumerate_skes.self_s", "s"),
    ("oracle.chevalley_weil.calls", "count"),
    ("oracle.chevalley_weil.self_s", "s"),
    ("group.eigenvalue_exponents.self_s", "s"),
    ("realizability.generating_vector.calls", "count"),
    ("realizability.generating_vector.self_s", "s"),
    ("oracle.generates.calls", "count"),
    ("oracle.generates.self_s", "s"),
    ("oracle.verify_ske.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("signatures.parse.self_s", "s"),
    ("correspondence.geosig_from_analytic.self_s", "s"),
    ("jacobian.prym_realization.self_s", "s"),
]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.dropped = 0
        self._stack: list[list] = []  # [child_s, span index] per open span

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, t0: float) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([self.op, name, t0, None, parent])
        else:
            self.dropped += 1
        frame = [0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dt = t1 - t0
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[0]
        if self._stack:
            self._stack[-1][0] += dt
        if frame[1] >= 0:
            self.spans[frame[1]][3] = t1

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (used for the root of each
        operation)."""
        t0 = time.perf_counter()
        frame = self._enter(name, t0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, t0, time.perf_counter())

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock()
            frame = tracer._enter(name, t0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, t0, clock())

        return wrapper

    def _scan_skes(self, fn):
        """scan_skes with its leaf callback timed apart, so the scan's self
        time excludes the caller's per-leaf work."""
        tracer = self
        clock = time.perf_counter
        leaf_name = "oracle.scan_skes.leaf"

        def wrapper(n, sig, on_leaf, **kwargs):
            if not tracer.active:
                return fn(n, sig, on_leaf, **kwargs)

            def leaf(hyp, ell):
                tracer.counts["oracle.scan_skes.leaves"] += 1
                t0 = clock()
                # no span of its own (there can be millions of leaves);
                # spans inside it hang off the scan's span
                frame = [0.0, tracer._stack[-1][1]]
                tracer._stack.append(frame)
                try:
                    return on_leaf(hyp, ell)
                finally:
                    tracer._exit(leaf_name, frame, t0, clock())

            return timed(n, sig, leaf, **kwargs)

        timed = self._timed("oracle.scan_skes", fn)
        return wrapper

    def _enumerate_skes(self, fn):
        tracer = self
        timed = self._timed("oracle.enumerate_skes", fn)

        def wrapper(*args, **kwargs):
            records = timed(*args, **kwargs)
            if tracer.active:
                tracer.counts["oracle.enumerate_skes.records"] += len(records)
            return records

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Swap every listed function for its wrapper wherever a dihedra
        module refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "dihedra" or name.startswith("dihedra.")]
        plan = []
        for name, module, attr in TIMED:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            if name == "oracle.scan_skes":
                wrapped = self._scan_skes(original)
            elif name == "oracle.enumerate_skes":
                wrapped = self._enumerate_skes(original)
            else:
                wrapped = self._timed(name, original)
            plan.append((owner, key, original, wrapped))
        for name, module, attr in COUNTED:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            plan.append((owner, key, original, self._counted(name, original)))
        for owner, key, original, wrapped in plan:
            if isinstance(owner, type):
                setattr(owner, key, wrapped)
                continue
            for mod in modules:
                for ref, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, ref, wrapped)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        counted = {name for name, _, _ in COUNTED}
        counted |= {"oracle.scan_skes.leaves", "oracle.enumerate_skes.records"}
        zero = [0, 0.0, 0.0]
        out = {}
        for metric, _ in LAYER_METRICS:
            name, field = metric.rsplit(".", 1)
            if metric in counted:
                out[metric] = self.counts.get(metric, 0)
            elif field == "calls":
                out[metric] = self.stats.get(name, zero)[0]
            elif field == "self_s":
                out[metric] = self.stats.get(name, zero)[2]
            elif field == "leaf_s":
                out[metric] = self.stats.get("oracle.scan_skes.leaf", zero)[1]
            elif field == "leaves_per_s":
                scan_self = self.stats.get(name, zero)[2]
                leaves = self.counts.get("oracle.scan_skes.leaves", 0)
                out[metric] = leaves / scan_self if scan_self else 0.0
            else:
                raise KeyError(metric)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for op, name, t0, t1, parent in self.spans:
                fh.write(json.dumps(
                    {"op": op, "name": name, "start": t0, "end": t1, "parent": parent},
                    separators=(",", ":"),
                ) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
