"""Span tracing for the benchmark's traced run.

The benchmark wraps the public functions listed in `TARGETS` from its own
files; nothing inside `compatlie` records spans.  A span records name,
start, end, parent span and job id.  Spans are kept in memory and written out
when the run ends.  A layer's self time is its span duration minus the part
of that interval covered by its child spans; its total time is the summed
duration of its outermost spans, children included, as a profiler's
inclusive time.

Wrapping is by object identity: each target is looked up once, and every
`compatlie.*` module namespace (and the owning class) that binds that very
object gets the wrapper, so `from .linalg import extend_basis`-style
rebindings are traced as well.  A target that no longer exists is reported
as absent instead of failing the run.

Some wrappers also count work where it happens: matrix cells and the largest
coefficient bit length after `Matrix.rref`, candidates kept by
`extend_basis`, and distinct argument values per job for the operator
builders.  That bookkeeping is timed as an `INSTRUMENT` span so it is taken
out of the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

INSTRUMENT = "~instrument"

# (module, qualified name) of every traced function.
TARGETS = (
    ("linalg", "Matrix.rref"),
    ("linalg", "extend_basis"),
    ("linalg", "Matrix.solve"),
    ("linalg", "Matrix.__mul__"),
    ("multilinear", "nr_compose"),
    ("multilinear", "ce_coboundary"),
    ("cohomology", "coboundary_matrix"),
    ("cohomology", "ce_matrix"),
    ("cohomology", "reduced_slice"),
    ("cohomology", "cohomology_dim"),
    ("core", "validate_pair"),
    ("core", "validate_rep"),
    ("deformation", "is_infinitesimal_deformation"),
    ("deformation", "cohomology_obstruction"),
    ("deformation", "nijenhuis_torsion"),
    ("extension", "validate_extension_datum"),
    ("extension", "maurer_cartan_verdict"),
    ("extension", "extensions_isomorphic_under"),
    ("extension", "gauge_transform"),
    ("poisson", "lie_poisson_rep"),
    ("poisson", "degree_block"),
    ("document", "parse"),
    ("cli", "main"),
)

# Extra per-layer metrics beyond `<name>.self_s`: (suffix, unit).
EXTRA = {
    "linalg.Matrix.rref": (("calls", "count"), ("cells", "count"), ("max_bits", "bits")),
    "linalg.extend_basis": (("kept_ratio", "ratio"),),
    "linalg.Matrix.solve": (("calls", "count"),),
    "multilinear.nr_compose": (("calls", "count"),),
    "multilinear.ce_coboundary": (("calls", "count"),),
    "cohomology.coboundary_matrix": (("calls", "count"), ("distinct_ratio", "ratio")),
    "cohomology.ce_matrix": (("calls", "count"), ("distinct_ratio", "ratio")),
}

# Builders whose distinct argument values per job are counted.
KEYED = ("cohomology.coboundary_matrix", "cohomology.ce_matrix")


def layer_metric_names():
    """Every per-layer metric this module produces, as (name, unit)."""
    out = []
    for module, qualname in TARGETS:
        name = f"{module}.{qualname}"
        out.extend((f"{name}.{suffix}", unit) for suffix, unit in EXTRA.get(name, ()))
        out.append((f"{name}.self_s", "s"))
        out.append((f"{name}.total_s", "s"))
    return out


def _canonical(value):
    """A hashable stand-in for an argument value, equal for equal values."""
    if hasattr(value, "bracket1") and hasattr(value, "bracket2"):
        return ("pair", tuple(value.bracket1.entries()), tuple(value.bracket2.entries()))
    try:
        hash(value)
    except TypeError:
        return ("repr", repr(value))
    return value


def _matrix_bits(m) -> int:
    bits = 0
    for i in range(m.rows):
        for x in m.row(i):
            if x:
                bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.keys = defaultdict(set)
        self.absent = []
        self.hook_failures = set()
        self._undo = []

    # -- recording -------------------------------------------------------------

    def _instrument(self, start):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([INSTRUMENT, start, perf_counter(), parent, self.job])

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        after = self._after(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if after is not None:
                start = perf_counter()
                try:
                    after(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function changed shape; its counters read 0
                    self.hook_failures.add(name)
                self._instrument(start)
            return result

        return traced

    def _after(self, name, fn):
        """The counting hook for a target, run after its span closes."""
        counts = self.counts
        if name == "linalg.Matrix.rref":

            def after(args, kwargs, result):
                counts[name + ".cells"] += args[0].rows * args[0].cols
                self.max_bits = max(self.max_bits, _matrix_bits(result[0]))

            return after
        if name == "linalg.extend_basis":
            sig = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                counts[name + ".candidates"] += len(bound.arguments["candidates"])
                counts[name + ".kept"] += len(result)

            return after
        if name in KEYED:
            sig = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                key = tuple(_canonical(v) for v in bound.arguments.values())
                self.keys[name].add((self.job, key))

            return after
        return None

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every target in every `compatlie` namespace binding it."""
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "compatlie" or n.startswith("compatlie."))
        ]
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            owner = sys.modules.get(f"compatlie.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(name)
                continue
            traced = self.wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, traced)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, traced)

    def _rebind(self, owner, attr, original, traced):
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        """Every metric of `layer_metric_names()` (absent targets read 0),
        plus the span count and the time spent in the counting hooks."""
        own = self_times(self.spans)
        calls = defaultdict(int)
        busy = defaultdict(float)
        total = defaultdict(float)
        for span, t in zip(self.spans, own):
            calls[span[0]] += 1
            busy[span[0]] += t
            if not _nested_in_same(self.spans, span):
                total[span[0]] += span[2] - span[1]
        values = {"linalg.Matrix.rref.max_bits": self.max_bits}
        for module, qualname in TARGETS:
            name = f"{module}.{qualname}"
            values[f"{name}.self_s"] = busy[name]
            values[f"{name}.total_s"] = total[name]
            values[f"{name}.calls"] = calls[name]
        values["linalg.Matrix.rref.cells"] = self.counts["linalg.Matrix.rref.cells"]
        cands = self.counts["linalg.extend_basis.candidates"]
        values["linalg.extend_basis.kept_ratio"] = (
            self.counts["linalg.extend_basis.kept"] / cands if cands else 0.0
        )
        for name in KEYED:
            n = calls[name]
            values[f"{name}.distinct_ratio"] = len(self.keys[name]) / n if n else 0.0
        out = {name: values[name] for name, _ in layer_metric_names()}
        out["trace.hook_s"] = busy[INSTRUMENT]
        out["trace.spans"] = len(self.spans) - calls[INSTRUMENT]
        return out

    def write(self, path):
        """The spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _nested_in_same(spans, span) -> bool:
    """Does the span sit inside another span of the same name?  Such spans
    are already part of the outer span's total time."""
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] == span[0]:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
