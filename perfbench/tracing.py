"""Per-layer tracing of the courantalg library from outside.

`instrument(lib)` wraps the public functions of each layer of a freshly
imported library (see `load.load_library`).  A module-level function is
rebound under every name that any courantalg module binds it to, so calls
made through `from .rothstein import roth_bracket` are traced as well as
calls through `rothstein.roth_bracket`.  Methods are replaced on their class.

Three kinds of wrapper exist:

- span: records (name, start, end, parent) and the span's self time, which is
  its duration minus the time covered by the spans it encloses.  A call made
  while a span of the same name is open (recursion within one layer, which
  also covers the layer's public functions calling each other) folds into
  the outermost span and is counted as a recursive call.
- leaf: for the polynomial arithmetic, which runs millions of times per op.
  It keeps a call count and a time total instead of storing spans, and still
  subtracts its time from the enclosing span's self time.
- counter: a call count only, for calls that are too fine to time.

Spans stay in memory; `Tracer.write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter

# Spans kept in memory per run; past this only the aggregates are updated.
MAX_STORED_SPANS = 200_000

# (metric prefix, kind, module, attribute or Class.method names)
TARGETS = [
    ("poly.mul", "leaf", "poly", ["Poly.__mul__", "Poly.__rmul__"]),
    ("poly.add", "leaf", "poly", ["Poly.__add__", "Poly.__sub__"]),
    ("poly.partial", "counter", "poly", ["Poly.partial"]),
    ("rothstein.roth_bracket", "span", "rothstein", ["roth_bracket"]),
    ("rothstein.wedge", "span", "rothstein", ["roth_wedge", "RothElement.wedge"]),
    ("modules.curvature", "span", "modules", ["curvature"]),
    ("modules.is_metric", "counter", "modules", ["Connection.is_metric"]),
    ("cmaps.cbracket", "span", "cmaps", ["cbracket", "cmap_bracket"]),
    ("cmaps.eval", "span", "cmaps", ["Cochain.__call__", "Cochain.eval_level", "cmap_eval"]),
    ("cmaps.eval_mono", "counter", "cmaps", ["Cochain._eval_mono"]),
    ("cmaps.insert", "span", "cmaps", ["insert"]),
    ("cmaps.cmap_verify", "span", "cmaps", ["cmap_verify"]),
    ("cmaps.wedge", "span", "cmaps", ["cwedge", "cwedge_shuffle", "cmap_wedge"]),
    ("symbol_map.apply_J", "span", "symbol_map", ["apply_J"]),
    ("symbol_map.chat_membership", "span", "symbol_map", ["chat_membership"]),
    ("symbol_map.invert_J", "span", "symbol_map", ["invert_J_deg2", "invert_J_deg3"]),
    ("linalg.rank", "span", "linalg", ["rank"]),
    ("linalg.solve", "span", "linalg", ["solve"]),
    ("deform.delta_block", "span", "deform", ["delta_block"]),
    ("deform.delta_squared", "span", "deform", ["delta_squared_is_zero"]),
    ("deform.verify_courant", "span", "deform", ["verify_courant"]),
    ("deform.jacobi_identity_holds", "span", "deform", ["jacobi_identity_holds"]),
    ("textforms.parse", "span", "textforms", ["parse_poly", "parse_roth", "parse_roth_term"]),
    ("cli.run_document", "span", "cli", ["run_document"]),
]

# Every per-layer metric a traced run reports, in BENCHMARK.json order.
PER_LAYER = [
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.add.calls", "count"), ("poly.add.self_s", "s"),
    ("poly.partial.calls", "count"),
    ("rothstein.roth_bracket.calls", "count"), ("rothstein.roth_bracket.recursive_calls", "count"),
    ("rothstein.roth_bracket.self_s", "s"), ("rothstein.wedge.self_s", "s"),
    ("modules.curvature.calls", "count"), ("modules.curvature.self_s", "s"),
    ("modules.is_metric.calls", "count"),
    ("cmaps.cbracket.calls", "count"), ("cmaps.cbracket.recursive_calls", "count"),
    ("cmaps.cbracket.self_s", "s"),
    ("cmaps.bracket_cache.entries", "count"), ("cmaps.bracket_cache.hit_ratio", "ratio"),
    ("cmaps.eval.calls", "count"), ("cmaps.eval.self_s", "s"), ("cmaps.eval_mono.calls", "count"),
    ("cmaps.insert.self_s", "s"), ("cmaps.cmap_verify.self_s", "s"), ("cmaps.wedge.self_s", "s"),
    ("symbol_map.apply_J.calls", "count"), ("symbol_map.apply_J.self_s", "s"),
    ("symbol_map.chat_membership.self_s", "s"), ("symbol_map.invert_J.self_s", "s"),
    ("linalg.rank.calls", "count"), ("linalg.rank.self_s", "s"),
    ("linalg.rank.max_cells", "count"), ("linalg.solve.self_s", "s"),
    ("deform.delta_block.self_s", "s"), ("deform.delta_block.max_dim", "count"),
    ("deform.delta_squared.self_s", "s"), ("deform.verify_courant.self_s", "s"),
    ("deform.jacobi_identity_holds.self_s", "s"),
    ("textforms.parse.calls", "count"), ("textforms.parse.self_s", "s"),
    ("cli.run_document.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Span store and per-name aggregates for one instrumented library."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.dropped_spans = 0
        self.stack: list[list] = []  # open spans: [name, start, child_seconds, span_id]
        self.open: set[str] = set()
        self.calls: dict[str, int] = {}
        self.tallies: dict[str, list] = {}  # leaf and counter names: [calls, seconds]
        self.recursive: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}  # outermost span durations, children included
        self.maxima: dict[str, int] = {}
        self.cache_lookups = 0
        self.cache_hits = 0
        self._next_id = 0

    def _note_max(self, name: str, value: int):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def span(self, name: str, fn, before=None, after=None):
        tracer = self
        stack = self.stack
        self.calls.setdefault(name, 0)
        self.recursive.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.total_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if name in tracer.open:
                tracer.recursive[name] += 1
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer.open.add(name)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.open.discard(name)
                duration = end - frame[1]
                tracer.self_s[name] += duration - frame[2]
                tracer.total_s[name] += duration
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if len(tracer.spans) < MAX_STORED_SPANS:
                    tracer.spans.append(
                        (name, frame[1], end, parent[3] if parent is not None else -1, span_id)
                    )
                else:
                    tracer.dropped_spans += 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def leaf(self, name: str, fn):
        stack = self.stack
        acc = self.tallies.setdefault(name, [0, 0.0])

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                acc[0] += 1
                acc[1] += duration
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def counter(self, name: str, fn):
        acc = self.tallies.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def _count(self, name: str) -> int:
        if name in self.tallies:
            return self.tallies[name][0]
        return self.calls.get(name, 0)

    def _seconds(self, name: str) -> float:
        if name in self.tallies:
            return self.tallies[name][1]
        return self.self_s.get(name, 0.0)

    def metrics(self, lib, overhead_ratio: float) -> dict:
        """Every per-layer metric as name -> (value, unit)."""
        values = {"trace.overhead_ratio": overhead_ratio}
        for metric, _ in PER_LAYER:
            if metric in values:
                continue
            prefix, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = self._count(prefix)
            elif stat == "recursive_calls":
                values[metric] = self.recursive.get(prefix, 0)
            elif stat == "self_s":
                values[metric] = self._seconds(prefix)
            elif stat in ("max_cells", "max_dim"):
                values[metric] = self.maxima.get(metric, 0)
            elif metric == "cmaps.bracket_cache.entries":
                values[metric] = len(lib.cmaps._BRACKET_CACHE)
            elif metric == "cmaps.bracket_cache.hit_ratio":
                values[metric] = self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0
            else:
                raise KeyError(metric)
        return {m: (values[m], unit) for m, unit in PER_LAYER}

    def write_spans(self, path):
        """Write the stored spans as JSON lines: name, start, end, parent id, id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")
            for name, start, end, parent, span_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, span_id]) + "\n")


def instrument(lib) -> Tracer:
    """Wrap every target of a freshly loaded library; returns the tracer."""
    tracer = Tracer()
    cmaps = lib.cmaps

    def bracket_lookup(args):
        # cbracket consults its cache only for nonzero arguments in degree order
        a, b = args[0], args[1]
        if a.is_zero() or b.is_zero() or a.degree > b.degree:
            return
        tracer.cache_lookups += 1
        if (a, b) in cmaps._BRACKET_CACHE:
            tracer.cache_hits += 1

    def rank_size(args):
        rows = args[0]
        tracer._note_max("linalg.rank.max_cells", len(rows) * (len(rows[0]) if rows else 0))

    def block_size(args, block):
        tracer._note_max("deform.delta_block.max_dim",
                         max(len(block.source_basis), len(block.target_basis)))

    hooks = {"cmaps.cbracket": {"before": bracket_lookup},
             "linalg.rank": {"before": rank_size},
             "deform.delta_block": {"after": block_size}}

    for prefix, kind, modname, attrs in TARGETS:
        home = getattr(lib, modname)
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, kind, prefix, original, hooks))
                continue
            original = getattr(home, attr)
            wrapped = _wrap(tracer, kind, prefix, original, hooks)
            for mod in lib.all_modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
    return tracer


def _wrap(tracer: Tracer, kind: str, prefix: str, fn, hooks):
    if kind == "leaf":
        return tracer.leaf(prefix, fn)
    if kind == "counter":
        return tracer.counter(prefix, fn)
    return tracer.span(prefix, fn, **hooks.get(prefix, {}))
