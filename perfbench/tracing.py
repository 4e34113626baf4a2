"""Per-layer spans recorded from outside the program.

Tracer.install() replaces the public functions of each domsat layer with
wrappers that count calls and time them, everywhere the function is
bound: module globals, module-level dicts such as
predicates.PREDICATES, and Graph.__init__ for graph construction.
Spans nest, so each name also gets its self time (busy time minus the
time its traced children took).  Spans are aggregated by name in memory
and written out when the run ends.  Names that a later version of the
program no longer has are skipped and read as zero.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# layer -> public functions timed in that layer
LAYER_FUNCTIONS = {
    "canon": ("canonical_form", "automorphism_order"),
    "graph6": ("graph6_encode", "graph6_decode"),
    "embed": ("embedding_exists", "copy_through_edge", "count_copies"),
    "enumeration": ("enumerate_graphs",),
    "search": ("min_edges", "density_profile"),
    "constructions": (
        "dom_turan", "path_family", "star_family",
        "cycle_gadget", "star_plus_pair", "bridge_family",
    ),
    "cli": ("main",),
}

GRAPH_NEW = "graphs.graph_new"
ENUMERATE = "enumeration.enumerate_graphs"
CANONICAL_FORM = "canon.canonical_form"


def domsat_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "domsat" or name.startswith("domsat.")) and m is not None]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [name, time taken by children so far]
        self._restore: list = []
        # canonical forms produced while enumerating, to measure dedup
        self.enum_canon_calls = 0
        self._enum_classes: set = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> float:
        self._open.append([name, 0.0])
        return perf_counter()

    def _leave(self, name: str, start: float) -> None:
        took = perf_counter() - start
        _, children = self._open.pop()
        self.busy[name] += took
        self.child[name] += children
        if self._open:
            self._open[-1][1] += took

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    start = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._leave(name, start)
                        return
                    tracer._leave(name, start)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            in_enum = bool(tracer._open) and tracer._open[-1][0] == ENUMERATE
            start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, start)
            if in_enum and name == CANONICAL_FORM:
                tracer.enum_canon_calls += 1
                tracer._enum_classes.add(result)
            return result

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function of the already imported domsat."""
        import domsat.graphs
        import domsat.predicates

        targets = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules.get(f"domsat.{layer}")
            for fname in names:
                fn = getattr(module, fname, None) if module else None
                if callable(fn):
                    targets[id(fn)] = (fn, f"{layer}.{fname}")
        for pname, fn in getattr(domsat.predicates, "PREDICATES", {}).items():
            targets[id(fn)] = (fn, f"predicates.{pname}")
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}

        for module in domsat_modules():
            space = vars(module)
            for attr, value in list(space.items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    self._patch(space, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and item is targets[id(item)][0]:
                            self._patch(value, key, wrappers[id(item)])

        graph = domsat.graphs.Graph
        init = graph.__init__

        def graph_init(g, *args, **kwargs):
            self.calls[GRAPH_NEW] += 1
            start = self._enter(GRAPH_NEW)
            try:
                init(g, *args, **kwargs)
            finally:
                self._leave(GRAPH_NEW, start)

        graph.__init__ = graph_init
        self._restore.append(lambda: setattr(graph, "__init__", init))

    def _patch(self, space: dict, key, new) -> None:
        old = space[key]
        space[key] = new
        self._restore.append(lambda: space.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregated spans: name -> [calls, busy seconds, self seconds]."""
        spans = {
            name: [self.calls[name], self.busy[name], self.busy[name] - self.child[name]]
            for name in self.calls
        }
        return {
            "spans": spans,
            "enum_canon_calls": self.enum_canon_calls,
            "enum_classes": len(self._enum_classes),
        }


def merge(total: dict, part: dict) -> dict:
    for name, (calls, busy, own) in part.get("spans", {}).items():
        acc = total.setdefault("spans", {}).setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += busy
        acc[2] += own
    for key in ("enum_canon_calls", "enum_classes"):
        total[key] = total.get(key, 0) + part.get(key, 0)
    return total


PREDICATE_NAMES = (
    "free", "saturated", "semi-saturated", "dominated", "dom-sat", "weakly-saturated",
)

# name -> unit; the per-layer metrics every traced run reports
PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "enumeration.busy_s": "s",
    "enumeration.classes": "count",
    "enumeration.dedup_ratio": "ratio",
    "canon.canonical_form.calls": "count",
    "canon.canonical_form.us_per_call": "us",
    "canon.automorphism_order.ms_per_call": "ms",
    "graphs.graph_new.calls": "count",
    "graphs.graph_new.busy_s": "s",
    "graph6.graph6_encode.busy_s": "s",
    "graph6.graph6_decode.us_per_call": "us",
    **{f"predicates.{p}.{k}": u for p in PREDICATE_NAMES
       for k, u in (("calls", "count"), ("us_per_call", "us"))},
    "embed.copy_through_edge.calls": "count",
    "embed.copy_through_edge.us_per_call": "us",
    "embed.embedding_exists.calls": "count",
    "embed.count_copies.ms_per_call": "ms",
    "constructions.build_ms": "ms",
    "search.self_s": "s",
    "cli.main.self_ms": "ms",
}


def layer_metrics(trace: dict, setup: dict, rounds: int, traced_wall_s: float) -> dict:
    """Per-layer metrics.  Counts and busy times are per round of the
    timed phase, so a run's figures do not depend on how many rounds fit
    in it; times per call also take in the calls made during set-up."""
    spans = trace.get("spans", {})
    both = merge(merge({}, trace), setup) if setup else trace

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def per_call(name, scale):
        n, t, _ = both.get("spans", {}).get(name, [0, 0.0, 0.0])
        return t / n * scale if n else 0.0

    builds = [f"constructions.{f}" for f in LAYER_FUNCTIONS["constructions"]]
    build_calls = sum(calls(b) for b in builds)
    values = {
        "trace.wall_s": traced_wall_s,
        "enumeration.busy_s": busy(ENUMERATE) / rounds,
        "enumeration.classes": trace.get("enum_classes", 0) / rounds,
        "enumeration.dedup_ratio": (
            trace["enum_classes"] / trace["enum_canon_calls"]
            if trace.get("enum_canon_calls") else 0.0
        ),
        "canon.canonical_form.calls": calls(CANONICAL_FORM) / rounds,
        "canon.canonical_form.us_per_call": per_call(CANONICAL_FORM, 1e6),
        "canon.automorphism_order.ms_per_call": per_call("canon.automorphism_order", 1e3),
        "graphs.graph_new.calls": calls(GRAPH_NEW) / rounds,
        "graphs.graph_new.busy_s": busy(GRAPH_NEW) / rounds,
        "graph6.graph6_encode.busy_s": busy("graph6.graph6_encode") / rounds,
        "graph6.graph6_decode.us_per_call": per_call("graph6.graph6_decode", 1e6),
        "embed.copy_through_edge.calls": calls("embed.copy_through_edge") / rounds,
        "embed.copy_through_edge.us_per_call": per_call("embed.copy_through_edge", 1e6),
        "embed.embedding_exists.calls": calls("embed.embedding_exists") / rounds,
        "embed.count_copies.ms_per_call": per_call("embed.count_copies", 1e3),
        "constructions.build_ms": (
            sum(busy(b) for b in builds) / build_calls * 1e3 if build_calls else 0.0
        ),
        "search.self_s": sum(
            spans.get(f"search.{f}", [0, 0.0, 0.0])[2] for f in LAYER_FUNCTIONS["search"]
        ) / rounds,
        "cli.main.self_ms": (
            spans["cli.main"][2] / calls("cli.main") * 1e3 if calls("cli.main") else 0.0
        ),
    }
    for p in PREDICATE_NAMES:
        values[f"predicates.{p}.calls"] = calls(f"predicates.{p}") / rounds
        values[f"predicates.{p}.us_per_call"] = per_call(f"predicates.{p}", 1e6)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
