"""The domsat benchmark.

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each workload is a fixed set of
operations, run one at a time (a closed loop with one client) in whole
rounds, each round in a new seeded order, until the next round would end
after --seconds.  An operation's time is the upper quartile of its times
over the rounds (see "The host" in README.md for why not the median).
Outputs are checked against perfbench/naive.py.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, and
per-layer metrics, timed by wrappers around each layer's public
functions, with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_ROUNDS = 4        # so that an operation's upper quartile is not its slowest time
SETUP_REPEATS = 3     # before the timed phase; one more after each round

import checks  # noqa: E402
import naive  # noqa: E402
import selftest  # noqa: E402
from tracing import Tracer, layer_metrics, merge  # noqa: E402

# the verify.default_pool patterns, as edge lists
PATTERNS = {
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "K1,3": (4, [(0, 1), (0, 2), (0, 3)]),
}


def pattern_g6(name: str) -> str:
    n, edges = PATTERNS[name]
    return naive.g6_encode(n, naive.edge_mask(edges))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def clear_caches() -> None:
    """Empty every functools cache in domsat, so a repeated operation is
    not served from an earlier round."""
    for name, module in list(sys.modules.items()):
        if name.startswith("domsat") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class OpFailed(Exception):
    pass


# -- workloads -------------------------------------------------------------------


class SearchCold:
    """One `domsat compute --json` query per fresh interpreter."""

    QUERIES = (
        ("K3", 7, "saturated"),
        ("K4", 7, "saturated"),
        ("K3", 7, "dom-sat"),
        ("C4", 7, "dom-sat"),
        ("C5", 7, "dom-sat"),
        ("C5", 7, "semi-saturated"),
        ("C4", 7, "weakly-saturated"),
        ("K3", 8, "saturated"),
        ("P3", 8, "dom-sat"),
        ("P4", 8, "dom-sat"),
    )
    BRUTE_N = 6

    def __init__(self, seed: int, trace: bool):
        self.trace = trace
        self.env = dict(os.environ)
        self.env.pop("DOMSAT_CACHE", None)  # the cache would turn queries into hits
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.spans: dict = {}
        self.calls = 0

    def setup(self) -> list:
        # one interpreter start that imports the CLI, so compiled modules
        # exist before the first timed query
        subprocess.run([sys.executable, "-c", "import domsat.cli"],
                       env=self.env, cwd=ROOT, check=True)
        return [(pattern_g6(p), n, pred) for p, n, pred in self.QUERIES]

    def run(self, op):
        pattern, n, pred = op
        argv = ["compute", "--pattern", pattern, "--n", str(n), "--predicate", pred, "--json"]
        if self.trace:
            self.calls += 1
            out_file = OUT_DIR / f"query-{os.getpid()}-{self.calls}.json"
            cmd = [sys.executable, str(HERE / "traced_query.py"), str(out_file)] + argv
        else:
            cmd = [sys.executable, "-m", "domsat"] + argv
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if self.trace:
            merge(self.spans, json.loads(out_file.read_text()))
            out_file.unlink()
        return proc.stdout

    def label(self, op) -> str:
        return "compute --pattern {} --n {} --predicate {}".format(*op)

    def check(self, op, output) -> list[str]:
        pattern, n, pred = op
        return checks.check_search(pattern, n, pred, json.loads(output))

    def trace_checks(self) -> list[str]:
        """Slower checks, made in the traced run: the enumerator's class
        totals, and minimality by brute force at n = 6."""
        from domsat.enumeration import all_classes
        from domsat.graph6 import graph6_decode
        from domsat.search import min_edges

        errors = []
        for n in (7, 8):
            errors += checks.check_class_total(n, sum(1 for _ in all_classes(n)))
        for p, pred in sorted({(p, pred) for p, _, pred in self.QUERIES}):
            g6 = pattern_g6(p)
            res = min_edges(graph6_decode(g6), self.BRUTE_N, pred)
            errors += checks.check_search(g6, self.BRUTE_N, pred, res.to_json_dict())
            errors += checks.check_minimum(g6, self.BRUTE_N, pred, res.min_edges)
        return errors

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class PredicateScan:
    """One run_predicate call on a host handed over as graph6."""

    ORDERS = (6, 7, 8, 9, 10)
    DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)
    HOSTS_PER_CELL = 4
    # Host structures are drawn once from this fixed seed and only their
    # labellings from --seed: with structures drawn from --seed, the
    # slowest 1% of operations, and so op_ms.p99, changed with the seed.
    STRUCTURE_SEED = 0
    PREDICATES = ("dominated", "semi-saturated", "saturated", "dom-sat", "weakly-saturated")

    def __init__(self, seed: int, trace: bool):
        self.seed = seed

    def hosts(self) -> list[str]:
        """G(n, m) hosts, HOSTS_PER_CELL per (order, density) cell, each
        under two labellings drawn from the seed."""
        shapes = random.Random(self.STRUCTURE_SEED)
        labels = random.Random(self.seed)
        out = []
        for n in self.ORDERS:
            pairs = n * (n - 1) // 2
            for p in self.DENSITIES:
                for _ in range(self.HOSTS_PER_CELL):
                    mask = sum(1 << i for i in shapes.sample(range(pairs), round(p * pairs)))
                    for _ in range(2):
                        perm = list(range(n))
                        labels.shuffle(perm)
                        out.append(naive.g6_encode(n, naive.relabel(n, mask, perm)))
        return out

    def setup(self) -> list:
        from domsat.graph6 import graph6_decode

        self.host_g6 = self.hosts()
        hosts = [graph6_decode(h) for h in self.host_g6]
        patterns = {name: graph6_decode(pattern_g6(name)) for name in PATTERNS}
        return [(i, hosts[i], name, patterns[name], pred)
                for i in range(len(hosts)) for name in PATTERNS for pred in self.PREDICATES]

    def run(self, op):
        from domsat.predicates import run_predicate

        _, host, _, pattern, pred = op
        return run_predicate(pred, host, pattern).verdict

    def label(self, op) -> str:
        return f"{self.host_g6[op[0]]} {op[2]} {op[4]}"

    def check(self, op, output) -> list[str]:
        i, _, name, _, pred = op
        return checks.check_verdict(pattern_g6(name), self.host_g6[i], pred, output)

    def check_all(self, ops, outputs) -> list[str]:
        """The implications between verdicts on one host, and that the two
        labellings of a host get the same verdicts."""
        table = {(op[0], op[2], op[4]): outputs[k] for k, op in enumerate(ops) if k in outputs}
        errors = []
        for i, host in enumerate(self.host_g6):
            for name in PATTERNS:
                v = {pred: table.get((i, name, pred)) for pred in self.PREDICATES}
                if None in v.values():
                    continue
                errors += checks.check_implications(host, pattern_g6(name), v)
                if i % 2 and v != {p: table.get((i - 1, name, p)) for p in self.PREDICATES}:
                    errors.append(f"{host} and its relabelling {self.host_g6[i - 1]} "
                                  f"get different verdicts for {name}")
        return errors

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _dumbbell(r: int) -> list[tuple[int, int]]:
    side = [(u, v) for u in range(r) for v in range(u + 1, r)]
    return side + [(r + u, r + v) for u, v in side] + [(r - 1, r)]


def certify_instances() -> list[tuple]:
    """(label, builder, args, claim pattern as (n, edges), expected output
    fields) for every family instance: hosts on 12..24 vertices (dom_turan
    on 12..20), and dom_turan(30, 5), the large symmetric case for canon."""
    out = []

    def add(label, builder, args, pattern, forms, verdict=True):
        n = 2 * args[0] - 2 if builder == "star_plus_pair" else args[0]
        edges, copies, aut = forms
        want = {"n": n, "edges": edges, "copies": copies, "aut": aut, "dom-sat": verdict}
        out.append((label, builder, args, pattern, want))

    def clique(r):
        return r, [(u, v) for u in range(r) for v in range(u + 1, r)]

    orders = range(12, 25)
    for r in (3, 4, 5, 6):
        for n in range(12, 21):
            add(f"dom_turan({n},{r})", "dom_turan", (n, r), clique(r),
                naive.dom_turan_forms(n, r))
    add("dom_turan(30,5)", "dom_turan", (30, 5), clique(5), naive.dom_turan_forms(30, 5))
    for r in range(3, 14):
        for n in orders:
            if n % naive.path_component(r) == 0:
                add(f"path_family({n},{r})", "path_family", (n, r),
                    (r, [(i, i + 1) for i in range(r - 1)]), naive.path_forms(n, r))
    for r in (2, 3, 4, 5):
        for n in orders:
            if n % (2 * r - 1) == 0:
                add(f"star_family({n},{r})", "star_family", (n, r),
                    (r + 1, [(0, i) for i in range(1, r + 1)]), naive.star_forms(n, r))
    # loop length r-3 certifies; r-2 with two or more loops is the negative control
    for r, p, verdict in ((5, 2, True), (6, 3, True), (7, 4, True),
                          (5, 3, False), (6, 4, False), (7, 5, False)):
        for n in orders:
            if (n - r) % p == 0 and (n - r) // p >= 2:
                add(f"cycle_gadget({n},{r},{p})", "cycle_gadget", (n, r, p),
                    (r, [(i, (i + 1) % r) for i in range(r)]),
                    naive.cycle_gadget_forms(n, r, p), verdict)
    for s in (7, 8):
        add(f"star_plus_pair({s})", "star_plus_pair", (s,),
            (s, [(0, i) for i in range(1, s - 1)] + [(1, s - 1)]), naive.star_plus_forms(s))
    for r in (3, 4, 5):
        for n in orders:
            if n % (2 * r) == 0:
                add(f"bridge_family({n},{r})", "bridge_family", (n,), (2 * r, _dumbbell(r)),
                    naive.dumbbell_forms(n, r))
    return out


class Certify:
    """Build one witness family and certify it: the claimed predicate,
    canonical_graph6, automorphism_order and count_copies."""

    def __init__(self, seed: int, trace: bool):
        self.seed = seed

    def setup(self) -> list:
        from domsat.graphs import from_edges

        ops = []
        for label, builder, args, (k, edges), want in certify_instances():
            pattern = from_edges(k, edges)
            if builder == "bridge_family":
                args = (pattern,) + args
            ops.append((label, builder, args, pattern, want))
        return ops

    def before(self, op) -> None:
        clear_caches()

    def run(self, op):
        from domsat.canon import automorphism_order, canonical_graph6
        from domsat.embed import count_copies
        from domsat.predicates import run_predicate

        g = self._build(op)
        pattern = op[3]
        return {
            "n": g.n,
            "edges": g.edge_count,
            "dom-sat": run_predicate("dom-sat", g, pattern).verdict,
            "canonical": canonical_graph6(g),
            "aut": automorphism_order(g),
            "copies": count_copies(pattern, g),
        }

    def label(self, op) -> str:
        return op[0]

    def check(self, op, output) -> list[str]:
        return checks.check_family(op[0], op[4], output)

    # canonical_form time on a relabelled cycle_gadget grows steeply with
    # its loop count (minutes at 27 vertices), so larger hosts are left out
    RELABEL_MAX_N = 20

    def check_all(self, ops, outputs) -> list[str]:
        """canonical_graph6 must not change under a seeded relabelling of
        a host on at most RELABEL_MAX_N vertices."""
        from domsat.canon import canonical_graph6
        from domsat.graph6 import graph6_decode, graph6_encode

        rng = random.Random(self.seed)
        errors = []
        for k, op in enumerate(ops):
            if k not in outputs or op[4]["n"] > self.RELABEL_MAX_N:
                continue
            n, mask = naive.g6_decode(graph6_encode(self._build(op)))
            perm = list(range(n))
            rng.shuffle(perm)
            moved = graph6_decode(naive.g6_encode(n, naive.relabel(n, mask, perm)))
            if canonical_graph6(moved) != outputs[k]["canonical"]:
                errors.append(f"{op[0]}: canonical form changes under relabelling")
        return errors

    @staticmethod
    def _build(op):
        from domsat import constructions

        g = getattr(constructions, op[1])(*op[2])
        return g[1] if op[1] == "star_plus_pair" else g

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {"search-cold": SearchCold, "predicate-scan": PredicateScan, "certify": Certify}


# -- the run -----------------------------------------------------------------------


def measure(workload, ops, seconds: float, min_rounds: int, rng: random.Random,
            started: float, setup_s: list[float] | None) -> dict:
    """Whole rounds of every operation until the next round would end
    after `seconds` from `started`.  When setup_s is a list, the set-up is
    timed again after each round and appended to it, so that set-up
    samples, like operation samples, span the whole run."""
    times: dict[int, list[float]] = {k: [] for k in range(len(ops))}
    outputs: dict[int, object] = {}
    changed: set[int] = set()
    attempted = failed = rounds = 0
    longest = 0.0
    before = getattr(workload, "before", None)
    # The host slows each CPU in phases of its own, so rounds alternate
    # between the CPUs this process may use (query processes inherit it):
    # every operation is timed on each, and one CPU's slow phase reaches
    # at most its share of an operation's rounds.
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        order = list(range(len(ops)))
        rng.shuffle(order)
        round_start = perf_counter()
        for k in order:
            if before:
                before(ops[k])
            attempted += 1
            t0 = perf_counter()
            try:
                out = workload.run(ops[k])
            except Exception:  # one failed operation must not end the run
                failed += 1
                print(f"operation {k} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times[k].append(perf_counter() - t0)
            if k not in outputs:
                outputs[k] = out
            elif outputs[k] != out:
                changed.add(k)
        rounds += 1
        if rounds == 1:
            # later rounds add only this loop's samples, not program memory
            peak_rss_mb = workload.peak_rss_mb()
        if setup_s is not None:
            t0 = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - t0)
        longest = max(longest, perf_counter() - round_start)
        if rounds >= min_rounds and perf_counter() - started + longest > seconds:
            break
    os.sched_setaffinity(0, cpus)
    # The slow phase is the host's common state: the upper quartile reads
    # every operation in it and moves only if a run's slow share falls below
    # a quarter, where the median moved whenever a run caught more fast
    # phases than usual.
    op_s = {k: nearest_rank(sorted(t), 75) for k, t in times.items() if t}
    return {"op_s": op_s, "outputs": outputs, "changed": changed, "rounds": rounds,
            "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="domsat benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "domsat" / "__init__.py").is_file():
        print(f"error: no domsat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import domsat  # noqa: F401  (every layer is loaded before a tracer wraps them)

    failures = selftest.run()
    if failures:
        print("error: a check accepted a wrong output: " + "; ".join(failures), file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, bool(args.trace))
    # workloads that run domsat in this process are traced here, set-up
    # and timed phase apart; search-cold traces its query processes
    in_process = not hasattr(workload, "spans")
    setup_tracer = Tracer() if args.trace and in_process else None
    if setup_tracer:
        setup_tracer.install()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ops = workload.setup()
        setup_s.append(perf_counter() - t0)
    if setup_tracer:
        setup_tracer.uninstall()

    # a traced run spends its --seconds on the slower checks first, then
    # on at least one round
    errors: list[str] = []
    started = perf_counter()
    if args.trace and hasattr(workload, "trace_checks"):
        errors += workload.trace_checks()
    tracer = Tracer() if args.trace and in_process else None
    if tracer:
        tracer.install()
    try:
        res = measure(workload, ops, args.seconds, 1 if args.trace else MIN_ROUNDS,
                      random.Random(args.seed), started, None if args.trace else setup_s)
    finally:
        if tracer:
            tracer.uninstall()

    outputs = res["outputs"]
    for k in sorted(outputs):
        errors += workload.check(ops[k], outputs[k])
    if hasattr(workload, "check_all"):
        errors += workload.check_all(ops, outputs)
    errors += [f"operation {k} gave different outputs in different rounds"
               for k in sorted(res["changed"])]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    op_s = sorted(res["op_s"].values())
    wall_s = sum(op_s)
    if args.trace:
        spans = tracer.snapshot() if tracer else workload.spans
        setup_spans = setup_tracer.snapshot() if setup_tracer else {}
        metrics = layer_metrics(spans, setup_spans, res["rounds"], wall_s)
        (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {"rounds": res["rounds"], "timed": spans, "setup": setup_spans}, indent=1))
    else:
        op_ms = [t * 1e3 for t in op_s]
        values = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (wall_s, "s"),
            "op_ms.p50": (nearest_rank(op_ms, 50), "ms"),
            "op_ms.p90": (nearest_rank(op_ms, 90), "ms"),
            "op_ms.p99": (nearest_rank(op_ms, 99), "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        (OUT_DIR / f"ops-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {workload.label(ops[k]): t * 1e3 for k, t in sorted(res["op_s"].items())}, indent=1))
    print(f"{args.workload}: {len(ops)} operations x {res['rounds']} rounds, "
          f"{len(errors)} check failures", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
