"""One cold repetition of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE SCALE

MODE is 0 (untraced), 1 (traced) or setup (stop once the inputs are
ready, to sample set-up time alone).

Prints one JSON object: the set-up time (from process start to inputs
ready), the time of the job, every operation latency, the outcome of the
independent checks, the deterministic work counters, output digests,
peak RSS and, when traced, the spans.  Every time is read on the
reference clock of pace.py, except ``raw_wall_s`` (the job's wall time as
it passed), ``cpu_s`` (its CPU time) and ``slice_ms``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# The probe starts before anything else is imported, so that set-up time
# is read on the reference clock too.
import pace  # noqa: E402

PROBE = pace.Probe()
PROBE.start()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import spans  # noqa: E402

TRIANGLE_FREE_COUNTS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410}
MINIMAL_COUNTS = {5: 1, 6: 1, 7: 3, 8: 6}
BRUTE_FORCE_CAP = 2_000_000

# Sizes per scale; "smoke" is the reduced run of test_smoke.py.
SCALES = {
    "full": {
        "census_top_n": 8,
        "census_minimal": (5, 6, 7, 8),
        "census_sample": {9: 250, 10: 250},
        "census_relabelings": 2,
        "planted_sizes": tuple(20 + 60 * i // 59 for i in range(60)),
        "maxtf_sizes": tuple(30 + 90 * i // 59 for i in range(60)),
        # n**2 evenly spaced: the verdict costs O(n**2), so the latencies
        # around the median operation have no gaps.
        "cotriangle_sizes": tuple(round((900 + 13500 * i / 149) ** 0.5) for i in range(150)),
        "mycielski_levels": 4,
        "groups_orientations": None,
        "groups_small_models": 16,
        "groups_small_elements": 8,
        "groups_pentagon_elements": 100,
        "groups_big_elements": 3,
        "groups_iterative": 40,
    },
    "smoke": {
        "census_top_n": 6,
        "census_minimal": (5, 6),
        "census_sample": {9: 3, 10: 3},
        "census_relabelings": 2,
        "planted_sizes": (20, 30),
        "maxtf_sizes": (30, 40),
        "cotriangle_sizes": (30, 40, 50),
        "mycielski_levels": 2,
        "groups_orientations": 60,
        "groups_small_models": 3,
        "groups_small_elements": 2,
        "groups_pentagon_elements": 5,
        "groups_big_elements": 1,
        "groups_iterative": 5,
    },
}


class SetupDone(Exception):
    pass


class Run:
    """What one repetition measured and checked."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        # On pace.cpu_clock, and on the wall clock for the raw wall time.
        self.ready = self.done = 0.0
        self.ready_wall = self.done_wall = 0.0
        self.ops: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict = {}
        self.digests: dict = {}
        self.probes: dict = {}

    def inputs_ready(self) -> None:
        self.ready = pace.cpu_clock()
        self.ready_wall = time.perf_counter()
        if self.setup_only:
            raise SetupDone

    def job_done(self) -> None:
        self.done = pace.cpu_clock()
        self.done_wall = time.perf_counter()

    def op_since(self, start: float) -> None:
        """Record one operation that began at ``start`` on pace.cpu_clock."""
        self.ops.append((start, pace.cpu_clock()))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def timed(run: Run, fn, *args):
    start = pace.cpu_clock()
    value = fn(*args)
    run.op_since(start)
    return value


# -- census ------------------------------------------------------------------------


def census(api, rng, scale, run: Run) -> None:
    from solvgraph.graphs import _canonical_g6_cached

    sample = []
    for n, count in scale["census_sample"].items():
        low, high = n, n * n // 4
        for i in range(count):
            m = low + (high - low) * i // max(1, count - 1)
            adj = gen.random_triangle_free(rng, n, m)
            sample.append([gen.relabeled(rng, adj) for _ in range(scale["census_relabelings"])])
    # The sample runs in three mixed chunks spread through the job, so that
    # its operations sample the machine's speed at the start, middle and
    # end of a repetition rather than in one burst at the end.
    rng.shuffle(sample)
    forms: list = []

    def canonical_forms(chunk) -> None:
        forms.extend([timed(run, api.canonical_form, g) for g in group] for group in chunk)

    run.inputs_ready()

    top = scale["census_top_n"]
    canonical_forms(sample[0::3])
    classes = {n: api.enumerate_graphs(n, triangle_free=True) for n in range(1, top)}
    canonical_forms(sample[1::3])
    classes[top] = api.enumerate_graphs(top, triangle_free=True)
    minimal = {n: api.enumerate_minimal(n) for n in scale["census_minimal"]}
    lemmas = [api.check_minimal_lemmas(g) for n in minimal for g in minimal[n]]
    canonical_forms(sample[2::3])
    run.job_done()

    run.counters["graphs.canonical_cache.misses"] = _canonical_g6_cached.cache_info().misses
    for n, graphs in classes.items():
        run.check(len(graphs) == TRIANGLE_FREE_COUNTS[n], f"{len(graphs)} triangle-free classes on {n}")
        run.check(all(map(gen.is_triangle_free, graphs)), f"a class on {n} has a triangle")
    for n, graphs in minimal.items():
        run.check(len(graphs) == MINIMAL_COUNTS[n], f"{len(graphs)} minimal graphs on {n}")
    for report in lemmas:
        run.check(report.all_pass, f"lemma report {report}")
    for group in forms:
        run.check(len(set(group)) == 1, "canonical forms differ across relabelings")
    run.digests["census"] = gen.digest(
        [gen.graph6_of(g) for n in classes for g in classes[n]]
        + [gen.graph6_of(g) for n in minimal for g in minimal[n]]
    )


# -- recognize ---------------------------------------------------------------------


def recognize_inputs(rng, scale) -> list:
    """(input class, graph) pairs; every graph is a complement, so the
    verdict turns on the complement's triangles and 3-colourings."""
    inputs = []

    def names(n):
        out = [f"v{i}" for i in range(n)]
        rng.shuffle(out)
        return out

    for n in scale["planted_sizes"]:
        adj, order = gen.planted_three_colorable(rng, n, 2 * n)
        inputs.append(("planted", gen.labeled(gen.complement_adj(adj), names(n), order)))
    # The maximal triangle-free graphs come from a fixed stream and the seed
    # only names, orders and places them.  Their search cost varies from
    # graph to graph: seeded structures moved the class's search nodes by
    # +-10% between seeds, and wall_s with them; fixed ones by +-3%.
    fixed = random.Random("recognize:maxtf")
    for n in scale["maxtf_sizes"]:
        adj = gen.maximal_triangle_free(fixed, n)
        order = list(range(n))
        rng.shuffle(order)
        inputs.append(("maxtf", gen.labeled(gen.complement_adj(adj), names(n), order)))
    for n in scale["cotriangle_sizes"]:
        adj = gen.random_with_cotriangle(rng, n)
        inputs.append(("triangle", gen.labeled(adj, names(n))))
    level = gen.cycle(5)
    for _ in range(scale["mycielski_levels"]):
        level = gen.mycielski(level)
        n = len(level)
        inputs.append(("mycielski", gen.labeled(gen.complement_adj(level), [f"m{i}" for i in range(n)])))
    # Mixed order spreads each class over the whole repetition, so the
    # fast operations behind op_p50_ms sample the machine's speed over
    # the whole run rather than over one short burst.
    rng.shuffle(inputs)
    return inputs


def recognize(api, rng, scale, run: Run) -> None:
    inputs = recognize_inputs(rng, scale)
    run.inputs_ready()

    outcomes = []
    for cls, g in inputs:
        start = pace.cpu_clock()
        with api.span(f"bench.recognize.{cls}"):
            verdict = api.is_solvable_prime_graph(g)
            extra = None
            if verdict.realizable:
                o = api.canonical_orientation(g)
                violations = api.validate_frobenius_orientation(o)
                bound = api.sigma_partition_bound(api.analyze(o))
                extra = (o, violations, bound)
        run.op_since(start)
        outcomes.append((cls, g, verdict, extra))
    run.job_done()

    run.counters["realizability.search_nodes"] = sum(v.search_nodes for _, _, v, _ in outcomes)
    for cls, g, verdict, extra in outcomes:
        where = f"{cls} graph on {g.n} vertices"
        if verdict.realizable:
            o, violations, bound = extra
            run.check(cls in ("planted", "maxtf"), f"{where}: unexpected positive verdict")
            run.check(gen.complement_coloring_ok(g, verdict.certificate.assignment), f"{where}: bad certificate")
            run.check(not violations and gen.orients_complement(o, g), f"{where}: bad orientation")
            run.check(bound.holds and bound.n_vertices == g.n, f"{where}: partition bound")
        elif cls == "triangle":
            kind = verdict.violation.kind
            run.check(kind == "triangle-in-complement", f"{where}: violation {kind}")
            run.check(gen.cotriangle_ok(g, verdict.violation.vertices), f"{where}: bad triangle witness")
        else:
            kind = verdict.violation.kind
            run.check(cls != "planted", f"{where}: planted colouring missed")
            run.check(kind == "complement-not-3-colorable", f"{where}: violation {kind}")


# -- groups ------------------------------------------------------------------------


def plan_order(plan) -> int:
    """Group order from the plan: r**dim per module, the prime elsewhere."""
    total = 1
    for v, p in plan.prime_of.items():
        spec = plan.modules.get(v)
        total *= p if spec is None else spec.characteristic**spec.dimension
    return total


def module_dim(plan) -> int:
    return sum(spec.dimension for spec in plan.modules.values())


def draw_element(rng, model, k_rng=None):
    """Uniform element; the K part comes from k_rng when one is given."""
    from solvgraph import GroupElement

    k = tuple((k_rng or rng).randrange(p) for _, p, _ in model.k_factors)
    mods = tuple(tuple(rng.randrange(f.prime) for _ in range(f.dim)) for f in model.modules)
    return GroupElement(k, mods)


def groups(api, rng, scale, run: Run) -> None:
    sweep = gen.orientation_sweep()
    if scale["groups_orientations"] is not None:
        sweep = sweep[: scale["groups_orientations"]]
    pentagon = gen.pentagon_orientation()
    run.inputs_ready()

    plans, reports, documents = [], [], []
    for o in sweep:
        start = pace.cpu_clock()
        with api.span("bench.groups.orientation"):
            plan = api.synthesize(o, congruence="per-arc")
            report = api.round_trip_report(plan)
        run.op_since(start)
        plans.append(plan)
        reports.append(report)
        documents.append(json.dumps(api.plan_to_json_dict(plan), sort_keys=True).encode())

    dims = [module_dim(plan) for plan in plans]
    small = [i for i, d in enumerate(dims) if 1 <= d <= 35]
    chosen = [api.GroupModel(plans[i]) for i in rng.sample(small, scale["groups_small_models"])]
    pentagon_model = api.GroupModel(api.synthesize(pentagon))
    big_model = api.GroupModel(plans[dims.index(max(dims))])

    for model in chosen:
        for _ in range(scale["groups_small_elements"]):
            api.order(model, draw_element(rng, model))
    cross = []
    for i in range(scale["groups_pentagon_elements"]):
        x = draw_element(rng, pentagon_model)
        order = api.order(pentagon_model, x)
        if i < scale["groups_iterative"]:
            cross.append((order, api.iterative_order(pentagon_model, x)))
    # The K part alone sets the cost of order() on the big model (the
    # module part only enters one matrix-vector product), so it comes
    # from a fixed stream: the few calls then cost the same for every seed.
    fixed = random.Random("groups:big-model")
    with api.span("bench.groups.big_model"):
        for _ in range(scale["groups_big_elements"]):
            api.order(big_model, draw_element(rng, big_model, fixed))
    oracle = []
    for plan in plans:
        if plan_order(plan) <= BRUTE_FORCE_CAP:
            model = api.GroupModel(plan)
            oracle.append((api.compute_prime_graph(model), api.brute_force_prime_graph(model)))
    sigmas = [api.sigma_of_model(m) for m in chosen + [pentagon_model]]
    run.job_done()

    run.counters["synthesis.plans"] = len(plans)
    run.counters["synthesis.module_dim_sum"] = sum(dims)
    for o, report in zip(sweep, reports):
        ok = report["plan_valid"] and report["digraph_matches"] and report["prime_graph_matches"]
        run.check(ok, f"round trip of {sorted(o.arcs)}: {report}")
    for structural, enumerated in oracle:
        run.check(gen.edge_set(structural) == gen.edge_set(enumerated), "brute-force prime graph differs")
    for order, iterative in cross:
        run.check(order == iterative, f"order {order} != iterative order {iterative}")
    for model, sigma in zip(chosen + [pentagon_model], sigmas):
        run.check(1 <= sigma <= len(model.primes()), f"sigma {sigma} out of range")
    run.digests["groups"] = gen.digest(documents)


# -- cli ---------------------------------------------------------------------------

CLI_MAIN = "from solvgraph.cli import main; main()"
IMPORT_PROBE = (
    "import time; t = time.process_time(); import solvgraph.cli; "
    "print(time.process_time() - t)"
)
DATA = "perfbench/data"
CLI_VERBS = (
    ("check", ["check", f"{DATA}/c5.txt"]),
    ("orient", ["orient", f"{DATA}/c5.txt"]),
    ("validate", ["validate", f"{DATA}/pentagon.arcs"]),
    ("classify-girth", ["classify-girth", f"{DATA}/c5.txt"]),
    ("exceptions", ["exceptions"]),
    ("minimal-check", ["minimal", "check", f"{DATA}/c5.txt", "--lemmas"]),
    ("minimal-duplicate", ["minimal", "duplicate", f"{DATA}/c5.txt", "a"]),
    ("minimal-enumerate", ["minimal", "enumerate", "6"]),
    ("analyze", ["analyze", f"{DATA}/pentagon.arcs"]),
    ("synthesize", ["synthesize", f"{DATA}/pentagon.arcs"]),
    ("prime-graph", ["prime-graph", f"{DATA}/pentagon.plan.json"]),
    ("digraph", ["digraph", f"{DATA}/pentagon.plan.json"]),
    ("verify", ["verify", f"{DATA}/pentagon.plan.json"]),
    ("sigma", ["sigma", f"{DATA}/pentagon.plan.json"]),
)


def cli(api, rng, scale, run: Run) -> None:
    golden = json.loads((HERE / "golden" / "golden.json").read_text())["cli_exit"]
    expected = {
        verb: (golden[verb], (HERE / "golden" / f"{verb}.out").read_bytes()) for verb, _ in CLI_VERBS
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def call(argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
        )

    run.inputs_ready()
    results = []
    for verb, argv in CLI_VERBS:
        start = pace.cpu_clock()
        with api.span(f"cli.{verb}"):
            done = call(["-c", CLI_MAIN, *argv])
        run.op_since(start)
        results.append((verb, done))
    run.job_done()

    if api.traced:
        # (start, measured CPU s): scaled to the reference clock at the end.
        start = pace.cpu_clock()
        call(["-c", "pass"])
        run.probes["cli.interp_ms"] = (start, pace.cpu_clock() - start)
        start = pace.cpu_clock()
        probe = call(["-c", IMPORT_PROBE])
        run.probes["cli.import_ms"] = (start, float(probe.stdout))
    for verb, done in results:
        code, out = expected[verb]
        run.check(done.returncode == code, f"{verb}: exit {done.returncode}, expected {code}")
        run.check(done.stdout == out, f"{verb}: stdout differs from golden output")


WORKLOADS = {"census": census, "recognize": recognize, "groups": groups, "cli": cli}


def main(argv: list[str]) -> int:
    workload, seed, mode, scale_name = argv[0], int(argv[1]), argv[2], argv[3]
    if workload not in WORKLOADS or scale_name not in SCALES:
        print(f"unknown workload or scale: {workload} {scale_name}", file=sys.stderr)
        return 2
    tracer = spans.Tracer(now=pace.cpu_clock) if mode == "1" else None
    api = spans.bind(tracer)
    rng = random.Random(f"{workload}:{seed}")
    run = Run(setup_only=mode == "setup")
    try:
        WORKLOADS[workload](api, rng, SCALES[scale_name], run)
    except SetupDone:
        PROBE.stop()
        print(json.dumps({"setup_s": PROBE.clock().span(0.0, run.ready)}))
        return 0
    PROBE.stop()
    # The cli worker only waits for its verb processes; their CPU time
    # enters pace.cpu_clock as each one ends, at the speed of that moment.
    clock = PROBE.clock()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    import numpy

    doc = {
        "setup_s": clock.span(0.0, run.ready),
        "wall_s": clock.span(run.ready, run.done),
        "raw_wall_s": run.done_wall - run.ready_wall,
        "cpu_s": run.done - run.ready,
        "slice_ms": clock.slice_s * 1e3,
        "ops_ms": [clock.span(start, end) * 1e3 for start, end in run.ops],
        "probes": {
            name: measured * clock.factor_at(start) * 1e3 for name, (start, measured) in run.probes.items()
        },
        "rss_mb": rss_kb / 1024,
        "numpy": numpy.__version__,
    }
    doc.update((key, getattr(run, key)) for key in ("attempted", "failed", "problems", "counters", "digests"))
    if tracer is not None:
        doc["spans"] = [[name, clock(start), clock(end), parent] for name, start, end, parent in tracer.spans]
        doc["overhead_s"] = tracer.overhead_s * clock.factor
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
