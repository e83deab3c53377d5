"""solvgraph benchmark: one workload, cold repetitions, checked outputs.

    python3 perfbench/run.py --workload census --seed 1 --seconds 32 --trace 0

Each repetition runs the whole job of the workload in a fresh worker
process (perfbench/worker.py), so every ``lru_cache`` starts cold as it
does for a user script or CLI call.  Repetitions continue while another
one still fits in ``--seconds``.  Timings are medians over repetitions;
operation latencies are pooled over them.  Every time is read on the
reference clock of perfbench/pace.py, which takes out the wandering speed
of the shared machine by way of a calibration slice interleaved with the
work; the raw wall time is printed beside it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same job with a span around every library call the workload makes and
reports per-layer self times, latencies, work counters and the tracing
overhead; the spans are written to ``.perfbench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print the
same metrics with their units, the machine facts and the machine speed.
Exits 1 without a result when a worker fails or the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from pace import REF_SLICE_S  # noqa: E402
from spans import child_durations, median, percentile, summarize  # noqa: E402

WORKLOADS = ("census", "recognize", "groups", "cli")
# op_tail_ms percentile per workload.  Each leaves at least 10 samples
# beyond it even in a run with the fewest repetitions that fit (census
# 1 x 1000 operations, recognize 1 x 274, groups 1 x 634, cli 3 x 14).  It
# is fixed so that it does not jump with the number of repetitions.
TAIL_PERCENTILE = {"census": 95.0, "recognize": 90.0, "groups": 95.0, "cli": 75.0}
RUN_LIMIT_S = 170
MIN_SETUPS = 5
CLI_VERBS = (
    "check", "orient", "validate", "classify-girth", "exceptions", "minimal-check",
    "minimal-duplicate", "minimal-enumerate", "analyze", "synthesize", "prime-graph",
    "digraph", "verify", "sigma",
)
VERDICT_CLASSES = ("planted", "maxtf", "triangle", "mycielski")
LAYERS = ("graphs", "realizability", "analysis", "minimality", "synthesis", "model", "cli", "bench")
# Span names whose total self time is reported as "<name>.s".
TIMED_CALLS = (
    "graphs.enumerate_graphs", "minimality.enumerate_minimal", "minimality.check_minimal_lemmas",
    "realizability.is_solvable_prime_graph", "minimality.canonical_orientation",
    "realizability.validate_frobenius_orientation", "analysis.analyze", "synthesis.synthesize",
    "model.round_trip_report", "model.order", "model.iterative_order",
    "model.brute_force_prime_graph", "model.sigma_of_model",
)
COUNTERS = (
    "graphs.canonical_cache.misses", "realizability.search_nodes",
    "synthesis.plans", "synthesis.module_dim_sum",
)


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, scale: str, timeout: float) -> dict:
    # A fixed string-hash seed: set iteration order changes how much work
    # synthesize does (the median groups operation moved by up to 40%
    # between hash seeds), which would otherwise read as timing noise.
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, scale]
    launch = perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    end = perf_counter()
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    rep = json.loads(done.stdout.splitlines()[-1])
    rep["total_s"] = end - launch
    return rep


def run_reps(args, scale: str) -> tuple[list[dict], list[float]]:
    """Cold repetitions while another one still fits in --seconds, then
    set-up-only workers until MIN_SETUPS set-up times are in hand."""
    start = perf_counter()
    reps: list[dict] = []
    while True:
        elapsed = perf_counter() - start
        reps.append(run_worker(args.workload, args.seed, str(args.trace), scale, RUN_LIMIT_S - elapsed))
        elapsed = perf_counter() - start
        if elapsed + max(r["total_s"] for r in reps) > args.seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUPS:
        elapsed = perf_counter() - start
        setups.append(run_worker(args.workload, args.seed, "setup", scale, RUN_LIMIT_S - elapsed)["setup_s"])
    return reps, setups


def verify(reps: list[dict], golden: dict) -> tuple[int, int, list[str]]:
    """Outputs attempted and failed over all repetitions, adding the
    counter-repeatability and golden-digest checks to the workers' own."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]][:20]
    for key in reps[0]["counters"]:
        values = {r["counters"][key] for r in reps}
        attempted += 1
        if len(values) != 1:
            failed += 1
            problems.append(f"counter {key} differs across repetitions: {sorted(values)}")
    for rep in reps:
        for key, value in rep["digests"].items():
            attempted += 1
            if value != golden[key]:
                failed += 1
                problems.append(f"{key} digest {value} != golden {golden[key]}")
    return attempted, failed, problems


def end_to_end(reps: list[dict], setups: list[float], q: float) -> tuple[dict, dict]:
    ops = [x for r in reps for x in r["ops_ms"]]
    tail_ms, beyond = percentile(ops, q)
    metrics = {
        "wall_s": (median(r["wall_s"] for r in reps), "s"),
        "setup_s": (median(setups), "s"),
        "op_p50_ms": (median(ops), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (median(r["rss_mb"] for r in reps), "MB"),
    }
    notes = {"ops": len(ops), "tail_beyond": beyond}
    return metrics, notes


def per_layer(reps: list[dict]) -> dict:
    summaries = [summarize(r["spans"]) for r in reps]

    def self_s(name):
        return median(s["by_name"].get(name, {}).get("self_s", 0.0) for s in summaries)

    def durations(name):
        return [d for s in summaries for d in s["by_name"].get(name, {}).get("durations", [])]

    def children(name, parent_prefix):
        pooled: dict = {}
        for rep in reps:
            for group, values in child_durations(rep["spans"], name, parent_prefix).items():
                pooled.setdefault(group, []).extend(values)
        return pooled

    metrics = {f"{name}.s": (self_s(name), "s") for name in TIMED_CALLS}
    canonical = durations("graphs.canonical_form")
    metrics["graphs.canonical_form.p50_ms"] = (median(canonical) * 1e3, "ms")
    metrics["graphs.canonical_form.tail_ms"] = (percentile(canonical, TAIL_PERCENTILE["census"])[0] * 1e3, "ms")
    metrics["synthesis.synthesize.p50_ms"] = (median(durations("synthesis.synthesize")) * 1e3, "ms")
    metrics["model.order.p50_us"] = (median(durations("model.order")) * 1e6, "us")
    # The few calls on the dimension-210 model are the tail of order().
    big = children("model.order", "bench.groups.").get("big_model", [])
    metrics["model.order.tail_ms"] = (median(big) * 1e3, "ms")
    verdicts = children("realizability.is_solvable_prime_graph", "bench.recognize.")
    for cls in VERDICT_CLASSES:
        metrics[f"realizability.verdict.{cls}.p50_ms"] = (median(verdicts.get(cls, [])) * 1e3, "ms")
    for key in COUNTERS:
        metrics[key] = (reps[0]["counters"].get(key, 0), "count")
    for probe in ("cli.interp_ms", "cli.import_ms"):
        metrics[probe] = (median(r["probes"].get(probe, 0.0) for r in reps), "ms")
    for verb in CLI_VERBS:
        metrics[f"cli.{verb}.p50_ms"] = (median(durations(f"cli.{verb}")) * 1e3, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median(s["by_layer"].get(layer, 0.0) for s in summaries), "s")
    metrics["trace.wall_s"] = (median(r["wall_s"] for r in reps), "s")
    metrics["trace.overhead_s"] = (median(r["overhead_s"] for r in reps), "s")
    metrics["trace.overhead_pct"] = (median(100 * r["overhead_s"] / r["wall_s"] for r in reps), "%")
    metrics["trace.spans"] = (len(reps[0]["spans"]), "count")
    metrics["noise.slice_ms"] = (median(r["slice_ms"] for r in reps), "ms")
    metrics["noise.raw_wall_s"] = (median(r["raw_wall_s"] for r in reps), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for test_smoke.py")
    args = parser.parse_args(argv)
    scale = "smoke" if args.smoke else "full"

    if not (ROOT / "src" / "solvgraph" / "__init__.py").is_file():
        print(f"error: no solvgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    golden = json.loads((HERE / "golden" / "golden.json").read_text())["digests"][scale]

    try:
        reps, setups = run_reps(args, scale)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = verify(reps, golden)
    if args.trace:
        metrics = per_layer(reps)
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([r["spans"] for r in reps]))
    else:
        metrics, notes = end_to_end(reps, setups, TAIL_PERCENTILE[args.workload])

    walls = [r["wall_s"] for r in reps]
    raw_walls = [r["raw_wall_s"] for r in reps]
    slices = [r["slice_ms"] for r in reps]
    cpu = sum(r["cpu_s"] for r in reps) / sum(raw_walls)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {scale}")
    print(
        f"machine: python {platform.python_version()}, numpy {reps[0]['numpy']}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )
    print(
        f"machine speed: calibration slice {min(slices):.4f}-{max(slices):.4f} ms, "
        f"reference {1e3 * REF_SLICE_S:.4f} ms"
    )
    print(
        f"repetitions {len(reps)}: wall {min(walls):.3f}-{max(walls):.3f} s on the reference clock, "
        f"raw {min(raw_walls):.3f}-{max(raw_walls):.3f} s, cpu/raw wall {cpu:.3f}"
    )
    if not args.trace:
        print(
            f"operations {notes['ops']}; op_tail_ms is p{TAIL_PERCENTILE[args.workload]:g} "
            f"with {notes['tail_beyond']} samples beyond"
        )
    print(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} outputs)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
