"""linkctl benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads (one caller, one thread, closed loop):
  decide    classify the six demos and seeded variants of them through
            ``cli.main(["analyze", ...])``; platform poses also go through
            ``verify_platform_singularity``.  Decomposition searches and the
            second-order layer run only here.
  sample    project far random starts with ``sample_cspace`` on
            tri-platform-a, egsing and four-bar-regular, and screen every
            full-rank tri-platform-a pose (rank, then ``platform_conditions``).
  continue  ``trace_curve`` around seeded four-bars and along egsing, and
            ``local_branch_count`` at singular demos and seeded four-bar nodes.

A run repeats whole rounds of its workload until ``--seconds`` have passed.
Times are in nominal seconds: each task's wall time is scaled by the host's
speed around it, as measured by a reference kernel (see refclock.py).
Every output is compared with ``expected.json``; any drift makes ``correct``
false and the exit code 1.

With ``--trace 1`` the same rounds are run once plain and once with every
layer function wrapped (see tracing.py); the run prints per-layer metrics,
the tracing overhead, and checks the exact call counts of a tri-platform-a
classification.  See NOTES.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures one caller on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
from refclock import REF_NOMINAL_S, RefClock
from tracing import NAMES, SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 7  # set-ups timed in one run, spread over it
WORKLOADS = ("decide", "sample", "continue")
# A decide round is 100 verdicts (platform demos count twice, once for
# verify_platform_singularity).  By time, the 90th percentile falls among the
# tri-platform-b verdicts and the median in the middle of the
# four-bar-singular ones, whatever the number of rounds.
DECIDE_MIX = (
    ("tri-platform-a", 1),
    ("tri-platform-b", 10),
    ("egsing", 2),
    ("four-bar-singular", 56),
    ("four-bar-regular", 10),
    ("five-bar", 10),
)
PLATFORM_DEMOS = ("tri-platform-a", "tri-platform-b")
SMOOTH_DEMOS = ("four-bar-regular", "five-bar")
# The highest percentile of verdict time that has at least ten verdicts above
# it in every run: decide has 100 verdicts a round, sample screens a few
# hundred poses a run, continue classifies 16 poses a round.
TAIL_PERCENTILE = {"decide": 90, "sample": 95, "continue": 75}
BRANCH_SAMPLES = 48  # local_branch_count's default sphere sample count
# Baselines a traced run reproduces exactly (seed demo, seed code).
SELF_CHECK = {"decomp.stage": 900, "numeric.work_data": 759, "retractions": 38143, "samples": 104}


class SetupError(Exception):
    """The checkout cannot run the benchmark (for instance, no sources)."""


# --------------------------------------------------------------------------
# Set-up: import, inputs, CLI documents, warm-up.


def _import_linkctl() -> SimpleNamespace:
    """Import linkctl from the checkout's sources, afresh each time."""
    if not (SRC / "linkctl" / "__init__.py").is_file():
        raise SetupError(f"no linkctl sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "linkctl" or n.startswith("linkctl.")]:
        del sys.modules[name]
    mods = {n: importlib.import_module(f"linkctl.{n}") for n in
            ("cli", "classify", "decomp", "demos", "errors", "model", "numeric")}
    if Path(mods["model"].__file__).resolve().parent != (SRC / "linkctl").resolve():
        raise SetupError("linkctl was not imported from the checkout's sources")
    return SimpleNamespace(package=sys.modules["linkctl"], **mods)


def setup() -> SimpleNamespace:
    """Everything a run needs before the clock starts; any workload."""
    lk = _import_linkctl()
    build, pose = lk.model.build_linkage, lk.model.Configuration
    env = SimpleNamespace(lk=lk, docs={}, platform={}, sample={}, trace={}, branches={})
    docs_dir = OUT / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)

    for name in lk.demos.DEMO_NAMES:
        for item in range(inputs.demo_pool_size(name)):
            ldoc, cdoc = inputs.demo_item(lk.demos.build_demo, name, item)
            paths = []
            for suffix, doc in (("linkage", ldoc), ("config", cdoc)):
                path = docs_dir / f"{name}-{item}.{suffix}.json"
                path.write_text(json.dumps(doc))
                paths.append(str(path))
            env.docs[inputs.key(name, item)] = paths
            if name in PLATFORM_DEMOS:
                env.platform[inputs.key(name, item)] = (build(ldoc), pose(cdoc["points"]))

    for name in inputs.SAMPLE_LINKAGES:
        env.sample[name] = build(lk.demos.build_demo(name)[0])

    sample = lk.numeric.sample_cspace
    for item in range(inputs.FOURBAR_POOL):
        linkage = build(inputs.fourbar_item(item))
        env.trace[inputs.key("fourbar", item)] = (linkage, sample(linkage, 4, seed=item)[0])
    egsing = env.sample["egsing"]
    for item in range(inputs.EGSING_STARTS):
        env.trace[inputs.key("egsing", item)] = (egsing, sample(egsing, 4, seed=item)[0])

    for name in inputs.BRANCH_DEMOS:
        ldoc, cdoc = lk.demos.build_demo(name)
        pair = (build(ldoc), pose(cdoc["points"]))
        for item in range(inputs.BRANCH_SEEDS):
            env.branches[inputs.key(name, item)] = pair
    for item in range(inputs.NODE_POOL):
        ldoc, cdoc = inputs.node_item(item)
        env.branches[inputs.key("node", item)] = (build(ldoc), pose(cdoc["points"]))

    _analyze(env, "four-bar-singular", 0, Stats())  # warm-up
    return env


# --------------------------------------------------------------------------
# Tasks.  Each returns the fingerprint of its output and adds its timings to
# the run's stats; checks that are not fingerprints add to stats.problems.


@dataclass
class Stats:
    """What a run measured and found, task by task.

    Times are in nominal seconds (see refclock.py): a task records its raw
    timings in ``pending`` and ``run_task`` scales them into their lists.
    """

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0  # time in tasks
    raw_wall_s: float = 0.0  # the same, unscaled
    verdict_s: list = field(default_factory=list)
    feasible: int = 0
    attempts: int = 0
    sample_s: list = field(default_factory=list)
    points: int = 0
    trace_s: list = field(default_factory=list)
    branch_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    pending: list = field(default_factory=list)  # (list name, raw seconds)
    clock: RefClock = field(default_factory=RefClock)

    def timed(self, name: str, t0: float) -> None:
        self.pending.append((name, self.clock.now() - t0))


def _max_residual(linkage, points) -> float:
    """Constraint residual computed here, so checking adds no traced calls."""
    p = np.asarray(points, dtype=float)
    edges = np.asarray(linkage.graph.edges)
    diff = p[edges[:, 0]] - p[edges[:, 1]]
    return float(np.max(np.abs(np.einsum("ij,ij->i", diff, diff) - np.square(linkage.lengths))))


def _analyze(env, name: str, item: int, stats: Stats) -> dict:
    lpath, cpath = env.docs[inputs.key(name, item)]
    out = io.StringIO()
    t0 = stats.clock.now()
    with contextlib.redirect_stdout(out):
        code = env.lk.cli.main(["analyze", lpath, cpath])
    stats.timed("verdict_s", t0)
    return inputs.verdict_fingerprint(json.loads(out.getvalue()), code)


def _verify(env, name: str, item: int, stats: Stats) -> dict:
    linkage, config = env.platform[inputs.key(name, item)]
    t0 = stats.clock.now()
    report = env.lk.classify.verify_platform_singularity(linkage, config)
    stats.timed("verdict_s", t0)
    return inputs.verdict_fingerprint(report.to_json_dict(), None)


def _sample(env, name: str, item: int, stats: Stats) -> int:
    linkage = env.sample[name]
    lk = env.lk
    t0 = stats.clock.now()
    try:
        poses = lk.numeric.sample_cspace(linkage, inputs.SAMPLE_ATTEMPTS, seed=item)
    except lk.errors.NoFeasiblePoint:
        poses = []
    stats.timed("sample_s", t0)
    stats.feasible += len(poses)
    stats.attempts += inputs.SAMPLE_ATTEMPTS
    for pose in poses:
        if _max_residual(linkage, pose.points) > inputs.SAMPLE_RESIDUAL_BOUND:
            stats.problems.append(f"sample {name}/{item}: pose off the constraint set")
    if name == "tri-platform-a":
        # Criterion-6 screen: a full-rank pose is not a platform singularity.
        for pose in poses:
            t0 = stats.clock.now()
            if lk.numeric.numerical_rank(lk.model.constraint_jacobian(linkage, pose)) < linkage.k:
                continue
            condition = lk.classify.platform_conditions(linkage, pose)
            stats.timed("verdict_s", t0)
            if condition is not None:
                stats.problems.append(f"sample {name}/{item}: platform false positive")
    return len(poses)


def _trace(env, name: str, item: int, stats: Stats) -> dict:
    linkage, start = env.trace[inputs.key(name, item)]
    t0 = stats.clock.now()
    result = env.lk.numeric.trace_curve(
        linkage, start, step=inputs.TRACE_STEP, max_steps=inputs.TRACE_MAX_STEPS
    )
    stats.timed("trace_s", t0)
    stats.points += len(result.points)
    if max(_max_residual(linkage, p.points) for p in result.points) > inputs.TRACE_RESIDUAL_BOUND:
        stats.problems.append(f"trace {name}/{item}: residual above {inputs.TRACE_RESIDUAL_BOUND}")
    return inputs.trace_fingerprint(result)


def _branches(env, name: str, item: int, stats: Stats) -> dict:
    linkage, config = env.branches[inputs.key(name, item)]
    t0 = stats.clock.now()
    report = env.lk.numeric.local_branch_count(linkage, config, seed=item)
    stats.timed("branch_s", t0)
    return inputs.branch_fingerprint(report)


TASKS = {
    "analyze": _analyze,
    "verify": _verify,
    "sample": _sample,
    "trace": _trace,
    "branches": _branches,
}


def all_tasks() -> list[tuple[str, str, int]]:
    """Every (kind, name, item) a workload can draw; record.py runs them all."""
    tasks = []
    for name in sorted(set(n for n, _ in DECIDE_MIX)):
        for item in range(inputs.demo_pool_size(name)):
            tasks.append(("analyze", name, item))
            if name in PLATFORM_DEMOS:
                tasks.append(("verify", name, item))
    tasks += [("sample", n, s) for n in inputs.SAMPLE_LINKAGES for s in range(inputs.SAMPLE_SEEDS)]
    tasks += [("trace", "fourbar", i) for i in range(inputs.FOURBAR_POOL)]
    tasks += [("trace", "egsing", i) for i in range(inputs.EGSING_STARTS)]
    tasks += [("branches", n, s) for n in inputs.BRANCH_DEMOS for s in range(inputs.BRANCH_SEEDS)]
    tasks += [("branches", "node", i) for i in range(inputs.NODE_POOL)]
    return tasks


# --------------------------------------------------------------------------
# Workloads: the tasks of round r as pure functions of the seed.  Each round
# also runs a few secondary tasks, so that every end-to-end metric is measured
# on every workload, spread over the whole run.  Their items are fixed (the
# same in every run) and never a rank-deficient classification, so only
# decide runs decomposition work.

SECONDARY = {  # (kind, name, pool size, tasks per round)
    "decide": (
        ("sample", "egsing", inputs.SAMPLE_SEEDS, 12),
        ("trace", "fourbar", inputs.FOURBAR_POOL, 16),
        ("branches", "node", inputs.NODE_POOL, 16),
    ),
    "sample": (
        ("trace", "fourbar", inputs.FOURBAR_POOL, 1),
        ("branches", "node", inputs.NODE_POOL, 2),
    ),
    "continue": (
        ("analyze", "four-bar-regular", inputs.demo_pool_size("four-bar-regular"), 8),
        ("analyze", "five-bar", inputs.demo_pool_size("five-bar"), 8),
        ("sample", "egsing", inputs.SAMPLE_SEEDS, 2),
    ),
}


def _draw(rng, pool: int, count: int) -> list[int]:
    return [int(i) for i in rng.integers(0, pool, count)]


def round_tasks(workload: str, seed: int, r: int) -> list[tuple[str, str, int]]:
    rng = np.random.default_rng([seed, 0, r])
    tasks = []
    if workload == "decide":
        for name, count in DECIDE_MIX:
            pool = inputs.demo_pool_size(name)
            if name in PLATFORM_DEMOS:
                # Most of a round's time and all of its tail: the same items
                # in every run, so that the seed adds no spread.
                items = [(r * count + j) % pool for j in range(count)]
            else:
                items = [int(i) for i in rng.integers(1, pool, count)]
                if r == 0:
                    items[0] = 0  # the demo itself, once a run
            for item in items:
                tasks.append(("analyze", name, item))
                if name in PLATFORM_DEMOS:
                    tasks.append(("verify", name, item))
    elif workload == "sample":
        for j, name in enumerate(inputs.SAMPLE_LINKAGES):
            order = np.random.default_rng([seed, 2, j]).permutation(inputs.SAMPLE_SEEDS)
            tasks += [("sample", name, int(order[(2 * r + i) % inputs.SAMPLE_SEEDS])) for i in range(2)]
    elif workload == "continue":
        tasks += [("trace", "fourbar", i) for i in _draw(rng, inputs.FOURBAR_POOL, 4)]
        tasks += [("trace", "egsing", i) for i in _draw(rng, inputs.EGSING_STARTS, 1)]
        tasks += [("branches", name, i) for name in inputs.BRANCH_DEMOS
                  for i in _draw(rng, inputs.BRANCH_SEEDS, 1)]
        tasks += [("branches", "node", i) for i in _draw(rng, inputs.NODE_POOL, 7)]
    else:
        raise ValueError(workload)
    for kind, name, pool, count in SECONDARY[workload]:
        tasks += [(kind, name, (r * count + j) % pool) for j in range(count)]
    return [tasks[i] for i in rng.permutation(len(tasks))]


# --------------------------------------------------------------------------
# Running and checking.


def run_task(env, expected: dict, task, stats: Stats) -> None:
    kind, name, item = task
    stats.attempted += 1
    stats.clock.begin()
    t0 = stats.clock.now()
    try:
        got = TASKS[kind](env, name, item, stats)
    except Exception as exc:  # any failure of the program is a failed operation
        stats.failed += 1
        stats.problems.append(f"{kind} {name}/{item}: {type(exc).__name__}: {exc}")
        return
    finally:
        raw = stats.clock.now() - t0
        scale = stats.clock.scale()
        stats.raw_wall_s += raw
        stats.wall_s += raw * scale
        for name_s, seconds in stats.pending:
            getattr(stats, name_s).append(seconds * scale)
        stats.pending.clear()
    got = json.loads(json.dumps(got))
    want = expected[kind][inputs.key(name, item)]
    if got != want:
        stats.problems.append(f"{kind} {name}/{item}: got {got}, expected {want}")
    if kind == "analyze":
        base = expected["analyze"][inputs.key(name, 0)]
        for part in ("verdict", "rank", "exit_code"):
            if got[part] != base[part]:
                stats.problems.append(
                    f"analyze {name}/{item}: {part} {got[part]} differs from the demo's {base[part]}"
                )


def timed_setup(clock: RefClock) -> tuple[SimpleNamespace, float]:
    """A set-up and its time in nominal seconds."""
    clock.begin()
    t0 = clock.now()
    env = setup()
    return env, (clock.now() - t0) * clock.scale()


def _time_setups(times: list, target: float, clock: RefClock) -> None:
    """Time set-ups (discarding what they build) until there are ``target``."""
    while len(times) < target:
        times.append(timed_setup(clock)[1])


def run_workload(env, expected, workload, seed, seconds=None, rounds=None, setup_times=None,
                 periodic=True) -> Stats:
    """Run whole rounds for about ``seconds``, or exactly ``rounds`` rounds.

    Run time is counted in nominal seconds, so the number of rounds does
    not follow the host's speed.  A round is not started when, at the mean
    round time so far, more than half of it would fall after ``seconds``.
    Set-ups are timed between rounds on a schedule that spreads
    SETUP_REPEATS of them over the run; their time is not run time.
    Without ``periodic`` the reference kernel runs only between tasks.
    """
    stats = Stats()
    with stats.clock.periodic() if periodic else contextlib.nullcontext():
        while True:
            for task in round_tasks(workload, seed, stats.rounds):
                run_task(env, expected, task, stats)
            stats.rounds += 1
            if rounds is not None:
                if stats.rounds == rounds:
                    break
            elif stats.wall_s * (1 + 0.5 / stats.rounds) > seconds:
                break
            if setup_times is not None:
                _time_setups(setup_times, SETUP_REPEATS * stats.wall_s / seconds, stats.clock)
        if setup_times is not None:
            _time_setups(setup_times, SETUP_REPEATS, stats.clock)
    return stats


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end_metrics(workload: str, stats: Stats, setup_s: float) -> tuple[dict, list[str]]:
    v = stats.verdict_s
    pct = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdicts_per_s": len(v) / sum(v),
        "verdict_s.p50": statistics.median(v),
        "verdict_s.tail": percentile(v, pct),
        "samples_per_s": stats.feasible / sum(stats.sample_s),
        "sample_yield": stats.feasible / stats.attempts,
        "trace_points_per_s": stats.points / sum(stats.trace_s),
        "branch_count_s.p50": statistics.median(stats.branch_s),
    }
    beyond = sum(1 for x in v if x > metrics["verdict_s.tail"])
    notes = [
        f"verdict_s.tail is p{pct} of {len(v)} verdict times ({beyond} above it)",
        f"samples: {stats.feasible} feasible of {stats.attempts} attempts; "
        f"trace points: {stats.points}; branch counts: {len(stats.branch_s)}",
        f"nominal seconds: reference kernel {REF_NOMINAL_S * 1e3:.2f} ms; this run's median "
        f"scale {stats.clock.median_scale():.4f}, {stats.raw_wall_s:.3f} s raw in tasks",
    ]
    return metrics, notes


def layer_metrics(spans: SpanTable, overhead_s: float) -> dict:
    m = {}
    for span in NAMES:
        m[f"{span}.calls"] = spans.calls(span)
        m[f"{span}.self_s"] = spans.self_time(span)
    branches = spans.calls("numeric.branches")
    m.update({
        "numeric.project.failed": spans.failed("numeric.project"),
        "numeric.project.jac_per_call": spans.per_call("model.jacobian", "numeric.project"),
        "numeric.work_data.retractions_per_call": spans.per_call("numeric.project", "numeric.work_data"),
        "decomp.stage.transverse": spans.outcome_count("decomp.stage", 0.0),
        "decomp.stage.generic": spans.outcome_count("decomp.stage", 1.0),
        "decomp.stage.degenerate": spans.outcome_count("decomp.stage", 2.0),
        "decomp.removals.returned": int(spans.outcome_sum("decomp.removals")),
        "decomp.certificate.stages_per_call": spans.per_call("decomp.stage", "decomp.certificate"),
        "decomp.witness.stages_per_call": spans.per_call("decomp.stage", "decomp.witness"),
        "numeric.trace.points": int(spans.outcome_sum("numeric.trace")),
        "numeric.branches.retained_share": (
            spans.outcome_sum("numeric.branches") / (BRANCH_SAMPLES * branches) if branches else 0.0
        ),
        "trace.overhead_s": overhead_s,
    })
    return m


def self_check(env) -> list[str]:
    """Exact counts of one tri-platform-a classification and one sample."""
    lk = env.lk
    linkage, config = env.platform[inputs.key("tri-platform-a", 0)]
    tracer = Tracer()
    with tracer.installed(lk.package):
        lk.classify.classify_configuration(linkage, config)
    spans = SpanTable(tracer)
    got = {
        "decomp.stage": spans.calls("decomp.stage"),
        "numeric.work_data": spans.calls("numeric.work_data"),
        "retractions": spans.nested("numeric.project", "numeric.work_data"),
        "samples": len(lk.numeric.sample_cspace(env.sample["tri-platform-a"], 200, seed=0)),
    }
    lines = []
    for name, want in SELF_CHECK.items():
        print(f"self-check {name}: {got[name]} (expected {want})")
        if got[name] != want:
            lines.append(f"self-check {name}: got {got[name]}, expected {want}")
    return lines


def run_context() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "linkctl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads(SPEC.read_text())
        expected = load_expected()
        clock = RefClock()
        with clock.periodic():
            env, first_setup_s = timed_setup(clock)
        setup_times = [first_setup_s]
    except (SetupError, ImportError, OSError) as exc:
        sys.stderr.write(f"perfbench: cannot set up: {exc}\n")
        return 2

    context = run_context()
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("context " + json.dumps(context))

    plain = run_workload(env, expected, args.workload, args.seed, seconds=args.seconds,
                         setup_times=setup_times)
    problems = list(plain.problems)
    if args.trace:
        tracer = Tracer()
        with tracer.installed(env.lk.package):
            # No timer samples here: they would land in the spans' self times.
            traced = run_workload(env, expected, args.workload, args.seed, rounds=plain.rounds,
                                  periodic=False)
        problems += traced.problems + self_check(env)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
        values = layer_metrics(SpanTable(tracer), traced.wall_s - plain.wall_s)
        declared = spec["per_layer"]
        notes = [f"traced {plain.rounds} rounds: {traced.wall_s:.3f} s traced, "
                 f"{plain.wall_s:.3f} s plain (nominal seconds in tasks)"]
    else:
        values, notes = end_to_end_metrics(args.workload, plain, statistics.median(setup_times))
        declared = spec["end_to_end"]
        notes.append(f"{plain.rounds} rounds in {plain.wall_s:.3f} nominal s")

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for line in notes:
        print(line)
    for line in problems:
        print(f"DRIFT {line}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
