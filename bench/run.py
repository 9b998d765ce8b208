"""oddbook benchmark: three CLI workloads, their end-to-end metrics, and a
per-module layer trace.

Run from the repository root:

    python3 bench/run.py --workload construct-saturate --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check        # tiny inputs, under a minute
    python3 bench/run.py --write-golden      # re-record bench/golden/ (seed 0)

Closed loop: one client, one process, one thread; the next job starts when
the previous one returns.  The seed only shapes the generated inputs.  A run
sets up its inputs several times (``setup_s`` is the median), then runs
passes over all jobs until ``--seconds`` would be exceeded (at least two
passes).  Every timing is scaled to a reference host speed sampled during
the run (see hostspeed.py); the times as measured are printed in the
details line.  Each job is taken at its median scaled time over the
passes.  ``wall_s`` is one pass with every job at that time; ``job_p50_ms``
and ``job_p90_ms`` are percentiles of those per-job times, over as many
samples as the workload has jobs.  Every output is checked after its pass;
failures count in ``failed`` against ``attempted`` job executions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it traces one set-up, runs untraced passes as
the baseline for the tracing overhead, then two traced passes whose
deterministic counts must agree exactly.  Per-layer totals and counts cover
the traced set-up and the first traced pass; layer self times cover that
pass's jobs and add up to ``trace.job_ms``.  Spans go to
``bench/out/spans-<workload>-s<seed>.jsonl``; each run's details, with the
machine it ran on, to ``bench/out/result-<workload>-s<seed>-t<trace>.json``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"
GOLDEN_SEED = 0
SETUP_REPEATS = 3  # at least this many set-ups, and SETUP_MIN_S seconds of them
SETUP_MIN_S = 1.5
MIN_PASSES = 2
NO_GOLDEN = {"jobs": {}, "counts": None}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _import_package():
    """Import oddbook from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import oddbook
    except ImportError as exc:
        sys.exit(f"bench: cannot import oddbook from {src}: {exc}")
    if Path(oddbook.__file__).resolve().parent != (src / "oddbook").resolve():
        sys.exit(f"bench: oddbook imported from {oddbook.__file__}, not {src}")


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(wl, jobs, tracer=None, tag="p0"):
    """Run every job once, traced when a tracer is given; (pass seconds,
    per-job (start, end) clock readings, raw results)."""
    with tracer if tracer is not None else contextlib.nullcontext():
        return _run_jobs(wl, jobs, tracer, tag)


def _run_jobs(wl, jobs, tracer, tag):
    spans, raws = [], []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.run(job)
            else:
                tracer.job = f"{tag}/{job.id}"
                with tracer.span("cli.job"):
                    raw = wl.run(job)
        except (Exception, SystemExit) as exc:
            traceback.print_exc()
            raw = exc
        spans.append((t0, time.perf_counter()))
        raws.append(raw)
    return time.perf_counter() - start, spans, raws


def check_pass(wl, jobs, raws, golden: dict):
    """Count failed jobs; golden["jobs"] maps input digests to stored outputs."""
    failed, outputs = 0, []
    for job, raw in zip(jobs, raws):
        out = None
        if isinstance(raw, BaseException):
            problems = [f"raised {raw!r}"]
        else:
            try:
                out = wl.collect(job, raw)
                problems = wl.check(job, out, golden["jobs"].get(job.digest))
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
        if problems:
            failed += 1
            print(f"bench: {wl.name} job {job.id} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        outputs.append(out)
    return failed, outputs


@dataclass
class Passes:
    walls: list[float] = field(default_factory=list)
    job_spans: list[list[tuple[float, float]]] = field(default_factory=list)  # per pass
    failed: int = 0
    attempted: int = 0
    outputs: list = field(default_factory=list)


def measure(wl, jobs, seconds, golden, tracer=None, min_passes=1) -> Passes:
    """Passes until another would end past `seconds`; at least min_passes.

    Each pass runs the jobs in its own fixed order, so a spell of slow host
    time falls on different jobs in each pass instead of on the same
    neighbours every time.  Clock readings and outputs come back in job
    order.
    """
    m = Passes()
    start = time.perf_counter()
    while (len(m.walls) < min_passes
           or time.perf_counter() - start + statistics.median(m.walls) <= seconds):
        for job in jobs:
            for path in job.outputs:
                path.unlink(missing_ok=True)
        order = list(range(len(jobs)))
        random.Random(len(m.walls)).shuffle(order)
        gc.collect()  # the previous pass's garbage is not charged to this one
        wall, shuffled, raws_shuffled = run_pass(wl, [jobs[i] for i in order], tracer,
                                                 tag=f"p{len(m.walls) + 1}")
        spans, raws = [None] * len(jobs), [None] * len(jobs)
        for pos, i in enumerate(order):
            spans[i], raws[i] = shuffled[pos], raws_shuffled[pos]
        failed, m.outputs = check_pass(wl, jobs, raws, golden)
        m.walls.append(wall)
        m.job_spans.append(spans)
        m.failed += failed
        m.attempted += len(jobs)
    return m


def inputs_digest(jobs) -> str:
    return hashlib.sha256("".join(j.digest for j in jobs).encode()).hexdigest()[:24]


# ---------------------------------------------------------------------------
# one run


@dataclass
class Run:
    metrics: dict
    failed: int
    attempted: int
    errors: list[str]
    details: dict
    jobs: list
    outputs: list

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in self.metrics.items()},
        }


def run_untraced(wl, seed, seconds, work, small, golden) -> Run:
    setups = []
    with hostspeed.Sampler() as host:
        while len(setups) < SETUP_REPEATS or sum(b - a for a, b in setups) < SETUP_MIN_S:
            t0 = time.perf_counter()
            jobs = wl.setup(seed, work, small)
            setups.append((t0, time.perf_counter()))
        m = measure(wl, jobs, seconds, golden, min_passes=MIN_PASSES)

    def timings(index):  # index 0: as measured, 1: scaled
        setup = [host.scale(*s)[index] for s in setups]
        per_job = [statistics.median(host.scale(*s)[index] for s in spans)
                   for spans in zip(*m.job_spans)]
        return {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_job),
            "job_p50_ms": tracing.percentile(per_job, 50) * 1e3,
            "job_p90_ms": tracing.percentile(per_job, 90) * 1e3,
        }

    metrics = timings(1)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details = {"setups": len(setups), "passes_s": m.walls, "jobs": len(jobs),
               "job_percentile_samples": len(m.job_spans[0]), "measured": timings(0),
               "reference_loop_us": host.median_loop_s() * 1e6,
               "host_samples": len(host.durations)}
    return Run(metrics, m.failed, m.attempted, [], details, jobs, m.outputs)


def run_traced(wl, seed, seconds, work, small, golden, spans_path=None) -> Run:
    tracer = tracing.Tracer()
    with tracer:
        tracer.job = "setup"
        with tracer.span("bench.setup"):
            jobs = wl.setup(seed, work, small)
    base = measure(wl, jobs, seconds, golden)
    traced = measure(wl, jobs, 0, golden, tracer=tracer, min_passes=2)
    errors = []

    spans = tracer.spans
    by_job = {"setup": [], "p1": [], "p2": []}
    for i, s in enumerate(spans):
        by_job[s.job.split("/", 1)[0]].append(i)
    metrics = tracing.layer_metrics(spans, by_job["setup"] + by_job["p1"])
    counts = [tracing.layer_metrics(spans, by_job[p]) for p in ("p1", "p2")]
    for name in tracing.DETERMINISTIC:
        if counts[0][name] != counts[1][name]:
            errors.append(f"count {name} differs between identical passes: "
                          f"{counts[0][name]} vs {counts[1][name]}")
    stored = golden["counts"]
    if stored and stored["inputs"] == inputs_digest(jobs):
        for name, value in stored["values"].items():
            if metrics[name] != value:
                errors.append(f"count {name} is {metrics[name]}, golden {value}")

    own = tracing.self_times(spans, by_job["p1"])
    job_s = sum(spans[i].duration for i in by_job["p1"] if spans[i].parent is None)
    if abs(sum(own.values()) - job_s) > 1e-6 * max(job_s, 1.0):
        errors.append(f"layer self times {sum(own.values())} s do not add up to {job_s} s")
    for layer, t in own.items():
        key = "stability.deletion_pipeline_self_ms" if layer == "stability" else f"{layer}.self_ms"
        metrics[key] = t * 1e3
    metrics["trace.job_ms"] = job_s * 1e3
    metrics["trace.spans"] = len(spans)
    metrics["trace.overhead_pct"] = (
        statistics.median(traced.walls) / statistics.median(base.walls) - 1) * 100
    metrics["freeness.is_maximal_book_free_w2_ms"] = 0.0
    try:
        metrics.update(wl.informational(traced.outputs))
    except RuntimeError as exc:
        errors.append(str(exc))

    if spans_path is not None:
        tracer.write(spans_path)
    details = {"baseline_passes_s": base.walls, "traced_passes_s": traced.walls,
               "jobs": len(jobs), "probe_percentile_samples": metrics["freeness.probes"],
               "inputs": inputs_digest(jobs)}
    return Run(metrics, base.failed + traced.failed, base.attempted + traced.attempted,
               errors, details, jobs, traced.outputs)


def run_once(wl, seed, seconds, trace, work, small, golden, spans_path=None) -> Run:
    if trace:
        return run_traced(wl, seed, seconds, work, small, golden, spans_path)
    return run_untraced(wl, seed, seconds, work, small, golden)


# ---------------------------------------------------------------------------
# golden outputs and the self-check


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def make_golden(wl, work, small) -> dict:
    """Outputs and deterministic counts of the current code at GOLDEN_SEED;
    refuses when an invariant check fails."""
    run = run_traced(wl, GOLDEN_SEED, 0, work, small, NO_GOLDEN)
    if run.failed or run.errors:
        raise RuntimeError(f"{wl.name}: refusing to record golden outputs: "
                           f"{run.failed} failed jobs, {run.errors}")
    return {
        "seed": GOLDEN_SEED,
        "jobs": {job.digest: wl.golden_entry(out) for job, out in zip(run.jobs, run.outputs)},
        "counts": {"inputs": run.details["inputs"],
                   "values": {k: run.metrics[k] for k in tracing.DETERMINISTIC}},
    }


def dump_golden(doc: dict) -> str:
    """JSON with one line per job, so a changed output shows as one line."""
    jobs = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                       for k, v in doc["jobs"].items())
    return (f'{{"seed": {doc["seed"]},\n"counts": {json.dumps(doc["counts"])},\n'
            f'"jobs": {{\n{jobs}\n}}}}\n')


def self_check(workloads) -> int:
    """Tiny inputs: every metric printed with the name and unit that
    BENCHMARK.json declares, and one corrupted golden entry caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in workloads.values():
        work = OUT / f"self-check-{os.getpid()}"
        try:
            golden = make_golden(wl, work, small=True)
            for trace in (0, 1):
                line = run_once(wl, GOLDEN_SEED, 0, trace, work, True, golden).result()
                printed = {k: v["unit"] for k, v in line["metrics"].items()}
                if printed != expected[trace]:
                    problems.append(f"{wl.name} trace={trace}: printed {printed}, "
                                    f"BENCHMARK.json has {expected[trace]}")
                if not line["correct"]:
                    problems.append(f"{wl.name} trace={trace}: not correct on tiny inputs")
            digest, entry = next(iter(golden["jobs"].items()))
            print(f"self-check {wl.name}: corrupting one golden entry, "
                  "one failed job per pass expected", flush=True)
            key = next(iter(entry))
            golden["jobs"][digest] = {**entry, key: ["corrupted", entry[key]]}
            run = run_untraced(wl, GOLDEN_SEED, 0, work, True, golden)
            passes = len(run.details["passes_s"])
            if run.failed != passes:
                problems.append(f"{wl.name}: a corrupted golden entry gave {run.failed} "
                                f"failed jobs in {passes} passes, not one per pass")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"self-check {wl.name}: {'FAILED' if problems else 'ok'}", flush=True)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="tiny inputs: metric names and units, golden corruption")
    parser.add_argument("--write-golden", action="store_true",
                        help="record outputs of the current code at seed 0")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    if args.self_check:
        return self_check(WORKLOADS)
    if args.write_golden:
        GOLDEN.mkdir(exist_ok=True)
        for name in [args.workload] if args.workload else WORKLOADS:
            work = OUT / f"golden-{os.getpid()}"
            try:
                doc = make_golden(WORKLOADS[name], work, small=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            (GOLDEN / f"{name}.json").write_text(dump_golden(doc))
            print(f"wrote {GOLDEN / f'{name}.json'}: {len(doc['jobs'])} jobs")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    wl = WORKLOADS[args.workload]
    golden = load_golden(wl.name)
    host = machine()
    tag = f"{wl.name}-s{args.seed}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        run = run_once(wl, args.seed, args.seconds, args.trace, work, False, golden,
                       spans_path=OUT / f"spans-{tag}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = list(os.getloadavg())
    line = run.result()
    for e in run.errors:
        print(f"bench: {e}", file=sys.stderr)
    (OUT / f"result-{tag}-t{args.trace}.json").write_text(
        json.dumps({"machine": host, "details": run.details, "result": line}, indent=1) + "\n")
    print(f"machine: {json.dumps(host)}")
    print(f"details: {json.dumps(run.details)}")
    print(json.dumps(line))
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())
