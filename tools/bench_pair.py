"""Run bench/run.py on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pair.py --parent ../parent --change . \
        --workload verify-free --workload core-extract \
        --seeds 101-110 --seconds 30 --out BENCH_7.json

For each workload and each seed in the range, one untraced run of
``bench/run.py --workload W --seed S --seconds T --trace 0`` is made in each
checkout, the parent first on even pairs and the change first on odd ones,
so that a drift of the host's speed falls on both sides alike.  Then
TRACED_RUNS pairs of traced runs at the golden seed with ``--seconds 0``
follow, alternated the same way, for the per-layer metrics: one traced run
per side reads too noisy on a shared host to compare two checkouts.  The
output file holds every run (its result line with the machine and details
that bench/run.py records) and, per workload, the q1 / median / q3 of each
end-to-end metric on each side, ``change_wins``: the number of pairs in
which the change was better, ties counting for neither side, and
``unresolved``: true when the parent's own runs spread (IQR over median)
wider than the metric's ``bound`` and not every change run beats every
parent run, so that the pairs can tell neither a gain nor a loss.  Under
``layers`` it holds the q1 / median / q3 of each per-layer metric on each
side, over the traced runs, and under ``counts_differ`` every per-layer
metric of unit ``count`` whose traced values are not all equal, on either
side or between them: counts are deterministic, so a listed one means the
two checkouts did different work.  Directions, bounds and units come from
the change's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TRACED_RUNS = 3  # traced runs per side, for the per-layer medians


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in `checkout`; its recorded result file."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pair: {' '.join(argv[1:])} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    result = checkout / "bench" / "out" / f"result-{workload}-s{seed}-t{trace}.json"
    return json.loads(result.read_text())


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], seeds: list[int], metrics: dict[str, tuple[str, float]],
              counts: tuple[str, ...]) -> dict:
    """Per end-to-end metric, given as name -> (better, bound): both sides'
    quartiles, the change's wins and whether the metric is unresolved;
    under "layers", both sides' quartiles of every per-layer metric that
    each traced run reports; under "counts_differ", the names in `counts`
    whose value (or absence) is not the same in every traced run."""
    by_seed = {(r["side"], r["seed"]): r["result"]["metrics"] for r in runs if r["trace"] == 0}
    out = {"pairs": len(seeds), "seeds": [seeds[0], seeds[-1]],
           "all_correct": all(r["result"]["correct"] for r in runs)}
    for name, (direction, bound) in metrics.items():
        pairs = [(by_seed["parent", s][name]["value"], by_seed["change", s][name]["value"])
                 for s in seeds]
        lower = direction == "lower"
        wins = sum(c < p if lower else c > p for p, c in pairs)
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        q = quartiles(parent)
        wide = q["q3"] - q["q1"] > bound * q["median"]
        clear = max(change) < min(parent) if lower else min(change) > max(parent)
        out[name] = {"parent": q, "change": quartiles(change),
                     "change_wins": wins, "unresolved": wide and not clear}
    traced = [r for r in runs if r["trace"] == 1]
    names = [name for name in (traced[0]["result"]["metrics"] if traced else ())
             if all(name in r["result"]["metrics"] for r in traced)]
    out["layers"] = {
        name: {side: quartiles([r["result"]["metrics"][name]["value"]
                                for r in traced if r["side"] == side])
               for side in ("parent", "change")}
        for name in names
    }
    out["counts_differ"] = [
        name for name in counts
        if len({r["result"]["metrics"].get(name, {}).get("value") for r in traced}) > 1
    ]
    return out


def dump(doc: dict) -> str:
    """JSON with the summary indented and one run per line."""
    head = json.dumps({k: v for k, v in doc.items() if k != "runs"}, indent=1)
    runs = ",\n".join(f"  {json.dumps(run)}" for run in doc["runs"])
    return f'{head[:-2]},\n "runs": [\n{runs}\n ]\n}}\n'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name; repeat for several")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<pr>.json to write")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    counts = tuple(m["name"] for m in spec["per_layer"] if m["unit"] == "count")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, summary = [], {}
    for workload in args.workload:
        ran = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                rec = run_bench(sides[side], workload, seed, args.seconds, 0)
                ran.append({"side": side, "workload": workload, "seed": seed, "trace": 0,
                            **rec})
                wall = rec["result"]["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.4f}", flush=True)
        for i in range(TRACED_RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                rec = run_bench(sides[side], workload, 0, 0, 1)
                ran.append({"side": side, "workload": workload, "seed": 0, "trace": 1,
                            **rec})
        summary[workload] = summarise(ran, args.seeds, metrics, counts)
        runs.extend(ran)
    doc = {
        "description": ("bench/run.py runs of the parent and the changed checkout, "
                        f"{args.seconds:g} s per untraced run, parent/change order alternated "
                        f"per seed; {TRACED_RUNS} traced runs per side at seed 0 with "
                        "--seconds 0, alternated the same way."),
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(dump(doc))
    for workload, rows in summary.items():
        for name in metrics:
            row = rows[name]
            print(f"{workload} {name}: parent {row['parent']['median']:.4g} "
                  f"change {row['change']['median']:.4g} "
                  f"(change better in {row['change_wins']}/{rows['pairs']})"
                  f"{'; unresolved: parent spread over the bound' if row['unresolved'] else ''}")
        for name, row in rows["layers"].items():
            print(f"{workload} {name}: parent {row['parent']['median']:.4g} "
                  f"change {row['change']['median']:.4g} (median of {TRACED_RUNS} traced)")
        if rows["counts_differ"]:
            print(f"{workload} counts differ: {', '.join(rows['counts_differ'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
