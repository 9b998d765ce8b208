"""The benchmark's three workloads: their inputs, one job, and its checks.

Each workload turns a seed into a list of jobs at set-up.  A job is one
user-visible command, run in-process through ``oddbook.cli.main`` (plus,
for core-extract, the stability steps that follow the maximality
precheck), and leaves its outputs in the work directory.  After a pass,
outside the timed region, every output is checked: against the golden
entry stored for that exact input when there is one, and against
invariants that hold on any seed in every case.

Jobs call the package through module attributes (``construction.plan_layout``
rather than a name imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from oddbook import bipartite, cli, construction, freeness, graph, reports, stability
from oddbook.pattern import book_order

S, K = 2, 2
ALPHA = Fraction(1, 2)


@dataclass
class Job:
    id: str
    argv: list[str]
    digest: str  # sha256 of everything the job reads; keys its golden entry
    outputs: list[Path]  # files the job writes, removed before each pass
    data: dict = field(default_factory=dict)


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:24]


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _member(n: int):
    return construction.build_min_member(construction.plan_layout(n, S, K, ALPHA)).graph


class Workload:
    name = ""

    def setup(self, seed: int, work: Path, small: bool) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job):
        """The timed job; returns whatever `collect` needs beyond files."""
        raise NotImplementedError

    def collect(self, job: Job, raw) -> dict:
        """The job's outputs as JSON data (untimed)."""
        raise NotImplementedError

    def check(self, job: Job, out: dict, golden: dict | None) -> list[str]:
        """Problems with one output; golden is the stored entry or None."""
        raise NotImplementedError

    def golden_entry(self, out: dict) -> dict:
        """The part of an output that must stay identical across versions."""
        raise NotImplementedError

    def informational(self, outputs: list[dict]) -> dict[str, float]:
        """Extra readings taken once, untraced, at the end of a traced run."""
        return {}


def _golden_problems(out: dict, golden: dict | None) -> list[str]:
    if golden is None:
        return []
    return [f"{key} differs from golden" for key in golden if out.get(key) != golden[key]]


class ConstructSaturate(Workload):
    """`oddbook construct -n 64 -s 2 -k 2 --alpha 1/2 --saturate`.

    The input has no seeded part, so its golden entry applies on every seed.
    Set-up builds the minimum member that the checks compare against and
    certifies it free with `is_book_free`, the check `oddbook verify` makes.
    """

    name = "construct-saturate"

    def setup(self, seed, work, small):
        n = 16 if small else 64
        out = work / "construct"
        out.mkdir(parents=True, exist_ok=True)
        argv = ["construct", "-n", str(n), "-s", str(S), "-k", str(K),
                "--alpha", str(ALPHA), "--saturate", "--workers", "1"]
        # the minimum member is built here as the reference for the checks
        member = _member(n)
        if not freeness.is_book_free(member, S, K)[0]:
            raise RuntimeError(f"the n={n} minimum member contains the pattern")
        stem = f"construction_n{n}_s{S}_k{K}"
        files = [out / f"{stem}{suffix}" for suffix in
                 (".g6", ".layout.json", ".saturated.g6", ".report.json")]
        return [Job(f"construct-n{n}", argv + ["-o", str(out)], _digest(*argv), files,
                    {"member": member, "files": files})]

    def run(self, job):
        return _run_cli(job.argv)

    def collect(self, job, code):
        member_g6, _, sat_g6, report_json = job.data["files"]
        report = json.loads(report_json.read_text())
        sat_text = sat_g6.read_text().strip()
        sat = graph.decode_graph6(sat_text)
        member = job.data["member"]
        return {
            "exit": code,
            "checks": {c["name"]: c["pass"] for c in report["checks"]},
            "member_graph6": member_g6.read_text().strip(),
            "saturated_graph6": sat_text,
            "added_edges": [[u, v] for u, v in sat.edges() if not member.has_edge(u, v)],
            "member_kept": all(sat.has_edge(u, v) for u, v in member.edges()),
        }

    def check(self, job, out, golden):
        problems = []
        if out["exit"] != 0:
            problems.append(f"exit code {out['exit']}")
        problems += [f"check {name} failed" for name, ok in out["checks"].items() if not ok]
        if out["member_graph6"] != graph.encode_graph6(job.data["member"]):
            problems.append("written member differs from build_min_member")
        if not out["member_kept"]:
            problems.append("saturation dropped a member edge")
        return problems + _golden_problems(out, golden)

    def golden_entry(self, out):
        return {k: out[k] for k in ("saturated_graph6", "added_edges")}

    def informational(self, outputs):
        # One reading of the ProcessPoolExecutor maximality path, to set
        # against the workers=1 figure in the same traced run.
        sat = graph.decode_graph6(outputs[-1]["saturated_graph6"])
        start = time.perf_counter()
        maximal, _ = freeness.is_maximal_book_free(sat, S, K, workers=2)
        elapsed = time.perf_counter() - start
        if not maximal:
            raise RuntimeError("workers=2 maximality verdict differs from workers=1")
        return {"freeness.is_maximal_book_free_w2_ms": elapsed * 1e3}


class VerifyFree(Workload):
    """`oddbook verify --check freeness` on perturbed construction members.

    Deletions keep a member free, so they force a full hub-edge scan; each
    addition's first edge is drawn until it is the hub edge of a copy, so
    the scan stops early with a witness.  That edge joins two vertices of
    degree at least 3: a failed hub-edge search from a connector-path
    vertex costs up to 0.7 s at n = 128, which made set-up time swing with
    the seed.  It is also drawn among the pairs that come before the
    member's first edge in the edge-lexicographic scan, so the scan meets
    the copy within its first three probes: an addition times graph6
    decode, the neighbour orders and the early exit.  When the copy could
    lie anywhere, a few late copies (up to 0.8 s each at n = 104) moved a
    pass's total by a third from seed to seed.  Members with n up to 128
    all take additions; full scans are kept to n = 64, where one costs
    about 0.2 s, so that a pass takes under 4 s and a 30 s run gives each
    job eight or more readings.  The 15 deletions put the 10th- and
    11th-slowest of the 100 jobs, the p90, inside the deletions rather than
    on the boundary between the two kinds of job.
    """

    name = "verify-free"
    SIZES = tuple(range(64, 129, 4))
    DELETIONS = {64: 15}
    ADDITIONS = 5
    SMALL_SIZES = (16, 20)
    SMALL_DELETIONS = {16: 1, 20: 1}
    SMALL_ADDITIONS = 2

    def setup(self, seed, work, small):
        rng = random.Random(seed)
        sizes = self.SMALL_SIZES if small else self.SIZES
        deletions = self.SMALL_DELETIONS if small else self.DELETIONS
        additions = self.SMALL_ADDITIONS if small else self.ADDITIONS
        out = work / "verify"
        out.mkdir(parents=True, exist_ok=True)
        jobs = []
        for n in sizes:
            member = _member(n)
            edges = list(member.edges())
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if not member.has_edge(u, v)]
            first = min(edges)
            hub_pairs = [(u, v) for u, v in non_edges
                         if (small or (u, v) < first)
                         and member.degree(u) >= 3 and member.degree(v) >= 3]
            variants = []
            for _ in range(deletions.get(n, 0)):
                g = member.copy()
                for e in rng.sample(edges, rng.randint(1, 3)):
                    g.delete_edge(*e)
                variants.append(("del", g))
            for _ in range(additions):
                g = member.copy()
                for _ in range(len(hub_pairs)):
                    u, v = rng.choice(hub_pairs)
                    if freeness.find_book_at_edge(member, u, v, S, K) is not None:
                        break
                else:
                    raise RuntimeError(f"no non-edge of the n={n} member is a hub edge")
                g.add_edge(u, v)
                for e in rng.sample(non_edges, rng.randint(0, 2)):
                    g.add_edge(*e)
                variants.append(("add", g))
            for i, (kind, g) in enumerate(variants):
                text = graph.encode_graph6(g)
                job_id = f"n{n}-{kind}{i}"
                path = out / f"{job_id}.g6"
                path.write_text(text + "\n")
                report = out / f"{job_id}.json"
                argv = ["verify", "-i", str(path), "--check", "freeness",
                        "-s", str(S), "-k", str(K), "-o", str(report)]
                jobs.append(Job(job_id, argv, _digest("verify-freeness", text), [report],
                                {"kind": kind, "graph": g, "report": report}))
        return jobs

    def run(self, job):
        return _run_cli(job.argv)

    def collect(self, job, code):
        report = json.loads(job.data["report"].read_text())
        (entry,) = [c for c in report["checks"] if c["name"] == "freeness"]
        witness = entry["details"]["witness"]
        return {"exit": code, "free": entry["pass"],
                "mapping": witness["mapping"] if witness else None}

    def check(self, job, out, golden):
        problems = []
        if out["exit"] != (0 if out["free"] else 1):
            problems.append(f"exit code {out['exit']} for free={out['free']}")
        if job.data["kind"] == "del" and not out["free"]:
            problems.append("an edge deletion of a free member reported a copy")
        if job.data["kind"] == "add" and out["free"]:
            problems.append("an addition known to create a copy reported free")
        if out["mapping"] is not None:
            w = freeness.Witness(S, K, tuple(out["mapping"]))
            if not freeness.validate_witness(job.data["graph"], w):
                problems.append("witness does not embed the odd book")
        return problems + _golden_problems(out, golden)

    def golden_entry(self, out):
        return {"free": out["free"], "mapping": out["mapping"]}


class CoreExtract(Workload):
    """`oddbook max-bipartite`, then the `oddbook stability` steps after its
    maximality precheck, on maximal graphs from the acceptance criterion 08
    generator.

    The graphs come from that generator's own seeds (1000 + i); the run's
    seed relabels their vertices.  Relabeling keeps each graph maximal and
    keeps the structural work per graph roughly fixed, while the search
    orders, partitions and deletion traces change with the labels.  Drawing
    new random graphs per seed instead made the per-seed totals spread by
    16-29%, because branch-and-bound node counts are heavy-tailed.
    """

    name = "core-extract"
    GRAPHS = 100
    SMALL_GRAPHS = 4

    def setup(self, seed, work, small):
        rng = random.Random(seed)
        out = work / "core"
        out.mkdir(parents=True, exist_ok=True)
        jobs = []
        for i in range(self.SMALL_GRAPHS if small else self.GRAPHS):
            gen = random.Random(1000 + i)
            n = gen.randrange(16, 21 if small else 41)
            g = graph.random_graph(n, gen.uniform(0.05, 0.2), gen)
            free, witness = freeness.is_book_free(g, S, K)
            while not free:
                g.delete_edge(*witness.hub_edge)
                free, witness = freeness.is_book_free(g, S, K)
            sat, _ = freeness.saturate(g, S, K)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = graph.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in sat.edges()])
            text = graph.encode_graph6(relabeled)
            path = out / f"g{i}.g6"
            path.write_text(text + "\n")
            report, trace, core = out / f"g{i}.json", out / f"g{i}.trace.json", out / f"g{i}.core.json"
            jobs.append(Job(f"g{i}-n{n}", ["max-bipartite", "-i", str(path), "-o", str(report)],
                            _digest("core-extract", text), [report, trace, core],
                            {"graph": relabeled, "path": path, "report": report,
                             "trace": trace, "core": core}))
        return jobs

    def run(self, job):
        code = _run_cli(job.argv)
        # what `oddbook stability` does after its maximality precheck
        g = graph.decode_graph6(job.data["path"].read_text())
        part, _ = bipartite.build_uvt_partition(g, book_order(S, K), seed=0)
        core, trace = stability.deletion_pipeline(g, part, S, K)
        core_ok = bipartite.validate_biclique(g, core)
        reports.write_json(job.data["trace"], trace.to_json())
        reports.write_json(job.data["core"], core.to_json())
        return code, core_ok

    def collect(self, job, raw):
        code, core_ok = raw
        report = json.loads(job.data["report"].read_text())
        (entry,) = report["checks"]
        return {
            "exit": code,
            "optimal": report["counts"]["optimal"],
            "best_size": report["counts"]["best_size"],
            "best": entry["details"]["biclique"],
            "core": json.loads(job.data["core"].read_text()),
            "core_valid": core_ok,
            "trace": json.loads(job.data["trace"].read_text()),
        }

    def check(self, job, out, golden):
        g = job.data["graph"]
        best = bipartite.Biclique(graph.mask_of(out["best"]["left"]),
                                  graph.mask_of(out["best"]["right"]))
        core = bipartite.Biclique(graph.mask_of(out["core"]["left"]),
                                  graph.mask_of(out["core"]["right"]))
        problems = []
        if out["exit"] != 0:
            problems.append(f"exit code {out['exit']}")
        if not out["optimal"]:
            problems.append("maximum biclique search not optimal")
        if best.size != out["best_size"] or not bipartite.validate_biclique(g, best):
            problems.append("maximum biclique invalid")
        if not out["core_valid"] or not bipartite.validate_biclique(g, core):
            problems.append("core is not an induced complete bipartite graph")
        if core.size > out["best_size"]:
            problems.append("core larger than the maximum biclique")
        return problems + _golden_problems(out, golden)

    def golden_entry(self, out):
        return {"best_size": out["best_size"], "core": out["core"], "trace": out["trace"]}


WORKLOADS = {w.name: w for w in (ConstructSaturate(), VerifyFree(), CoreExtract())}
