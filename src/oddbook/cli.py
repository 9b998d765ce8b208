"""Command-line front end: reproducible construction / verification runs.

Subcommands: pattern, construct, verify, stability, max-bipartite.
Exit codes: 0 all checks pass, 1 some check fails, 2 usage or IO error.
Rational parameters (--alpha) are parsed exactly, never through floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bipartite import (
    build_uvt_partition,
    max_induced_complete_bipartite,
    validate_biclique,
)
from .construction import (
    LayoutInfeasibleError,
    BlockLayout,
    build_min_member,
    certify_structure,
    edge_bound_check,
    plan_layout,
)
from .freeness import (
    NotBookFreeError,
    is_book_free,
    is_maximal_book_free,
    saturate,
)
from .graph import GraphFormatError, decode_graph6, encode_graph6
from .pattern import book_order, build_odd_book, chromatic_number, is_color_critical_edge, odd_book_issues
from .reports import Timer, add_check, all_checks_pass, new_report, write_json
from .stability import bound_report, deletion_pipeline

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _read_graph(path: str):
    try:
        return decode_graph6(Path(path).read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except GraphFormatError as exc:
        raise SystemExit(f"cannot parse {path}: {exc}")


def _emit(report: dict, out: str | None) -> None:
    if out:
        write_json(out, report)
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _outdir(args) -> Path:
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------


def cmd_pattern(args) -> int:
    report = new_report("pattern", {"s": args.s, "k": args.k})
    book = build_odd_book(args.s, args.k)
    issues = odd_book_issues(book)
    add_check(report, "structure", not issues, issues=issues)
    with Timer(report, "coloring"):
        chi = chromatic_number(book.graph)
        critical = is_color_critical_edge(book)
    add_check(report, "three-chromatic", chi == 3, chromatic_number=chi)
    add_check(report, "hub-edge-color-critical", critical)
    report["counts"] = {
        "order": book.order,
        "size": book.graph.num_edges(),
        "hub_degree": book.graph.degree(book.hubs[0]),
    }
    outdir = _outdir(args)
    g6_path = outdir / f"book_s{args.s}_k{args.k}.g6"
    g6_path.write_text(encode_graph6(book.graph) + "\n")
    report["outputs"] = {"graph6": str(g6_path)}
    _emit(report, str(outdir / f"book_s{args.s}_k{args.k}.report.json"))
    print(f"pattern s={args.s} k={args.k}: order {book.order}, "
          f"size {book.graph.num_edges()}, chi {chi}")
    return EXIT_OK if all_checks_pass(report) else EXIT_CHECK_FAILED


def cmd_construct(args) -> int:
    params = {
        "n": args.n,
        "s": args.s,
        "k": args.k,
        "alpha": str(args.alpha),
        "saturate": args.saturate,
    }
    report = new_report("construct", params)
    try:
        layout = plan_layout(args.n, args.s, args.k, args.alpha)
    except LayoutInfeasibleError as exc:
        print(f"infeasible layout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with Timer(report, "build"):
        result = build_min_member(layout)
    actual_edges = result.graph.num_edges()
    add_check(
        report,
        "edge-count-closed-form",
        actual_edges == result.specified_edge_count,
        specified=result.specified_edge_count,
        enumerated=actual_edges,
    )
    with Timer(report, "certificate"):
        cert = certify_structure(result)
    add_check(report, "structure-certificate", cert.ok, **{
        f.name: f.ok for f in cert.facts
    })
    bound = edge_bound_check(result)
    add_check(report, "edge-bound", bound.holds or not bound.theorem_scale,
              **bound.to_json())
    report["counts"] = {
        "edges": actual_edges,
        "base": layout.base,
        "block_size": layout.block_size,
        "pairs": layout.pairs,
        "degenerate": layout.degenerate,
        "theorem_scale": layout.theorem_scale,
    }

    outdir = _outdir(args)
    stem = f"construction_n{args.n}_s{args.s}_k{args.k}"
    (outdir / f"{stem}.g6").write_text(encode_graph6(result.graph) + "\n")
    write_json(outdir / f"{stem}.layout.json", layout.to_json())
    outputs = {
        "graph6": str(outdir / f"{stem}.g6"),
        "layout": str(outdir / f"{stem}.layout.json"),
    }

    if args.saturate:
        with Timer(report, "saturate"):
            sat, added = saturate(result.graph, args.s, args.k)
        with Timer(report, "maximality"):
            maximal, failing = is_maximal_book_free(
                sat, args.s, args.k, workers=args.workers
            )
        add_check(report, "saturated-maximal", maximal,
                  failing_non_edges=failing[:20])
        report["counts"]["saturated_edges"] = sat.num_edges()
        report["counts"]["added_edges"] = len(added)
        sat_path = outdir / f"{stem}.saturated.g6"
        sat_path.write_text(encode_graph6(sat) + "\n")
        outputs["saturated_graph6"] = str(sat_path)

    report["outputs"] = outputs
    _emit(report, str(outdir / f"{stem}.report.json"))
    print(f"construction n={args.n} s={args.s} k={args.k} alpha={args.alpha}: "
          f"{result.specified_edge_count} specified edges, certificate "
          f"{'ok' if cert.ok else 'FAILED'}")
    return EXIT_OK if all_checks_pass(report) else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    g = _read_graph(args.input)
    params = {
        "input": args.input,
        "checks": args.check,
        "s": args.s,
        "k": args.k,
        "budget": args.budget,
    }
    report = new_report("verify", params)
    report["counts"] = {"n": g.n, "edges": g.num_edges()}

    for check in args.check:
        if check == "freeness":
            with Timer(report, "freeness"):
                free, witness = is_book_free(g, args.s, args.k)
            add_check(report, "freeness", free,
                      witness=witness.to_json() if witness else None)
        elif check == "maximality":
            try:
                with Timer(report, "maximality"):
                    maximal, failing = is_maximal_book_free(
                        g, args.s, args.k, workers=args.workers
                    )
                add_check(report, "maximality", maximal,
                          failing_non_edges=failing[:50])
            except NotBookFreeError as exc:
                add_check(report, "maximality", False,
                          error="input contains the pattern",
                          witness=exc.witness.to_json())
        elif check == "biclique":
            with Timer(report, "biclique"):
                search = max_induced_complete_bipartite(g, budget=args.budget)
            valid = validate_biclique(g, search.best)
            add_check(report, "biclique", valid, **search.to_json())
        elif check == "certificate":
            if not args.layout:
                print("--layout is required for the certificate check",
                      file=sys.stderr)
                return EXIT_USAGE
            layout = BlockLayout.from_json(
                json.loads(Path(args.layout).read_text())
            )
            from .construction import ConstructionResult, specified_edge_count

            result = ConstructionResult(
                graph=g, layout=layout,
                specified_edge_count=specified_edge_count(layout),
            )
            with Timer(report, "certificate"):
                cert = certify_structure(result)
            add_check(report, "certificate", cert.ok,
                      facts=[f.to_json() for f in cert.facts])

    _emit(report, args.out)
    return EXIT_OK if all_checks_pass(report) else EXIT_CHECK_FAILED


def cmd_stability(args) -> int:
    g = _read_graph(args.input)
    params = {
        "input": args.input,
        "s": args.s,
        "k": args.k,
        "alpha": str(args.alpha),
    }
    report = new_report("stability", params, seed=args.seed)
    h = book_order(args.s, args.k)
    report["counts"] = {"n": g.n, "edges": g.num_edges(), "h": h}

    try:
        with Timer(report, "maximality-precheck"):
            maximal, failing = is_maximal_book_free(
                g, args.s, args.k, workers=args.workers
            )
    except NotBookFreeError as exc:
        add_check(report, "input-maximal", False,
                  error="input contains the pattern",
                  witness=exc.witness.to_json())
        _emit(report, args.out and str(_outdir(args) / "stability.report.json"))
        print(f"input is not pattern-free: witness at hub edge "
              f"{exc.witness.hub_edge}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if not maximal:
        add_check(report, "input-maximal", False,
                  failing_non_edges=failing[:50])
        _emit(report, args.out and str(_outdir(args) / "stability.report.json"))
        print(f"input is not maximal: {len(failing)} addable non-edges, "
              f"first {failing[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    add_check(report, "input-maximal", True)

    with Timer(report, "partition"):
        part, ptrace = build_uvt_partition(g, h, seed=args.seed)
    with Timer(report, "pipeline"):
        core, trace = deletion_pipeline(g, part, args.s, args.k)
    core_ok = validate_biclique(g, core)
    add_check(report, "core-induced-complete-bipartite", core_ok,
              core_size=core.size)
    report["counts"].update({
        "exceptional": part.exceptional.bit_count(),
        "core_size": core.size,
        "deleted_total": trace.deleted_total,
        "steps": len(trace.steps),
        "anchor_violations": trace.anchor_violations,
    })
    report["bound_report"] = bound_report(trace, g.n, args.s, args.k, args.alpha)

    outdir = _outdir(args)
    write_json(outdir / "stability.partition.json", part.to_json())
    write_json(outdir / "stability.trace.json", trace.to_json())
    write_json(outdir / "stability.core.json", core.to_json())
    report["outputs"] = {
        "partition": str(outdir / "stability.partition.json"),
        "trace": str(outdir / "stability.trace.json"),
        "core": str(outdir / "stability.core.json"),
    }
    _emit(report, str(outdir / "stability.report.json"))
    print(f"stability: core {core.size} of {g.n} vertices, "
          f"{trace.deleted_total} deleted in {len(trace.steps)} steps, "
          f"|exceptional| {part.exceptional.bit_count()}")
    return EXIT_OK if all_checks_pass(report) else EXIT_CHECK_FAILED


def cmd_max_bipartite(args) -> int:
    g = _read_graph(args.input)
    report = new_report("max-bipartite", {"input": args.input, "budget": args.budget})
    with Timer(report, "search"):
        search = max_induced_complete_bipartite(g, budget=args.budget)
    valid = validate_biclique(g, search.best)
    add_check(report, "biclique-valid", valid, **search.to_json())
    report["counts"] = {
        "n": g.n,
        "edges": g.num_edges(),
        "best_size": search.best.size,
        "optimal": search.optimal,
        "upper_bound": search.upper_bound,
        "nodes": search.nodes,
    }
    _emit(report, args.out)
    return EXIT_OK if all_checks_pass(report) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; built once, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="oddbook",
        description="Odd-book-free graph construction, verification, and "
                    "bipartite-core extraction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="build and validate an (s, k) odd book")
    p.add_argument("-s", type=_positive, required=True, help="number of glued cycles")
    p.add_argument("-k", type=_positive, required=True, help="cycles have length 2k+1")
    p.add_argument("-o", "--out", help="output directory (default .)")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("construct", help="build the minimum construction member")
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-s", type=_positive, required=True)
    p.add_argument("-k", type=_positive, required=True)
    p.add_argument("--alpha", type=_fraction, default=Fraction(1, 2),
                   help="exact rational, e.g. 1/2")
    p.add_argument("--saturate", action="store_true",
                   help="also saturate to a maximal member and verify maximality")
    p.add_argument("--workers", type=_positive, default=1)
    p.add_argument("-o", "--out", help="output directory (default .)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run checks against a graph6 input")
    p.add_argument("-i", "--input", required=True, help="graph6 file")
    p.add_argument("--check", action="append", required=True,
                   choices=["freeness", "maximality", "biclique", "certificate"])
    p.add_argument("-s", type=_positive, default=2)
    p.add_argument("-k", type=_positive, default=2)
    p.add_argument("--budget", type=_positive, default=10 ** 7,
                   help="node budget for the biclique search")
    p.add_argument("--layout", help="layout JSON for the certificate check")
    p.add_argument("--workers", type=_positive, default=1)
    p.add_argument("-o", "--out", help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stability", help="run the deletion pipeline")
    p.add_argument("-i", "--input", required=True, help="graph6 file")
    p.add_argument("-s", type=_positive, required=True)
    p.add_argument("-k", type=_positive, required=True)
    p.add_argument("--alpha", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive, default=1)
    p.add_argument("-o", "--out", help="output directory (default .)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("max-bipartite",
                       help="exact maximum induced complete bipartite subgraph")
    p.add_argument("-i", "--input", required=True, help="graph6 file")
    p.add_argument("--budget", type=_positive, default=10 ** 7)
    p.add_argument("-o", "--out", help="report path (default stdout)")
    p.set_defaults(func=cmd_max_bipartite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
