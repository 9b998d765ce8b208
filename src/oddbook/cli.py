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
    BlockLayout,
    ConstructionResult,
    build_min_member,
    certify_structure,
    check_alpha,
    edge_bound_check,
    plan_layout,
)
from .freeness import (
    NotBookFreeError,
    check_search_order,
    is_book_free,
    is_maximal_book_free,
    saturate,
)
from .graph import _G6_MAX_ENCODE, GraphFormatError, decode_graph6, encode_graph6
from .pattern import (
    book_order,
    build_odd_book,
    is_color_critical_edge,
    odd_book_issues,
)
from .reports import add_check, all_checks_pass, new_report, timed, write_json
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
    """Graph in a graph6 file, read as bytes so that any byte the format
    does not allow is reported with its offset; exits 2 on failure."""
    try:
        return decode_graph6(Path(path).read_bytes())
    except OSError as exc:
        problem = f"cannot read {path}: {exc}"
    except GraphFormatError as exc:
        problem = f"cannot parse {path}: {exc}"
    print(f"error: {problem}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


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


def _check_maximality(report: dict, name: str, timer: str, g, args) -> str | None:
    """Add check `name`: g is maximal (s, k)-book-free, timed as `timer`.
    A failure lists at most 50 addable non-edges, or the first copy when g
    holds the pattern; returns its one-line message, or None on a pass."""
    try:
        with timed(report, timer):
            maximal, failing = is_maximal_book_free(
                g, args.s, args.k, workers=args.workers
            )
    except NotBookFreeError as exc:
        add_check(report, name, False, error="input contains the pattern",
                  witness=exc.witness.to_json())
        return f"input is not pattern-free: witness at hub edge {exc.witness.hub_edge}"
    add_check(report, name, maximal, failing_non_edges=failing[:50])
    if maximal:
        return None
    return f"input is not maximal: {len(failing)} addable non-edges, first {failing[0]}"


def _check_certificate(report: dict, name: str, result: ConstructionResult) -> bool:
    """Add check `name`: result's graph has the structure its layout
    specifies, timed as `certificate`.  Its `details` list every fact with
    its first violation as witness; returns whether all facts hold."""
    with timed(report, "certificate"):
        cert = certify_structure(result)
    add_check(report, name, cert.ok, facts=[f.to_json() for f in cert.facts])
    return cert.ok


def _check_biclique(report: dict, name: str, timer: str, g, budget: int):
    """Add check `name`: the exact maximum induced biclique of g, timed as
    `timer` and re-validated outside the search; returns the search."""
    with timed(report, timer):
        search = max_induced_complete_bipartite(g, budget=budget)
    add_check(report, name, validate_biclique(g, search.best), **search.to_json())
    return search


# ---------------------------------------------------------------------------


def cmd_pattern(args) -> int:
    # refused before the book is built: no search accepts a larger host
    check_search_order(book_order(args.s, args.k))
    report = new_report("pattern", {"s": args.s, "k": args.k})
    book = build_odd_book(args.s, args.k)
    issues = odd_book_issues(book)
    add_check(report, "structure", not issues, issues=issues)
    with timed(report, "coloring"):
        critical = is_color_critical_edge(book)
    chi = 3 if critical else None  # exact, see is_color_critical_edge
    add_check(report, "three-chromatic", critical, chromatic_number=chi)
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
    # refused before anything is planned, built or written
    if args.n > _G6_MAX_ENCODE:
        raise ValueError(f"-n {args.n} is over the graph6 cap of n <= {_G6_MAX_ENCODE}")
    if args.saturate:
        check_search_order(args.n)
    params = {
        "n": args.n,
        "s": args.s,
        "k": args.k,
        "alpha": str(args.alpha),
        "saturate": args.saturate,
    }
    report = new_report("construct", params)
    layout = plan_layout(args.n, args.s, args.k, args.alpha)
    with timed(report, "build"):
        result = build_min_member(layout)
    actual_edges = result.graph.num_edges()
    add_check(
        report,
        "edge-count-closed-form",
        actual_edges == result.specified_edge_count,
        specified=result.specified_edge_count,
        enumerated=actual_edges,
    )
    cert_ok = _check_certificate(report, "structure-certificate", result)
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
        with timed(report, "saturate"):
            sat, added = saturate(result.graph, args.s, args.k)
        _check_maximality(report, "saturated-maximal", "maximality", sat, args)
        report["counts"]["saturated_edges"] = sat.num_edges()
        report["counts"]["added_edges"] = len(added)
        sat_path = outdir / f"{stem}.saturated.g6"
        sat_path.write_text(encode_graph6(sat) + "\n")
        outputs["saturated_graph6"] = str(sat_path)

    report["outputs"] = outputs
    _emit(report, str(outdir / f"{stem}.report.json"))
    print(f"construction n={args.n} s={args.s} k={args.k} alpha={args.alpha}: "
          f"{result.specified_edge_count} specified edges, certificate "
          f"{'ok' if cert_ok else 'FAILED'}")
    return EXIT_OK if all_checks_pass(report) else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    if "certificate" in args.check and not args.layout:
        raise ValueError("--layout is required for the certificate check")
    g = _read_graph(args.input)
    checks = list(dict.fromkeys(args.check))  # each check once, in first-given order
    params = {
        "input": args.input,
        "checks": checks,
        "s": args.s,
        "k": args.k,
        "budget": args.budget,
    }
    report = new_report("verify", params)
    report["counts"] = {"n": g.n, "edges": g.num_edges()}

    for check in checks:
        if check == "freeness":
            with timed(report, "freeness"):
                free, witness = is_book_free(g, args.s, args.k)
            add_check(report, "freeness", free,
                      witness=witness.to_json() if witness else None)
        elif check == "maximality":
            _check_maximality(report, "maximality", "maximality", g, args)
        elif check == "biclique":
            _check_biclique(report, "biclique", "biclique", g, args.budget)
        elif check == "certificate":
            layout = BlockLayout.from_json(
                json.loads(Path(args.layout).read_text())
            )
            _check_certificate(report, "certificate", ConstructionResult(g, layout))

    _emit(report, args.out)
    return EXIT_OK if all_checks_pass(report) else EXIT_CHECK_FAILED


def cmd_stability(args) -> int:
    check_alpha(args.alpha)  # refused before the input is read
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
    outdir = _outdir(args)

    problem = _check_maximality(report, "input-maximal", "maximality-precheck", g, args)
    if problem:
        _emit(report, str(outdir / "stability.report.json"))
        print(problem, file=sys.stderr)
        return EXIT_CHECK_FAILED

    with timed(report, "partition"):
        part, _ = build_uvt_partition(g, h, seed=args.seed)
    with timed(report, "pipeline"):
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
    search = _check_biclique(report, "biclique-valid", "search", g, args.budget)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
