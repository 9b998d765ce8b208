import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oddbook.cli import build_parser, main
from oddbook.construction import BlockLayout
from oddbook.graph import Graph, decode_graph6, encode_graph6
from oddbook.pattern import build_odd_book

from .oracles import complete_bipartite, cycle_graph


def _write_g6(path, g):
    path.write_text(encode_graph6(g) + "\n")
    return str(path)


# The first copy of the (2, 2) book in itself, as a maximality check reports it.
BOOK_WITNESS = {
    "error": "input contains the pattern",
    "witness": {"pattern": {"s": 2, "k": 2}, "mapping": [0, 1, 2, 3, 4, 5, 6, 7],
                "hub_edge": [0, 1], "anchor": None, "probe": None},
}
C5_NON_EDGES = [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]


def test_pattern_command(tmp_path, capsys):
    rc = main(["pattern", "-s", "2", "-k", "2", "-o", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "book_s2_k2.report.json").read_text())
    assert report["schema_version"] == 1
    assert report["counts"]["order"] == 8
    assert report["counts"]["size"] == 9
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks["three-chromatic"]
    g = decode_graph6((tmp_path / "book_s2_k2.g6").read_text())
    assert g.n == 8


def test_pattern_single_page_is_cycle(tmp_path):
    rc = main(["pattern", "-s", "1", "-k", "3", "-o", str(tmp_path)])
    assert rc == 0
    g = decode_graph6((tmp_path / "book_s1_k3.g6").read_text())
    assert g.n == 7
    assert all(g.degree(v) == 2 for v in range(7))


def test_pattern_refuses_order_over_search_cap(tmp_path, capsys, monkeypatch):
    # order 35 is built; orders over 512 are refused before the book is
    # built: an order of 3 * 10**9 would otherwise allocate its adjacency
    # list first
    assert main(["pattern", "-s", "11", "-k", "2", "-o", str(tmp_path / "ok")]) == 0
    assert capsys.readouterr().out == "pattern s=11 k=2: order 35, size 45, chi 3\n"

    def no_build(*args):
        raise AssertionError("build_odd_book called")

    monkeypatch.setattr("oddbook.cli.build_odd_book", no_build)
    for s, n in (("171", 515), ("1000000000", 3 * 10 ** 9 + 2)):
        refused = tmp_path / s
        assert main(["pattern", "-s", s, "-k", "2", "-o", str(refused)]) == 2
        assert capsys.readouterr().err == (
            f"error: exhaustive search refused for n={n} > 512\n")
        assert not refused.exists()


def test_pattern_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["pattern", "-s", "0", "-k", "2"])
    assert exc.value.code == 2


def test_construct_command(tmp_path):
    rc = main([
        "construct", "-n", "64", "-s", "2", "-k", "2", "--alpha", "1/2",
        "-o", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "construction_n64_s2_k2.report.json").read_text())
    assert report["counts"]["edges"] == 684
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks["edge-count-closed-form"]
    assert checks["structure-certificate"]
    layout_doc = json.loads((tmp_path / "construction_n64_s2_k2.layout.json").read_text())
    assert layout_doc["alpha"] == "1/2"
    assert layout_doc["base"] == 2


def test_construct_infeasible(tmp_path, capsys):
    rc = main([
        "construct", "-n", "10", "-s", "2", "-k", "2", "--alpha", "1/2",
        "-o", str(tmp_path),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible layout: ") and err.count("\n") == 1
    assert ">= 2" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [2 ** 18 + 1, 10 ** 400, 513])
def test_construct_refuses_order_over_graph6_cap(tmp_path, capsys, n):
    # refused before the layout is planned, so this returns at once; at
    # n = 513 only --saturate is refused, by the exhaustive-search limit
    saturate = ["--saturate"] if n == 513 else []
    argv = ["construct", "-n", str(n), "-s", "2", "-k", "2", "-o", str(tmp_path)]
    assert main(argv + saturate) == 2
    assert capsys.readouterr().err == (
        "error: exhaustive search refused for n=513 > 512\n" if saturate
        else f"error: -n {n} is over the graph6 cap of n <= 262144\n")
    assert list(tmp_path.iterdir()) == []
    if saturate:
        assert main(argv) == 0


def test_construct_with_saturation(tmp_path):
    rc = main([
        "construct", "-n", "20", "-s", "2", "-k", "2", "--saturate",
        "-o", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "construction_n20_s2_k2.report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["saturated-maximal"] == {
        "name": "saturated-maximal", "pass": True, "details": {"failing_non_edges": []}}
    assert {"saturate", "maximality"} <= set(report["timings_ms"])
    sat = decode_graph6((tmp_path / "construction_n20_s2_k2.saturated.g6").read_text())
    assert sat.num_edges() == report["counts"]["saturated_edges"]
    assert sat.num_edges() >= report["counts"]["edges"]


def test_alpha_rejects_floats():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "-n", "64", "-s", "2", "-k", "2", "--alpha", "0.5x"])
    assert exc.value.code == 2


def test_alpha_decimal_parses_exactly(tmp_path):
    # a decimal string is parsed exactly, so 0.5 is the rational 1/2
    for alpha in ("1/2", "0.5"):
        out = tmp_path / alpha.replace("/", "_")
        argv = ["construct", "-n", "64", "-s", "2", "-k", "2", "--alpha", alpha]
        assert main(argv + ["-o", str(out)]) == 0
    layouts = [(tmp_path / d / "construction_n64_s2_k2.layout.json").read_text()
               for d in ("1_2", "0.5")]
    assert layouts[0] == layouts[1]
    assert json.loads(layouts[1])["alpha"] == "1/2"


@pytest.mark.parametrize("alpha", ["-3", "0", "2/3"])
def test_stability_refuses_alpha_outside_range(tmp_path, capsys, alpha):
    g6 = _write_g6(tmp_path / "k99.g6", complete_bipartite(9, 9))
    out = tmp_path / "out"
    out.mkdir()
    for path in (g6, str(tmp_path / "missing.g6")):  # refused before the input is read
        argv = ["stability", "-i", path, "-s", "2", "-k", "2", "--alpha", alpha]
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: alpha must lie in (0, 1/2]\n"
        assert list(out.iterdir()) == []


def test_stability_alpha_half_is_the_default(tmp_path):
    g6 = _write_g6(tmp_path / "k99.g6", complete_bipartite(9, 9))
    reports = []
    for name, alpha in (("default", []), ("half", ["--alpha", "1/2"])):
        argv = ["stability", "-i", g6, "-s", "2", "-k", "2", "-o", str(tmp_path / name)]
        assert main(argv + alpha) == 0
        report = json.loads((tmp_path / name / "stability.report.json").read_text())
        del report["timings_ms"], report["outputs"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[1]["parameters"]["alpha"] == "1/2"


def test_verify_freeness_pass(tmp_path, capsys):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    out = tmp_path / "report.json"
    rc = main(["verify", "-i", g6, "--check", "freeness", "-s", "2", "-k", "2",
               "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["pass"]
    # above the exhaustive-search limit: one error line and no report
    out.unlink()
    g6 = _write_g6(tmp_path / "empty513.g6", Graph(513))
    assert main(["verify", "-i", g6, "--check", "freeness", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: exhaustive search refused for n=513 > 512\n"
    assert not out.exists()


def test_verify_biclique_optimum(tmp_path):
    g6 = _write_g6(tmp_path / "k33.g6", complete_bipartite(3, 3))
    out = tmp_path / "report.json"
    rc = main(["verify", "-i", g6, "--check", "biclique", "--budget", "10000000",
               "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    details = report["checks"][0]["details"]
    assert details["biclique"]["size"] == 6
    assert details["optimal"]


@pytest.mark.parametrize("argv", [["max-bipartite"], ["verify", "--check", "biclique"]])
def test_biclique_search_refuses_hosts_over_search_limit(tmp_path, capsys, argv):
    g6 = _write_g6(tmp_path / "empty513.g6", Graph(513))
    out = tmp_path / "report.json"
    assert main([*argv, "-i", g6, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: exhaustive search refused for n=513 > 512\n"
    assert not out.exists()


def test_verify_maximality_failure_lists_non_edges(tmp_path):
    g6 = _write_g6(tmp_path / "empty.g6", Graph(7))
    out = tmp_path / "report.json"
    rc = main(["verify", "-i", g6, "--check", "maximality", "-s", "2", "-k", "2",
               "-o", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    check = report["checks"][0]
    assert not check["pass"]
    assert check["details"]["failing_non_edges"]
    # the list is cut at 50 pairs: the empty graph on 11 vertices has 55
    g6 = _write_g6(tmp_path / "empty11.g6", Graph(11))
    assert main(["verify", "-i", g6, "--check", "maximality", "-o", str(out)]) == 1
    [check] = json.loads(out.read_text())["checks"]
    assert check["details"]["failing_non_edges"] == [
        [u, v] for u in range(11) for v in range(u + 1, 11)][:50]


# K_{4,4} has 12 non-edges, more than 4 per worker, so "--workers 2" runs
# its probes in the process pool on a host of two or more CPUs; the other
# inputs stay serial
@pytest.mark.parametrize("g, rc, details, workers", [
    (complete_bipartite(4, 4), 0, {"failing_non_edges": []}, []),
    (cycle_graph(5), 1, {"failing_non_edges": C5_NON_EDGES}, []),
    (build_odd_book(2, 2).graph, 1, BOOK_WITNESS, []),
    (complete_bipartite(4, 4), 0, {"failing_non_edges": []}, ["--workers", "2"]),
    (cycle_graph(5), 1, {"failing_non_edges": C5_NON_EDGES}, ["--workers", "2"]),
    (build_odd_book(2, 2).graph, 1, BOOK_WITNESS, ["--workers", "2"]),
], ids=["maximal", "not-maximal", "holds-pattern",
        "maximal-workers-2", "not-maximal-workers-2", "holds-pattern-workers-2"])
def test_verify_maximality_check_entry(tmp_path, capsys, g, rc, details, workers):
    g6 = _write_g6(tmp_path / "input.g6", g)
    out = tmp_path / "report.json"
    argv = ["verify", "-i", g6, "--check", "maximality", "-o", str(out), *workers]
    assert main(argv) == rc
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["checks"] == [{"name": "maximality", "pass": rc == 0, "details": details}]
    assert list(report["timings_ms"]) == ["maximality"]


def test_import_loads_no_process_pool():
    # the pool and its modules load only when --workers runs more than one process
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import oddbook, oddbook.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_parser_is_reused_without_carrying_state(tmp_path):
    assert build_parser() is build_parser()
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "-i", g6, "--check", "freeness", "--check", "biclique",
                 "-o", str(first)]) == 0
    assert main(["verify", "-i", g6, "--check", "biclique", "-o", str(second)]) == 0
    names = [c["name"] for c in json.loads(second.read_text())["checks"]]
    assert len(names) == 1


def test_verify_runs_each_check_once(tmp_path):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    out = tmp_path / "report.json"
    assert main(["verify", "-i", g6, "--check", "freeness", "--check", "biclique",
                 "--check", "freeness", "--check", "biclique", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == ["freeness", "biclique"]
    assert report["parameters"]["checks"] == ["freeness", "biclique"]
    assert list(report["timings_ms"]) == ["freeness", "biclique"]


def test_verify_unknown_check_rejected(tmp_path):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-i", g6, "--check", "nonsense"])
    assert exc.value.code == 2


def test_verify_certificate_roundtrip(tmp_path, capsys):
    rc = main([
        "construct", "-n", "64", "-s", "2", "-k", "2", "-o", str(tmp_path),
    ])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", "-i", str(tmp_path / "construction_n64_s2_k2.g6"),
               "--check", "freeness", "--check", "certificate",
               "-o", str(tmp_path / "verify.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --layout is required for the certificate check\n")
    assert not (tmp_path / "verify.json").exists()
    rc = main([
        "verify",
        "-i", str(tmp_path / "construction_n64_s2_k2.g6"),
        "--check", "certificate",
        "--layout", str(tmp_path / "construction_n64_s2_k2.layout.json"),
        "-o", str(tmp_path / "verify.json"),
    ])
    assert rc == 0
    # a layout whose derived id lists were edited is refused, not certified
    doc = json.loads((tmp_path / "construction_n64_s2_k2.layout.json").read_text())
    doc["right_blocks"], doc["connectors"] = doc["right_blocks"][::-1], doc["connectors"][::-1]
    (tmp_path / "edited.layout.json").write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", "-i", str(tmp_path / "construction_n64_s2_k2.g6"),
               "--check", "certificate", "--layout", str(tmp_path / "edited.layout.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: layout key 'right_blocks' missing or inconsistent with derived geometry\n")


def _construct(tmp_path, n):
    assert main(["construct", "-n", str(n), "-s", "2", "-k", "2", "-o", str(tmp_path)]) == 0
    return (tmp_path / f"construction_n{n}_s2_k2.g6",
            tmp_path / f"construction_n{n}_s2_k2.layout.json")


def test_construct_and_verify_write_one_certificate_check(tmp_path):
    # both commands list every fact with its witness, in one shape
    g6, layout = _construct(tmp_path, 64)
    built = json.loads((tmp_path / "construction_n64_s2_k2.report.json").read_text())
    out = tmp_path / "verify.json"
    assert main(["verify", "-i", str(g6), "--check", "certificate",
                 "--layout", str(layout), "-o", str(out)]) == 0
    verified = json.loads(out.read_text())
    (made,) = [c for c in built["checks"] if c["name"] == "structure-certificate"]
    (checked,) = verified["checks"]
    assert checked["name"] == "certificate"
    assert made["details"] == checked["details"]
    assert [f["witness"] for f in made["details"]["facts"]] == [None] * 6
    assert "certificate" in built["timings_ms"]
    assert list(verified["timings_ms"]) == ["certificate"]


def test_verify_certificate_layout_of_another_order(tmp_path, capsys):
    g6, _ = _construct(tmp_path, 32)
    _, layout = _construct(tmp_path, 64)
    capsys.readouterr()
    rc = main(["verify", "-i", str(g6), "--check", "certificate",
               "--layout", str(layout)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n=64" in err and "n=32" in err


@pytest.mark.parametrize("key, value", [("s", None), ("n", "64")])
def test_verify_certificate_layout_with_bad_key(tmp_path, capsys, key, value):
    g6, layout = _construct(tmp_path, 64)
    doc = json.loads(layout.read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    layout.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", "-i", str(g6), "--check", "certificate",
               "--layout", str(layout)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: layout key ") and err.count("\n") == 1
    assert repr(key) in err


def test_verify_certificate_layout_that_does_not_fit(tmp_path, capsys):
    g6, layout = _construct(tmp_path, 32)
    doc = BlockLayout(32, 2, 2, Fraction(1, 2), base=2, block_size=4).to_json()
    layout.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["verify", "-i", str(g6), "--check", "certificate",
               "--layout", str(layout)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not fit in n=32" in err


def test_stability_complete_bipartite(tmp_path):
    g6 = _write_g6(tmp_path / "k99.g6", complete_bipartite(9, 9))
    rc = main(["stability", "-i", g6, "-s", "2", "-k", "2", "-o", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "stability.report.json").read_text())
    assert report["counts"]["core_size"] == 18
    assert report["counts"]["deleted_total"] == 0
    assert report["checks"][0] == {
        "name": "input-maximal", "pass": True, "details": {"failing_non_edges": []}}
    assert list(report["timings_ms"]) == ["maximality-precheck", "partition", "pipeline"]
    trace = json.loads((tmp_path / "stability.trace.json").read_text())
    assert trace["steps"] == []


def test_stability_rejects_non_maximal(tmp_path, capsys):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    rc = main(["stability", "-i", g6, "-s", "2", "-k", "2", "-o", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "input is not maximal: 5 addable non-edges, first (0, 2)\n")
    report = json.loads((tmp_path / "stability.report.json").read_text())
    assert report["checks"] == [{"name": "input-maximal", "pass": False,
                                 "details": {"failing_non_edges": C5_NON_EDGES}}]
    assert list(report["timings_ms"]) == ["maximality-precheck"]


def test_stability_rejects_non_free(tmp_path, capsys):
    g6 = _write_g6(tmp_path / "book.g6", build_odd_book(2, 2).graph)
    rc = main(["stability", "-i", g6, "-s", "2", "-k", "2", "-o", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "input is not pattern-free: witness at hub edge (0, 1)\n")
    report = json.loads((tmp_path / "stability.report.json").read_text())
    assert report["checks"] == [
        {"name": "input-maximal", "pass": False, "details": BOOK_WITNESS}]
    assert list(report["timings_ms"]) == ["maximality-precheck"]


@pytest.mark.parametrize(
    "g", [cycle_graph(7), build_odd_book(2, 2).graph], ids=["not-maximal", "holds-pattern"]
)
def test_stability_failure_report_goes_to_default_outdir(tmp_path, monkeypatch, capsys, g):
    monkeypatch.chdir(tmp_path)
    g6 = _write_g6(tmp_path / "input.g6", g)
    rc = main(["stability", "-i", g6, "-s", "2", "-k", "2"])
    assert rc == 1
    assert capsys.readouterr().out == ""
    report = json.loads((tmp_path / "stability.report.json").read_text())
    [check] = report["checks"]
    assert check["name"] == "input-maximal" and not check["pass"]


def test_max_bipartite_command(tmp_path):
    g6 = _write_g6(tmp_path / "k33.g6", complete_bipartite(3, 3))
    out = tmp_path / "mb.json"
    rc = main(["max-bipartite", "-i", g6, "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["counts"]["best_size"] == 6
    assert report["counts"]["optimal"]


def test_bad_input_file(tmp_path):
    missing = str(tmp_path / "nope.g6")
    with pytest.raises(SystemExit):
        main(["verify", "-i", missing, "--check", "freeness"])


def test_non_utf8_input_file_names_file_and_offset(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"B\xff\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-i", str(path), "--check", "freeness"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot parse {path}: " in err
    assert err.rstrip().endswith("(byte offset 1)")


def test_reports_deterministic(tmp_path):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    main(["verify", "-i", g6, "--check", "freeness", "-o", str(out1)])
    main(["verify", "-i", g6, "--check", "freeness", "-o", str(out2)])
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("timings_ms")
    r2.pop("timings_ms")
    r1["parameters"].pop("input")
    r2["parameters"].pop("input")
    assert r1 == r2