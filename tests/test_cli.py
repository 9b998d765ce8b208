import json

import pytest

from oddbook.cli import build_parser, main
from oddbook.graph import Graph, complete_bipartite, cycle_graph, decode_graph6, encode_graph6


def _write_g6(path, g):
    path.write_text(encode_graph6(g) + "\n")
    return str(path)


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
    assert "infeasible" in err
    assert ">= 2" in err


def test_construct_with_saturation(tmp_path):
    rc = main([
        "construct", "-n", "20", "-s", "2", "-k", "2", "--saturate",
        "-o", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "construction_n20_s2_k2.report.json").read_text())
    checks = {c["name"]: c["pass"] for c in report["checks"]}
    assert checks["saturated-maximal"]
    sat = decode_graph6((tmp_path / "construction_n20_s2_k2.saturated.g6").read_text())
    assert sat.num_edges() == report["counts"]["saturated_edges"]
    assert sat.num_edges() >= report["counts"]["edges"]


def test_alpha_rejects_floats():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "-n", "64", "-s", "2", "-k", "2", "--alpha", "0.5x"])
    assert exc.value.code == 2


def test_verify_freeness_pass(tmp_path):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    out = tmp_path / "report.json"
    rc = main(["verify", "-i", g6, "--check", "freeness", "-s", "2", "-k", "2",
               "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["pass"]


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


def test_verify_unknown_check_rejected(tmp_path):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-i", g6, "--check", "nonsense"])
    assert exc.value.code == 2


def test_verify_certificate_roundtrip(tmp_path):
    rc = main([
        "construct", "-n", "64", "-s", "2", "-k", "2", "-o", str(tmp_path),
    ])
    assert rc == 0
    rc = main([
        "verify",
        "-i", str(tmp_path / "construction_n64_s2_k2.g6"),
        "--check", "certificate",
        "--layout", str(tmp_path / "construction_n64_s2_k2.layout.json"),
        "-o", str(tmp_path / "verify.json"),
    ])
    assert rc == 0


def test_stability_complete_bipartite(tmp_path):
    g6 = _write_g6(tmp_path / "k99.g6", complete_bipartite(9, 9))
    rc = main(["stability", "-i", g6, "-s", "2", "-k", "2", "-o", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "stability.report.json").read_text())
    assert report["counts"]["core_size"] == 18
    assert report["counts"]["deleted_total"] == 0
    trace = json.loads((tmp_path / "stability.trace.json").read_text())
    assert trace["steps"] == []


def test_stability_rejects_non_maximal(tmp_path, capsys):
    g6 = _write_g6(tmp_path / "c5.g6", cycle_graph(5))
    rc = main(["stability", "-i", g6, "-s", "2", "-k", "2", "-o", str(tmp_path)])
    assert rc == 1
    assert "not maximal" in capsys.readouterr().err


def test_stability_rejects_non_free(tmp_path, capsys):
    from oddbook.pattern import build_odd_book

    g6 = _write_g6(tmp_path / "book.g6", build_odd_book(2, 2).graph)
    rc = main(["stability", "-i", g6, "-s", "2", "-k", "2", "-o", str(tmp_path)])
    assert rc == 1
    assert "not pattern-free" in capsys.readouterr().err


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