import argparse
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def test_seed_range():
    assert bench_pair.seed_range("3-6") == [3, 4, 5, 6]
    assert bench_pair.seed_range("7") == [7]
    assert bench_pair.seed_range("9-9") == [9]
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        bench_pair.seed_range("6-3")


def test_quartiles():
    assert bench_pair.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}
    assert bench_pair.quartiles([5, 1, 4, 2, 3]) == {"q1": 2, "median": 3, "q3": 4}


def _run(side, seed, trace, wall, score, correct=True):
    metrics = {"wall_s": {"value": wall}, "score": {"value": score}}
    return {"side": side, "workload": "w", "seed": seed, "trace": trace,
            "result": {"metrics": metrics, "correct": correct}}


def test_summarise_counts_wins_in_each_direction():
    # wall_s is better lower and score higher; a tie counts for neither
    # side, and the traced seed-0 runs are left out of the pairs
    runs = [
        _run("parent", 1, 0, 1.0, 5), _run("change", 1, 0, 0.9, 6),
        _run("change", 2, 0, 0.8, 7), _run("parent", 2, 0, 1.0, 5),
        _run("parent", 3, 0, 1.0, 5), _run("change", 3, 0, 1.1, 5),
        _run("parent", 0, 1, 9.0, 0), _run("change", 0, 1, 0.1, 99, correct=False),
    ]
    out = bench_pair.summarise(runs, [1, 2, 3],
                                {"wall_s": ("lower", 0.25), "score": ("higher", 0.25)},
                                ("wall_s", "score"))
    assert out["pairs"] == 3
    assert out["seeds"] == [1, 3]
    assert out["all_correct"] is False
    assert out["wall_s"]["change_wins"] == 2
    assert out["score"]["change_wins"] == 2
    assert out["wall_s"]["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert out["wall_s"]["change"]["median"] == 0.9
    assert out["score"]["change"]["median"] == 6
    assert bench_pair.summarise(runs[:6], [1, 2, 3], {}, ())["all_correct"] is True
    # a count is compared over the traced runs alone: both differ there,
    # and wall_s no longer does once the change's traced run reads the
    # parent's; a count that no run reports differs nowhere
    assert out["counts_differ"] == ["wall_s", "score"]
    runs[7]["result"]["metrics"]["wall_s"]["value"] = 9.0
    out = bench_pair.summarise(runs, [1, 2, 3], {}, ("wall_s", "score", "absent"))
    assert out["counts_differ"] == ["score"]


def test_dump_round_trips():
    doc = {"description": "d", "command": "c",
           "summary": {"w": {"pairs": 1, "wall_s": {"change_wins": 0}}},
           "runs": [_run("parent", 1, 0, 1.0, 5), _run("change", 1, 0, 0.5, 6)]}
    text = bench_pair.dump(doc)
    assert json.loads(text) == doc
    lines = text.splitlines()
    assert sum(line.startswith('  {"side"') for line in lines) == 2


def test_summarise_reports_layer_quartiles_per_side():
    # per-layer metrics come from the traced runs alone; a metric that one
    # traced run lacks is left out
    def traced(side, layer_ms, extra=None):
        run = _run(side, 0, 1, 0.0, 0)
        run["result"]["metrics"] = {"layer_ms": {"value": layer_ms}, **(extra or {})}
        return run

    runs = [_run("parent", 1, 0, 1.0, 5), _run("change", 1, 0, 0.9, 6),
            traced("parent", 10.0, {"new_ms": {"value": 1.0}}), traced("change", 4.0),
            traced("change", 2.0), traced("parent", 30.0), traced("parent", 20.0),
            traced("change", 3.0)]
    layers = bench_pair.summarise(runs, [1], {"wall_s": ("lower", 0.25)}, ())["layers"]
    assert list(layers) == ["layer_ms"]
    assert layers["layer_ms"]["parent"] == {"q1": 15.0, "median": 20.0, "q3": 25.0}
    assert layers["layer_ms"]["change"]["median"] == 3.0
    assert bench_pair.summarise(runs[:2], [1], {}, ())["layers"] == {}


def test_traced_runs_alternate_sides(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run_bench(checkout, workload, seed, seconds, trace):
        side = checkout.name
        calls.append((side, seed, seconds, trace))
        if trace:
            nth = sum(c[0] == side and c[3] for c in calls)
            metrics = {"layer_ms": {"value": nth * (10.0 if side == "parent" else 1.0)}}
        else:
            metrics = {"wall_s": {"value": 1.0 if side == "parent" else 0.5}}
        return {"result": {"metrics": metrics, "correct": True}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    # layer_ms is declared a count, so its differing traced values are named
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "layer_ms", "unit": "count", "better": "lower"}]}))
    monkeypatch.setattr(bench_pair, "run_bench", fake_run_bench)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--seeds", "1-2", "--seconds", "3", "--out", str(out)]
    assert bench_pair.main(argv) == 0
    assert [c for c in calls if not c[3]] == [
        ("parent", 1, 3, 0), ("change", 1, 3, 0), ("change", 2, 3, 0), ("parent", 2, 3, 0)]
    assert [c[0] for c in calls if c[3]] == [
        "parent", "change", "change", "parent", "parent", "change"]
    assert all(c[1:3] == (0, 0) for c in calls if c[3])
    doc = json.loads(out.read_text())
    assert sum(run["trace"] for run in doc["runs"]) == 6
    summary = doc["summary"]["w"]
    assert summary["wall_s"]["change_wins"] == 2
    assert summary["layers"]["layer_ms"]["parent"]["median"] == 20.0
    assert summary["layers"]["layer_ms"]["change"]["median"] == 2.0
    assert summary["counts_differ"] == ["layer_ms"]
    printed = capsys.readouterr().out
    assert "w layer_ms: parent 20 change 2 (median of 3 traced)" in printed
    assert "w counts differ: layer_ms" in printed


WIDE = [1.0, 1.0, 2.0, 2.0, 3.0]  # IQR / median = 0.5


@pytest.mark.parametrize("better, parent, change, bound, unresolved", [
    # over the bound, and one change run is worse than a parent run
    ("lower", WIDE, [0.9, 1.5, 1.5, 1.5, 3.5], 0.25, True),
    ("higher", WIDE, [3.5, 4.0, 4.0, 4.0, 0.5], 0.25, True),
    # over the bound, but every change run beats every parent run
    ("lower", WIDE, [0.5, 0.6, 0.7, 0.8, 0.9], 0.25, False),
    ("higher", WIDE, [3.5, 4.0, 4.0, 4.0, 4.0], 0.25, False),
    # a spread at the bound is not over it
    ("lower", WIDE, [0.9, 1.5, 1.5, 1.5, 3.5], 0.5, False),
    # a narrow parent resolves a change worse on every pair, as a loss
    ("lower", [1.0, 1.0, 1.0, 1.1, 1.1], [2.0] * 5, 0.25, False),
])
def test_summarise_marks_unresolved_metrics(better, parent, change, bound, unresolved):
    seeds = list(range(1, 6))
    runs = [_run(side, seed, 0, wall, 0)
            for seed, p, c in zip(seeds, parent, change)
            for side, wall in (("parent", p), ("change", c))]
    out = bench_pair.summarise(runs, seeds, {"wall_s": (better, bound)}, ())
    assert out["wall_s"]["unresolved"] is unresolved
