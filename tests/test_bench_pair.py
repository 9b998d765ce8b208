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
    out = bench_pair.summarise(runs, [1, 2, 3], {"wall_s": "lower", "score": "higher"})
    assert out["pairs"] == 3
    assert out["seeds"] == [1, 3]
    assert out["all_correct"] is False
    assert out["wall_s"]["change_wins"] == 2
    assert out["score"]["change_wins"] == 2
    assert out["wall_s"]["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert out["wall_s"]["change"]["median"] == 0.9
    assert out["score"]["change"]["median"] == 6
    assert bench_pair.summarise(runs[:6], [1, 2, 3], {})["all_correct"] is True


def test_dump_round_trips():
    doc = {"description": "d", "command": "c",
           "summary": {"w": {"pairs": 1, "wall_s": {"change_wins": 0}}},
           "runs": [_run("parent", 1, 0, 1.0, 5), _run("change", 1, 0, 0.5, 6)]}
    text = bench_pair.dump(doc)
    assert json.loads(text) == doc
    lines = text.splitlines()
    assert sum(line.startswith('  {"side"') for line in lines) == 2
