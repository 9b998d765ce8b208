"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
from fractions import Fraction

import pytest

from oddbook.bipartite import (
    build_uvt_partition,
    find_long_path,
    find_parity_path,
    max_induced_complete_bipartite,
    validate_biclique,
)
from oddbook.construction import (
    DigitParams,
    LayoutInfeasibleError,
    build_min_member,
    digit,
    plan_layout,
)
from oddbook.freeness import is_book_free, saturate
from oddbook.graph import (
    Graph,
    bits,
    decode_graph6,
    encode_graph6,
    is_independent,
    mask_of,
    random_graph,
)
from oddbook.pattern import (
    book_order,
    book_size,
    build_odd_book,
    odd_book_issues,
)
from oddbook.stability import deletion_pipeline
from .oracles import (
    chromatic_number_brute,
    contains_book_naive,
    count_edges_between,
    two_coloring_ref,
)


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_pattern_suite():
    ok = True
    for s in range(1, 5):
        for k in range(1, 5):
            book = build_odd_book(s, k)
            ok &= book.order == s * (2 * k - 1) + 2 == book_order(s, k)
            ok &= book.graph.num_edges() == 2 * k * s + 1 == book_size(s, k)
            ok &= odd_book_issues(book) == []
            stripped = book.graph.copy()
            stripped.delete_edge(*book.hubs)
            # chi = 3 and chi - e = 2, by the argument of is_color_critical_edge
            ok &= two_coloring_ref(book.graph) is None
            ok &= two_coloring_ref(stripped) is not None
            if book.order <= 8:
                ok &= chromatic_number_brute(book.graph) == 3
                ok &= chromatic_number_brute(stripped) == 2
    _report("criterion-01 pattern suite (s,k in 1..4)", ok)


def test_criterion_02_digit_suite():
    ok = True
    for base in range(2, 6):
        for width in (2, 3):
            params = DigitParams(base=base, width=width)
            for x in range(base ** width):
                total = sum(digit(x, p, params) * base ** p for p in range(width))
                ok &= total == x
    _report("criterion-02 digit round-trip (base 2..5, width 2..3)", ok)


def test_criterion_03_freeness_oracle_equivalence():
    members = {}
    for n in range(12, 41):
        try:
            layout = plan_layout(n, 2, 2, Fraction(1, 2))
        except LayoutInfeasibleError:
            continue
        members[n] = build_min_member(layout).graph
    ok = bool(members)
    for n, g in members.items():
        free, _ = is_book_free(g, 2, 2)
        ok &= free

    rng = random.Random(303)
    sizes = sorted(members)
    agreements = 0
    for i in range(200):
        g = members[sizes[i % len(sizes)]].copy()
        if rng.random() < 0.5:
            for u, v in rng.sample(list(g.edges()), rng.randrange(1, 4)):
                g.delete_edge(u, v)
        else:
            added = 0
            while added < rng.randrange(1, 4):
                u = rng.randrange(g.n)
                v = rng.randrange(g.n)
                if u != v and not g.has_edge(u, v):
                    g.add_edge(u, v)
                    added += 1
        free, witness = is_book_free(g, 2, 2)
        naive = contains_book_naive(g, 2, 2)
        if free == (not naive):
            agreements += 1
        ok &= free == (not naive)
    _report(
        "criterion-03 freeness oracle equivalence",
        ok,
        f"{len(members)} feasible layouts free, {agreements}/200 perturbations agree",
    )


def test_criterion_04_saturated_member_regression(saturated_64, min_member_64):
    sat, added = saturated_64
    layout = min_member_64.layout
    left_ok = is_independent(sat, layout.left_mask())
    right_ok = is_independent(sat, layout.right_mask())
    diag_ok = all(
        count_edges_between(
            sat, mask_of(layout.left_block(i)), mask_of(layout.right_block(i))
        )
        == 0
        for i in range(layout.pairs)
    )
    _report(
        "criterion-04 saturated n=64 keeps sides independent and diagonals empty",
        left_ok and right_ok and diag_ok,
        f"{len(added)} edges added by saturation (sub-theorem-scale expected pass)",
    )


def test_criterion_05_edge_count_exactness():
    ok = True
    checked = 0
    for s in (2, 3):
        for k in (2, 3):
            for alpha in (Fraction(1, 4), Fraction(1, 2)):
                for n in range(4, 201):
                    try:
                        layout = plan_layout(n, s, k, alpha)
                    except LayoutInfeasibleError:
                        continue
                    result = build_min_member(layout)
                    ok &= result.graph.num_edges() == result.specified_edge_count
                    checked += 1
    _report("criterion-05 edge-count exactness", ok, f"{checked} feasible layouts")


def test_criterion_06_biclique_ceiling(saturated_64, min_member_64):
    sat, _ = saturated_64
    layout = min_member_64.layout
    ceiling = 64 - layout.pairs * layout.block_size
    assert ceiling == 48
    search = max_induced_complete_bipartite(sat, budget=10 ** 8)
    if search.optimal:
        ok = search.best.size <= ceiling and validate_biclique(sat, search.best)
        detail = f"optimum {search.best.size} <= {ceiling}, {search.nodes} nodes"
    else:
        ok = search.upper_bound <= ceiling
        detail = f"search open, upper bound {search.upper_bound} <= {ceiling}"
    _report("criterion-06 biclique ceiling on saturated n=64", ok, detail)


def _random_dense_bipartite(rng, left_size, right_size, min_degree):
    n = left_size + right_size
    g = Graph(n)
    left = list(range(left_size))
    right = list(range(left_size, n))
    for u in left:
        for v in right:
            g.add_edge(u, v)
    # delete random cross edges while every vertex keeps min_degree
    candidates = [(u, v) for u in left for v in right]
    rng.shuffle(candidates)
    for u, v in candidates[: n * 2]:
        if g.degree(u) > min_degree and g.degree(v) > min_degree:
            g.delete_edge(u, v)
    return g, (mask_of(left), mask_of(right))


def test_criterion_07_parity_path_suite():
    h = book_order(2, 2)
    n = 10 * h
    min_degree = (n - n // (5 * h)) // 2  # ceil-free: (1/2 - 1/(10h)) n = 39
    assert min_degree == 39
    failures = 0
    runs = 0
    for seed in range(100):
        rng = random.Random(seed)
        left_size = rng.choice([39, 40, 41])
        g, sides = _random_dense_bipartite(rng, left_size, n - left_size, min_degree)
        assert min(g.degree(v) for v in range(n)) >= min_degree
        for _ in range(20):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            same = (sides[0] >> u & 1) == (sides[0] >> v & 1)
            lengths = range(2, h + 1, 2) if same else range(3, h + 1, 2)
            avoid = mask_of(rng.sample(range(n), h))
            for length in lengths:
                runs += 1
                path = find_parity_path(g, u, v, length, sides, avoid=avoid)
                if path is None or len(path) != length + 1:
                    failures += 1
                    continue
                if any(not g.has_edge(a, b) for a, b in zip(path, path[1:])):
                    failures += 1
                elif mask_of(path[1:-1]) & avoid:
                    failures += 1
    _report(
        "criterion-07 parity-path suite (100 graphs, 20 samples each)",
        failures == 0,
        f"{runs} path queries",
    )


def test_criterion_08_pipeline_postcondition():
    h = book_order(2, 2)
    failures = []
    for seed in range(50):
        rng = random.Random(1000 + seed)
        n = rng.randrange(16, 41)
        g = random_graph(n, rng.uniform(0.05, 0.2), rng)
        free, witness = is_book_free(g, 2, 2)
        while not free:
            g.delete_edge(*witness.hub_edge)
            free, witness = is_book_free(g, 2, 2)
        sat, _ = saturate(g, 2, 2)
        part, _ = build_uvt_partition(sat, h, seed=seed)
        core, trace = deletion_pipeline(sat, part, 2, 2)
        good = validate_biclique(sat, core)
        union = 0
        for m in (mask_of(st.deleted) for st in trace.steps):
            if m & union:
                good = False
            union |= m
        good &= len(trace.steps) <= n
        good &= not (union & core.vertices) and not (union & part.exceptional)
        if not good:
            failures.append(seed)
    _report(
        "criterion-08 pipeline postcondition (50 seeded saturations)",
        not failures,
        f"failing seeds: {failures}" if failures else "all cores induced complete bipartite",
    )


def test_criterion_09_long_path_density():
    failures = 0
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randrange(10, 101)
        target = rng.randrange(4, min(n, 16) + 1)
        need = (target - 2) * n // 2 + 1
        maxm = n * (n - 1) // 2
        if need > maxm:
            target = 4
            need = n + 1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = Graph(n)
        for u, v in pairs[:need]:
            g.add_edge(u, v)
        assert 2 * g.num_edges() > (target - 2) * n
        res = find_long_path(g, target)
        if res.path is None or len(res.path) < target:
            failures += 1
            continue
        if len(set(res.path)) != len(res.path) or any(
            not g.has_edge(a, b) for a, b in zip(res.path, res.path[1:])
        ):
            failures += 1
    _report("criterion-09 long-path density guarantee (100 seeds)", failures == 0)


def test_criterion_10_graph6_cross_validation():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4242)
    ok = True
    for _ in range(1000):
        n = rng.randrange(0, 33)
        g = random_graph(n, rng.random(), rng)
        text = encode_graph6(g)
        ok &= decode_graph6(text) == g
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
        ok &= text == theirs
        ok &= decode_graph6(theirs) == g
    _report("criterion-10 graph6 round-trip and reference agreement (1000 graphs)", ok)
