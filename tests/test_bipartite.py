import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddbook import build_min_member, plan_layout, saturate
from oddbook.bipartite import (
    Biclique,
    LongPathResult,
    _odd_cycle_transversal,
    build_uvt_partition,
    find_long_path,
    find_parity_path,
    greedy_biclique,
    greedy_odd_cycle_transversal,
    max_cut_bipartition,
    max_induced_complete_bipartite,
    truncate_into_disjoint_paths,
    validate_biclique,
)
from oddbook.graph import (
    Graph,
    bits,
    decode_graph6,
    is_independent,
    mask_of,
    random_graph,
    two_coloring,
)
from oddbook.stability import deletion_pipeline
from .oracles import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_odd_cycle_ref,
    find_parity_path_ref,
    greedy_biclique_ref,
    longest_path_brute,
    max_biclique_brute,
    max_induced_complete_bipartite_ref,
    path_graph,
    two_coloring_ref,
)


def _check_path(g, path, length=None):
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert g.has_edge(a, b)
    if length is not None:
        assert len(path) == length + 1


# ---------------------------------------------------------------------------
# maximum induced complete bipartite subgraph


def test_biclique_k33():
    search = max_induced_complete_bipartite(complete_bipartite(3, 3))
    assert search.optimal
    assert search.best.size == 6


def test_biclique_c5():
    search = max_induced_complete_bipartite(cycle_graph(5))
    assert search.optimal
    assert search.best.size == 3  # an induced path on 3 vertices


def test_biclique_matches_brute_force(rng):
    for _ in range(25):
        n = rng.randrange(1, 15)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        search = max_induced_complete_bipartite(g)
        assert search.optimal
        assert validate_biclique(g, search.best)
        assert search.best.size == max_biclique_brute(g)


def test_biclique_search_beats_its_greedy_seed():
    # the branch and bound improves on the seed and maps the better
    # biclique back from its canonical labels
    g = decode_graph6(r"K~n}\^]r~\x]")
    assert greedy_biclique(g).size == 4
    search = max_induced_complete_bipartite(g)
    assert search.optimal
    assert validate_biclique(g, search.best)
    assert search.best.size == 5 == max_biclique_brute(g)


def test_biclique_budget_abort():
    g = random_graph(14, 0.5, random.Random(5))
    search = max_induced_complete_bipartite(g, budget=1)
    assert not search.optimal
    assert validate_biclique(g, search.best)
    full = max_induced_complete_bipartite(g)
    assert search.best.size <= full.best.size <= search.upper_bound


def test_greedy_seed_is_valid(rng):
    for _ in range(15):
        g = random_graph(12, rng.random(), rng)
        b = greedy_biclique(g)
        assert validate_biclique(g, b)


def _twin_rich_graph(rng):
    """Complete bipartite graph on blown-up classes plus a few flipped
    pairs: many false-twin classes of unequal weight."""
    sizes = [rng.randrange(1, 12) for _ in range(rng.randrange(2, 5))]
    n = sum(sizes) + rng.randrange(0, 3)
    side = []
    for i, size in enumerate(sizes):
        side += [i % 2] * size
    side += [rng.randrange(2) for _ in range(n - len(side))]
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if side[u] != side[v]:
                g.add_edge(u, v)
    for _ in range(rng.randrange(0, 4)):
        u, v = rng.sample(range(n), 2)
        if g.has_edge(u, v):
            g.delete_edge(u, v)
        else:
            g.add_edge(u, v)
    return g


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_biclique_search_matches_reference(seed, twin_rich):
    """Same biclique, node count, bound and optimality as the reference
    search for every budget, on G(n, p) and on graphs with many twin
    classes of unequal weight.  The greedy seed is also compared on sparse
    G(n, p) with up to 40 vertices, where starts often reach a candidate
    pair already visited."""
    rng = random.Random(seed)
    if twin_rich:
        g = _twin_rich_graph(rng)
    else:
        g = random_graph(rng.randrange(0, 22), rng.random(), rng)
    assert greedy_biclique(g) == greedy_biclique_ref(g)
    for budget in (1, 5, 50, None):
        kwargs = {} if budget is None else {"budget": budget}
        ours = max_induced_complete_bipartite(g, **kwargs)
        ref = max_induced_complete_bipartite_ref(g, **kwargs)
        assert ours.to_json() == ref.to_json()
    sparse = random_graph(rng.randrange(0, 41), rng.uniform(0.05, 0.6), rng)
    assert greedy_biclique(sparse) == greedy_biclique_ref(sparse)


def test_greedy_seed_tells_visited_pairs_apart_by_side():
    # two starts reach the same candidate union split differently; a stop
    # keyed on the union alone would cut the later start and lose the seed
    g = Graph.from_edges(9, [(0, 1), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 6),
                             (1, 7), (2, 3), (2, 5), (2, 7), (2, 8), (3, 7), (4, 7), (4, 8),
                             (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)])
    assert greedy_biclique(g) == greedy_biclique_ref(g)


def test_greedy_seed_breaks_score_ties_to_the_smallest_vertex():
    # at the start from 5, vertex 2 on the left and the class {3, 4} on the
    # right both keep 3 candidates; the smaller vertex wins, not the
    # heavier class
    g = Graph.from_edges(6, [(1, 5), (2, 3), (2, 4), (3, 5), (4, 5)])
    seed = Biclique(left=mask_of([2, 5]), right=mask_of([3, 4]))
    assert greedy_biclique(g) == greedy_biclique_ref(g) == seed


def test_greedy_seed_matches_reference_on_saturated_member():
    # a blow-up with 22 twin classes: whole-class picks and branching give
    # the one-vertex greedy's seed and the weighted quotient's search
    member = build_min_member(plan_layout(128, 2, 2, Fraction(1, 2))).graph
    sat, _ = saturate(member, 2, 2)
    assert greedy_biclique(sat) == greedy_biclique_ref(sat)
    for budget in (1, 20, None):
        kwargs = {} if budget is None else {"budget": budget}
        ours = max_induced_complete_bipartite(sat, **kwargs)
        assert ours.to_json() == max_induced_complete_bipartite_ref(sat, **kwargs).to_json()


def test_biclique_search_pinned_on_saturated_member(saturated_64):
    sat, _ = saturated_64
    search = max_induced_complete_bipartite(sat)
    assert search.optimal
    assert search.nodes == 103
    assert search.upper_bound == 37
    assert sorted(bits(search.best.left)) == [*range(16), 34, *range(44, 54)]
    assert sorted(bits(search.best.right)) == list(range(54, 64))


def test_validator_checks_all_conditions():
    g = complete_bipartite(3, 3)
    # {0,1} vs {3}: independent sides, complete across
    assert validate_biclique(g, Biclique(left=0b11, right=0b1000))
    # overlapping sides
    assert not validate_biclique(g, Biclique(left=0b1, right=0b1))
    # left side {0, 3} carries an edge
    assert not validate_biclique(g, Biclique(left=0b1001, right=0b10000))
    # cross pair (0, 1) is missing
    assert not validate_biclique(g, Biclique(left=0b1, right=0b10))


def test_biclique_empty_graph():
    search = max_induced_complete_bipartite(Graph(0))
    assert search.optimal and search.best.size == 0


def test_edgeless_graph_is_one_sided():
    search = max_induced_complete_bipartite(Graph(5))
    assert search.optimal
    assert search.best.size == 5


def test_biclique_search_size_guard():
    # the budget bounds only the branch and bound, not the greedy seed
    with pytest.raises(ValueError, match=r"^exhaustive search refused for n=513 > 512$"):
        max_induced_complete_bipartite(Graph(513))
    assert max_induced_complete_bipartite(Graph(512)).best.size == 512


# ---------------------------------------------------------------------------
# partition machinery


def test_partition_complete_bipartite_trivial():
    g = complete_bipartite(8, 8)
    part, trace = build_uvt_partition(g, h=8)
    assert trace.method == "two-coloring"
    assert part.exceptional == 0
    assert part.left.bit_count() == 8 and part.right.bit_count() == 8
    assert is_independent(g, part.left) and is_independent(g, part.right)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.booleans(), max_size=20),
    st.floats(0.0, 1.0),
    st.integers(0, 10 ** 9),
    st.integers(1, 8),
)
def test_partition_of_bipartite_host_is_its_two_coloring(sides, p, seed, h):
    # hosts with cross edges only, so any vertex may be isolated
    rng = random.Random(seed)
    g = Graph(len(sides))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if sides[u] != sides[v] and rng.random() < p:
                g.add_edge(u, v)
    part, trace = build_uvt_partition(g, h)
    assert (part.left, part.right) == two_coloring_ref(g)
    assert part.exceptional == 0
    assert trace.method == "two-coloring" and trace.moves == []


def test_partition_pendant_attachment_migrates():
    # complete bipartite sides of 12 plus a low-degree vertex w joined to
    # 3 left and 1 right vertex: w closes triangles, so the transversal
    # seeds the exceptional set with w alone, and the clean-up pulls each
    # of its attachment sets out of its side, after which w has no side
    # neighbors left
    m, h = 12, 8
    g = complete_bipartite(m, m)
    w = m * 2
    g2 = Graph(2 * m + 1)
    for u, v in g.edges():
        g2.add_edge(u, v)
    for a in (0, 1, 2, m):
        g2.add_edge(w, a)
    part, trace = build_uvt_partition(g2, h)
    assert trace.method == "transversal"
    assert part.exceptional == mask_of([0, 1, 2, m, w])
    assert part.left == mask_of(range(3, m))
    assert part.right == mask_of(range(m + 1, 2 * m))
    assert (g2.adj[w] & (part.left | part.right)) == 0
    assert trace.moves == [("left", w, mask_of([0, 1, 2])), ("right", w, 1 << m)]


def test_partition_degree_dichotomy(rng):
    for _ in range(12):
        n = rng.randrange(6, 30)
        g = random_graph(n, rng.uniform(0.1, 0.7), rng)
        h = rng.randrange(2, 6)
        part, trace = build_uvt_partition(g, h, seed=3)
        assert (part.left | part.right | part.exceptional) == g.vertex_mask
        assert part.left & part.right == 0
        assert len(trace.moves) <= n  # every move strictly shrinks the sides
        for x in bits(part.exceptional):
            for side in (part.left, part.right):
                d = (g.adj[x] & side).bit_count()
                assert d == 0 or d >= h + 1, (x, d, h)


def test_partition_saturated_construction(saturated_64):
    sat, _ = saturated_64
    part, trace = build_uvt_partition(sat, h=8, seed=0)
    assert trace.method == "transversal"
    # connector vertices plus both attachment-starved block families migrate
    assert part.exceptional.bit_count() == 44
    assert part.left.bit_count() == 10
    assert part.right.bit_count() == 10
    assert is_independent(sat, part.left) and is_independent(sat, part.right)


def test_partition_at_128_matches_fifo_references(monkeypatch):
    # the transversal and the 2-coloring of the saturated n = 128 member,
    # and so the partition and its deletion trace, are those of the BFS
    # loops that tested one neighbor bit at a time
    from oddbook import bipartite

    member = build_min_member(plan_layout(128, 2, 2, Fraction(1, 2))).graph
    sat, _ = saturate(member, 2, 2)
    part, trace = build_uvt_partition(sat, 8)
    core, pipeline = deletion_pipeline(sat, part, 2, 2)
    monkeypatch.setattr(bipartite, "find_odd_cycle", find_odd_cycle_ref)
    monkeypatch.setattr(bipartite, "two_coloring", two_coloring_ref)
    ref_part, ref_trace = build_uvt_partition(sat, 8)
    assert ref_trace.method == "transversal"
    assert (part, trace.moves) == (ref_part, ref_trace.moves)
    ref_core, ref_pipeline = deletion_pipeline(sat, ref_part, 2, 2)
    assert (core, pipeline.to_json()) == (ref_core, ref_pipeline.to_json())


def test_transversal_on_odd_structures():
    g = cycle_graph(5)
    t = greedy_odd_cycle_transversal(g)
    assert t.bit_count() == 1
    remainder = g.vertex_mask & ~t
    assert two_coloring(g, within=remainder) is not None


@pytest.mark.parametrize("seed", range(6))
def test_capped_transversal_is_the_full_one_or_its_first_cap_plus_one(seed):
    """Capped, the greedy stops once the transversal passes the cap, so
    build_uvt_partition sees the same side of 3|T| <= n either way."""
    rng = random.Random(seed)
    g = random_graph(rng.randrange(12, 30), rng.uniform(0.1, 0.4), rng)
    full = greedy_odd_cycle_transversal(g)
    for cap in range(full.bit_count() + 2):
        capped = _odd_cycle_transversal(g, cap)
        if full.bit_count() <= cap:
            assert capped == full
        else:
            assert capped.bit_count() == cap + 1 and capped & ~full == 0


def test_max_cut_is_deterministic():
    g = random_graph(12, 0.5, random.Random(9))
    assert max_cut_bipartition(g, seed=4) == max_cut_bipartition(g, seed=4)


# ---------------------------------------------------------------------------
# parity-constrained paths


def _k55_sides():
    g = complete_bipartite(5, 5)
    return g, (mask_of(range(5)), mask_of(range(5, 10)))


def test_parity_path_cross_side():
    g, sides = _k55_sides()
    path = find_parity_path(g, 0, 5, 3, sides)
    _check_path(g, path, length=3)


def test_parity_path_same_side():
    g, sides = _k55_sides()
    path = find_parity_path(g, 0, 1, 2, sides)
    _check_path(g, path, length=2)


def test_parity_mismatch_rejected():
    g, sides = _k55_sides()
    with pytest.raises(ValueError):
        find_parity_path(g, 0, 5, 4, sides)
    with pytest.raises(ValueError):
        find_parity_path(g, 0, 1, 3, sides)
    # endpoints out of range are refused by name
    for u, v in ((0, 10), (-1, 5)):
        with pytest.raises(ValueError, match=rf"endpoints \({u}, {v}\)"):
            find_parity_path(g, u, v, 3, sides)


def test_parity_path_avoids_interior_set():
    g, sides = _k55_sides()
    avoid = mask_of([6, 7, 8])
    path = find_parity_path(g, 0, 1, 2, sides, avoid=avoid)
    _check_path(g, path, length=2)
    assert not (mask_of(path[1:-1]) & avoid)


def test_parity_path_endpoints_may_be_in_avoid():
    g, sides = _k55_sides()
    avoid = mask_of([0, 5, 6])
    path = find_parity_path(g, 0, 5, 3, sides, avoid=avoid)
    _check_path(g, path, length=3)
    assert not (mask_of(path[1:-1]) & avoid)


def test_parity_path_absence():
    g = Graph(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    sides = (mask_of([0, 2]), mask_of([1, 3]))
    assert find_parity_path(g, 0, 3, 3, sides) is None


def test_parity_path_rejects_non_bipartite_sides():
    g = cycle_graph(4)
    g.add_edge(0, 2)
    with pytest.raises(ValueError):
        find_parity_path(g, 0, 1, 3, (mask_of([0, 2]), mask_of([1, 3])))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_parity_path_matches_reference(seed):
    """The same first path as the DFS the search replaced, for every valid
    endpoint pair and length on a random bipartite host with an avoid set."""
    rng = random.Random(seed)
    n = rng.randrange(4, 25)
    side0 = rng.getrandbits(n)
    sides = (side0, ((1 << n) - 1) & ~side0)
    p = rng.choice([0.15, 0.3, 0.5])
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if (side0 >> u ^ side0 >> v) & 1 and rng.random() < p:
                g.add_edge(u, v)
    for _ in range(8):
        u, v = rng.sample(range(n), 2)
        cross = (side0 >> u ^ side0 >> v) & 1
        length = rng.choice([x for x in range(2, 10) if x % 2 == cross])
        avoid = rng.getrandbits(n) & rng.getrandbits(n)
        assert find_parity_path(g, u, v, length, sides, avoid=avoid) == (
            find_parity_path_ref(g, u, v, length, sides, avoid=avoid)
        )


# ---------------------------------------------------------------------------
# long paths


def test_long_path_path_graph():
    res = find_long_path(path_graph(10), 10)
    assert res.path is not None
    _check_path(path_graph(10), res.path)
    assert len(res.path) >= 10


def test_long_path_star_absent():
    g = Graph(10)
    for v in range(1, 10):
        g.add_edge(0, v)
    res = find_long_path(g, 4)
    assert res.path is None
    assert not res.density_guarantee


def test_long_path_density_regime(rng, monkeypatch):
    # e > (L-2) n / 2 guarantees an L-vertex path; verify against the
    # exhaustive oracle on small instances
    for _ in range(20):
        n = rng.randrange(6, 13)
        target = rng.randrange(4, n + 1)
        need = (target - 2) * n // 2 + 1
        if need > n * (n - 1) // 2:
            continue
        g = Graph(n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        for u, v in pairs[:need]:
            g.add_edge(u, v)
        assert 2 * g.num_edges() > (target - 2) * n
        res = find_long_path(g, target)
        assert res.density_guarantee
        assert res.path is not None and len(res.path) >= target
        _check_path(g, res.path)
        assert longest_path_brute(g, cap=target) >= target
    # the guarantee holds at any order: n = 600 with e > (L-2) n / 2, and
    # the polynomial fallback builds the path when the DFS finds none
    from oddbook import bipartite

    n, target = 600, 10
    g = Graph(n)
    for u in range(n):
        for d in range(1, target // 2 + 1):
            g.add_edge(u, (u + d) % n)
    assert 2 * g.num_edges() > (target - 2) * n
    res = find_long_path(g, target)
    assert res.density_guarantee
    assert res.path is not None and len(res.path) >= target
    _check_path(g, res.path)
    monkeypatch.setattr(bipartite, "_dfs_long_path", lambda g, target: None)
    res = find_long_path(g, target)
    assert res.density_guarantee
    assert res.path is not None and len(res.path) >= target
    _check_path(g, res.path)


def test_long_path_fallback_rotates(monkeypatch):
    # a triangle and a 4-cycle sharing vertex 0: extension alone stalls at
    # [3, 0, 2], and one rotation through the triangle reaches 6 vertices
    from oddbook import bipartite

    g = decode_graph6("ETr?")
    assert sorted(g.edges()) == [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3)]
    monkeypatch.setattr(bipartite, "_dfs_long_path", lambda g, target: None)
    res = find_long_path(g, 4)
    assert res.density_guarantee
    assert res.path == [3, 2, 0, 4, 1, 5]
    _check_path(g, res.path)


def test_long_path_needs_a_vertex():
    # a path has at least one vertex, so the empty graph has none
    assert find_long_path(Graph(0), 1).path is None
    assert find_long_path(Graph(1), 1).path == [0]


def test_long_path_short_targets_carry_the_density_guarantee():
    # 2e > (L - 2) n holds on every nonempty graph once L <= 1, edgeless or not
    for n, L in [(1, 1), (3, 1), (3, 0)]:
        assert find_long_path(Graph(n), L) == LongPathResult([0], density_guarantee=True)
    assert find_long_path(path_graph(4), 1) == LongPathResult([0], density_guarantee=True)
    assert find_long_path(Graph(0), 1) == LongPathResult(None, density_guarantee=False)


def test_long_path_complete_graph():
    res = find_long_path(complete_graph(8), 8)
    assert res.path is not None and len(res.path) == 8


def test_long_path_broken_guarantee_raises(monkeypatch):
    # the fallback must not rely on `assert`, which `python -O` strips
    from oddbook import bipartite

    monkeypatch.setattr(bipartite, "_dfs_long_path", lambda g, target: None)
    monkeypatch.setattr(bipartite, "_density_long_path", lambda g, target: None)
    with pytest.raises(RuntimeError, match="density guarantee"):
        find_long_path(complete_graph(8), 8)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_alternating_path():
    # vertices 0..8 alternating side membership, side = even positions
    path = list(range(9))
    side = mask_of(range(0, 9, 2))
    segments = truncate_into_disjoint_paths(path, 2, 2, side)
    assert segments == [[0, 1, 2], [4, 5, 6]]


def test_truncate_claim_arithmetic():
    # s segments of length 2k-2 from a path on 2ks+1 vertices
    for s, k in ((2, 2), (3, 2), (2, 3)):
        n = 2 * k * s + 1
        path = list(range(n))
        side = mask_of(range(0, n, 2))
        segments = truncate_into_disjoint_paths(path, s, 2 * k - 2, side)
        assert len(segments) == s
        used = [v for seg in segments for v in seg]
        assert len(set(used)) == len(used)
        for seg in segments:
            assert len(seg) == 2 * k - 1
            assert side >> seg[0] & 1 and side >> seg[-1] & 1


def test_truncate_too_short():
    # two length-2 segments with a separator need 7 vertices; 6 must fail
    path = list(range(6))
    side = mask_of(range(0, 6, 2))
    with pytest.raises(ValueError):
        truncate_into_disjoint_paths(path, 2, 2, side)


def test_truncate_refuses_negative_length():
    with pytest.raises(ValueError, match="each_length"):
        truncate_into_disjoint_paths([0, 1, 2, 3], 1, -1, 0b1111)
    with pytest.raises(ValueError, match="^count must be nonnegative, got -1$"):
        truncate_into_disjoint_paths([0, 1, 2, 3], -1, 1, 0b1111)
