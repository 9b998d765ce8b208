import hashlib
import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddbook.construction import build_min_member, plan_layout
from oddbook import freeness
from oddbook.freeness import (
    NotBookFreeError,
    _find_pages,
    _iter_paths,
    _layers_admit,
    _neighbor_orders,
    find_book_at_edge,
    find_book_using_edge,
    is_book_free,
    is_maximal_book_free,
    saturate,
    validate_witness,
)
from oddbook.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_graph,
)
from oddbook.pattern import book_order
from .oracles import (
    contains_book_naive,
    disjoint_page_pair_exists,
    find_book_using_edge_ref,
    find_pages_ref,
    iter_paths_ref,
    layers_admit_ref,
    neighbor_orders_ref,
)


def test_k5_contains_triangle_book():
    g = complete_graph(5)
    w = find_book_at_edge(g, 0, 1, 2, 1)
    assert w is not None
    assert validate_witness(g, w)
    assert w.hub_edge == (0, 1)


def test_c5_too_small_for_two_pages():
    g = cycle_graph(5)
    assert find_book_at_edge(g, 0, 1, 2, 2) is None


def test_k44_with_probe_edge():
    g = complete_bipartite(4, 4)
    w = find_book_at_edge(g, 0, 1, 2, 2)  # probing an intra-side pair
    assert w is not None
    assert validate_witness(g, w)
    assert disjoint_page_pair_exists(g, 0, 1, 2)
    # the hub edge is missing from g; it passes as the probe, in either order
    assert validate_witness(g, replace(w, probe=(1, 0)))
    assert not validate_witness(g, replace(w, probe=None))
    assert not validate_witness(g, replace(w, probe=(0, w.mapping[2])))
    m = w.mapping
    assert m[2] >= 4 and m[3] < 4  # a page alternates sides
    for bad in (
        (*m[:3], m[2], *m[4:]),  # a repeated vertex
        (*m[:-1], g.n),  # out of range
        (*m[:-1], -1),
        (m[0], m[1], m[3], m[2], *m[4:]),  # edge m[0]-m[3] missing
    ):
        assert not validate_witness(g, replace(w, mapping=bad))


def test_probe_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        find_book_at_edge(complete_graph(4), 2, 2, 2, 2)


def test_bipartite_graphs_are_free(rng):
    for _ in range(10):
        a = rng.randrange(1, 7)
        b = rng.randrange(1, 7)
        g = complete_bipartite(a, b)
        free, witness = is_book_free(g, 2, 2)
        assert free and witness is None


def test_found_witness_validates(rng):
    hits = 0
    for _ in range(40):
        g = random_graph(9, 0.55, rng)
        free, witness = is_book_free(g, 2, 2)
        if not free:
            hits += 1
            assert validate_witness(g, witness)
    assert hits > 0


def test_agreement_with_naive_enumerator(rng):
    for _ in range(60):
        n = rng.randrange(8, 11)
        g = random_graph(n, rng.uniform(0.3, 0.7), rng)
        free, _ = is_book_free(g, 2, 2)
        assert free == (not contains_book_naive(g, 2, 2))


def test_agreement_other_parameters(rng):
    for _ in range(20):
        n = rng.randrange(6, 13)
        g = random_graph(n, rng.uniform(0.3, 0.8), rng)
        for s, k in ((3, 1), (2, 3)):
            free, _ = is_book_free(g, s, k)
            assert free == (not contains_book_naive(g, s, k)), (s, k)


def test_min_members_small_are_free():
    # the minimum construction member avoids its own pattern at every
    # feasible desk-scale size (all bases here are degenerate base=1)
    from fractions import Fraction

    from oddbook.construction import LayoutInfeasibleError, build_min_member, plan_layout

    checked = 0
    for s, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for n in range(4, 41):
            try:
                layout = plan_layout(n, s, k, Fraction(1, 2))
            except LayoutInfeasibleError:
                continue
            g = build_min_member(layout).graph
            free, _ = is_book_free(g, s, k)
            assert free, (s, k, n)
            checked += 1
    assert checked > 90


def test_probe_agreement_with_naive(rng):
    # adding the probe pair and asking the naive enumerator must agree with
    # the anchored probe search
    for _ in range(30):
        n = rng.randrange(8, 11)
        g = random_graph(n, rng.uniform(0.25, 0.5), rng)
        free, _ = is_book_free(g, 2, 2)
        if not free:
            continue
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
        ]
        for x, y in non_edges[:8]:
            probed = g.copy()
            probed.add_edge(x, y)
            creates = contains_book_naive(probed, 2, 2)
            witness = find_book_using_edge(g, x, y, 2, 2)
            assert (witness is not None) == creates
            if witness is not None:
                assert validate_witness(g, witness)
                assert witness.probe == (x, y)


def test_monotone_under_supergraphs(rng):
    for _ in range(10):
        g = random_graph(10, 0.6, rng)
        free, _ = is_book_free(g, 2, 2)
        if free:
            continue
        for _ in range(5):
            u = rng.randrange(10)
            v = rng.randrange(10)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
        still_free, _ = is_book_free(g, 2, 2)
        assert not still_free


def test_complete_bipartite_h_is_maximal():
    h = book_order(2, 2)
    g = complete_bipartite(h, h)
    maximal, failing = is_maximal_book_free(g, 2, 2)
    assert maximal
    assert failing == []


def test_edgeless_small_graph_vacuous():
    h = book_order(2, 2)
    g = Graph(h - 1)
    free, _ = is_book_free(g, 2, 2)
    assert free
    maximal, failing = is_maximal_book_free(g, 2, 2)
    assert not maximal
    assert len(failing) == (h - 1) * (h - 2) // 2


def test_maximality_rejects_non_free_input():
    g = complete_graph(8)  # contains the (2,2) book
    with pytest.raises(NotBookFreeError) as exc:
        is_maximal_book_free(g, 2, 2)
    assert validate_witness(g, exc.value.witness)


def test_min_member_is_not_maximal(min_member_64):
    maximal, failing = is_maximal_book_free(min_member_64.graph, 2, 2)
    assert not maximal
    assert failing
    # every failing pair genuinely creates no copy: spot-check one end to end
    x, y = failing[0]
    probed = min_member_64.graph.copy()
    probed.add_edge(x, y)
    free, _ = is_book_free(probed, 2, 2)
    assert free


def test_saturate_fixed_point_on_maximal():
    h = book_order(2, 2)
    g = complete_bipartite(h, h)
    out, added = saturate(g, 2, 2)
    assert added == []
    assert out == g


def test_saturate_rejects_non_free():
    with pytest.raises(NotBookFreeError):
        saturate(complete_graph(9), 2, 2)


def test_saturate_edgeless_becomes_maximal(rng):
    g = Graph(10)
    out, added = saturate(g, 2, 2)
    free, _ = is_book_free(out, 2, 2)
    assert free
    maximal, failing = is_maximal_book_free(out, 2, 2)
    assert maximal, failing


def test_saturate_random_postcondition(rng):
    for _ in range(6):
        n = rng.randrange(10, 16)
        g = random_graph(n, 0.15, rng)
        free, witness = is_book_free(g, 2, 2)
        while not free:
            g.delete_edge(*witness.hub_edge)
            free, witness = is_book_free(g, 2, 2)
        out, added = saturate(g, 2, 2)
        assert out.num_edges() == g.num_edges() + len(added)
        free, _ = is_book_free(out, 2, 2)
        assert free
        maximal, _ = is_maximal_book_free(out, 2, 2)
        assert maximal


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(["dense", "wide", "sparse", "fringe"]))
def test_probe_witness_matches_unpruned_search(seed, host):
    """Every pair's first witness, anchor included, is the one the three
    anchored searches find on the unpruned kernel.  The wide hosts hold
    12-14 vertices, enough for the 12-vertex (2, 3) book, so a probe at
    every page offset r = 0..4 meets a second page to complete.  On the
    sparse hosts a failed first page often leaves every other page through
    one of its vertices, where the common-vertex cut refutes.  The fringe
    hosts hang leaves and degree-s vertices off a dense core: none can be a
    hub, so the degree filter removes near and far hubs on both sides of a
    probe."""
    rng = random.Random(seed)
    if host == "wide":
        s, k = 2, 3
        n = rng.randrange(12, 15)
        g = random_graph(n, rng.uniform(0.1, 0.45), rng)
    elif host == "sparse":
        s, k = rng.choice([(2, 2), (2, 3), (3, 2)])
        n = rng.randrange(2 * k + 2, 13)
        g = random_graph(n, rng.uniform(0.2, 0.5), rng)
    elif host == "fringe":
        s, k = rng.choice([(2, 2), (3, 2), (2, 3)])
        core = rng.randrange(6, 10)
        n = core + rng.randrange(2, 5)
        g = Graph(n)
        for u in range(core):
            for v in range(u + 1, core):
                if rng.random() < 0.7:
                    g.add_edge(u, v)
        for v in range(core, n):
            for u in rng.sample(range(core), rng.choice([1, s])):
                g.add_edge(u, v)
    else:
        s, k = rng.choice([(2, 2), (3, 2), (2, 1), (1, 2), (1, 3), (3, 1)])
        n = rng.randrange(5, 12)
        g = random_graph(n, rng.uniform(0.2, 0.7), rng)
    orders = _neighbor_orders(g)
    for x in range(n):
        for y in range(x + 1, n):
            w = find_book_using_edge(g, x, y, s, k, _orders=orders)
            got = None if w is None else (w.mapping, w.anchor)
            assert got == find_book_using_edge_ref(g, x, y, s, k)


def test_hosts_smaller_than_the_pattern(monkeypatch):
    """The (2, 3) book has 12 vertices, so on 10-vertex hosts every pair is
    added and every non-edge fails maximality, as the naive enumerator
    says; the search that anchors the pair on a page never runs."""

    def never(*args):
        raise AssertionError("page-anchored search on a host too small for a copy")

    monkeypatch.setattr(freeness, "_find_page_anchored", never)
    rng = random.Random(23)
    for _ in range(4):
        g = random_graph(10, rng.uniform(0.2, 0.8), rng)
        non_edges = [
            (u, v) for u in range(10) for v in range(u + 1, 10) if not g.has_edge(u, v)
        ]
        expected = []
        for u, v in non_edges:
            h = g.copy()
            h.add_edge(u, v)
            if not contains_book_naive(h, 2, 3):
                expected.append((u, v))
        assert expected == non_edges
        start = time.perf_counter()
        out, added = saturate(g, 2, 3)
        assert added == expected
        assert out == complete_graph(10)
        assert is_maximal_book_free(g, 2, 3) == (not expected, expected)
        assert time.perf_counter() - start < 1.0


def test_size_guard():
    g = Graph(600)
    with pytest.raises(ValueError):
        is_book_free(g, 2, 2)
    free, _ = is_book_free(g, 2, 2, size_limit=None)
    assert free


def test_parallel_probes_agree(min_member_64):
    serial = is_maximal_book_free(min_member_64.graph, 2, 2)
    parallel = is_maximal_book_free(min_member_64.graph, 2, 2, workers=2)
    assert serial == parallel


# ---------------------------------------------------------------------------
# pruned path kernel against the unpruned reference kernel


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.booleans())
def test_kernel_matches_unpruned_kernel(seed, sparse):
    # pruning may only cut branches that yield nothing: same paths in the
    # same order, same first pages, for every length an anchor search uses;
    # on sparse hosts the pages often all pass one vertex of a failed first page
    rng = random.Random(seed)
    if sparse:
        n = rng.randrange(6, 13)
        g = random_graph(n, rng.uniform(0.2, 0.5), rng)
    else:
        n = rng.randrange(4, 10)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
    orders = _neighbor_orders(g)
    ref = neighbor_orders_ref(g)
    assert [tuple(orders[v]) for v in range(n)] == ref
    for _ in range(3):
        h1, h2 = rng.sample(range(n), 2)
        banned = rng.getrandbits(n) & ~(1 << h1 | 1 << h2) if rng.random() < 0.5 else 0
        for length in range(1, 7):
            assert list(_iter_paths(orders, h1, h2, length, banned)) == list(
                iter_paths_ref(g.adj, ref, h1, h2, length, banned)
            )
        for s in (1, 2, 3):
            for k in (1, 2, 3):
                pages = find_pages_ref(g.adj, ref, h1, h2, s, 2 * k, banned)
                assert _find_pages(orders, h1, h2, s, 2 * k, banned) == pages
                if pages is not None:
                    assert _layers_admit(orders, h1, h2, s, 2 * k, banned)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_layer_bound_admits_every_copy(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 11)
    g = random_graph(n, rng.uniform(0.4, 0.9), rng)
    s, k = rng.choice(((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3)))
    ref = neighbor_orders_ref(g)
    hubs = [
        (u, v) for u, v in g.edges()
        if find_pages_ref(g.adj, ref, u, v, s, 2 * k, 0) is not None
    ]
    assert bool(hubs) == contains_book_naive(g, s, k)
    for u, v in hubs:
        assert _layers_admit(_neighbor_orders(g), u, v, s, 2 * k, 0)
        assert _layers_admit(_neighbor_orders(g), v, u, s, 2 * k, 0)


def test_layer_bound_rejects_single_vertex_cut():
    # two 4-edge routes from 0 to 1 that share their middle vertex 4
    g = Graph.from_edges(7, [(0, 2), (2, 4), (4, 5), (5, 1), (0, 3), (3, 4), (4, 6), (6, 1)])
    assert _layers_admit(_neighbor_orders(g), 0, 1, 1, 4, 0)
    assert not _layers_admit(_neighbor_orders(g), 0, 1, 2, 4, 0)


def test_layer_bound_rejects_too_few_vertices():
    # every layer of K6 holds the four non-hubs, but two pages of length 4
    # need six interior vertices
    g = complete_graph(6)
    assert _layers_admit(_neighbor_orders(g), 0, 1, 1, 4, 0)
    assert not _layers_admit(_neighbor_orders(g), 0, 1, 2, 4, 0)


def _thin_ended_host(rng):
    """G(n, p) with pendant paths hung on it and edges subdivided, so that
    many hubs have neighbors of degree 1 or 2."""
    n = rng.randrange(4, 9)
    edges = set(random_graph(n, rng.uniform(0.3, 0.9), rng).edges())
    for _ in range(rng.randrange(1, 4)):
        if edges and rng.random() < 0.5:
            u, v = rng.choice(sorted(edges))
            edges -= {(u, v)}
            edges |= {(u, n), (v, n)}
            n += 1
        else:
            last = rng.randrange(n)
            for _ in range(rng.randrange(1, 4)):
                edges.add((last, n))
                last, n = n, n + 1
    return Graph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_end_bounds_keep_first_pages(seed):
    """The end-layer bound and the early layer bound on a thin end only
    refute searches that fail: on hosts with pendant paths and subdivided
    edges the first pages equal the unpruned search's."""
    rng = random.Random(seed)
    g = _thin_ended_host(rng)
    n = g.n
    orders = _neighbor_orders(g)
    ref = neighbor_orders_ref(g)
    for _ in range(4):
        h1, h2 = rng.sample(range(n), 2)
        banned = rng.getrandbits(n) & ~(1 << h1 | 1 << h2) if rng.random() < 0.5 else 0
        for s in (2, 3):
            for k in (1, 2, 3):
                assert _find_pages(orders, h1, h2, s, 2 * k, banned) == find_pages_ref(
                    g.adj, ref, h1, h2, s, 2 * k, banned
                )


def _kernel_must_not_run(*args):
    raise AssertionError("a costlier search ran where an end bound refutes")


def test_end_bound_refutes_before_the_kernel(monkeypatch):
    # hub 0 has three neighbors, but 6 and 7 are leaves: only 2 starts a
    # page of length 4 to hub 1, while hub 1's end {4, 5} is wide enough;
    # neither the layer bound nor the kernel may run
    g = Graph.from_edges(8, [(0, 2), (2, 3), (3, 4), (3, 5), (4, 1), (5, 1), (0, 6), (0, 7)])
    assert find_pages_ref(g.adj, neighbor_orders_ref(g), 0, 1, 2, 4, 0) is None
    monkeypatch.setattr(freeness, "_iter_paths", _kernel_must_not_run)
    monkeypatch.setattr(freeness, "_layers_admit", _kernel_must_not_run)
    assert _find_pages(_neighbor_orders(g), 0, 1, 2, 4, 0) is None
    assert _find_pages(_neighbor_orders(g), 1, 0, 2, 4, 0) is None


def test_thin_end_runs_the_layer_bound_first(monkeypatch):
    # both ends hold exactly two vertices, {2, 3} and {5, 6}, but every
    # route passes through 4, so the layer bound refutes the search
    g = Graph.from_edges(7, [(0, 2), (2, 4), (4, 5), (5, 1), (0, 3), (3, 4), (4, 6), (6, 1)])
    assert find_pages_ref(g.adj, neighbor_orders_ref(g), 0, 1, 2, 4, 0) is None
    monkeypatch.setattr(freeness, "_iter_paths", _kernel_must_not_run)
    assert _find_pages(_neighbor_orders(g), 0, 1, 2, 4, 0) is None


def test_common_vertex_cut_refutes_what_the_layer_bound_admits(monkeypatch):
    # three 4-edge routes from 0 to 1, each through 2, at positions 1, 2
    # and 3: every layer holds at least two vertices and their union seven,
    # so the layer bound admits two pages, but no page avoids 2
    g = Graph.from_edges(9, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 2),
                             (2, 1), (0, 7), (7, 2), (2, 8), (8, 1)])
    assert _layers_admit(_neighbor_orders(g), 0, 1, 2, 4, 0)
    assert find_pages_ref(g.adj, neighbor_orders_ref(g), 0, 1, 2, 4, 0) is None
    seconds = []
    find_pages = freeness._find_pages

    def counted(orders, h1, h2, count, length, banned):
        if count == 1:
            seconds.append(banned)
        return find_pages(orders, h1, h2, count, length, banned)

    monkeypatch.setattr(freeness, "_find_pages", counted)
    assert counted(_neighbor_orders(g), 0, 1, 2, 4, 0) is None
    assert len(seconds) == 1  # one first page, then the cut


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_layer_bound_matches_uncut_sweep(seed):
    """Cutting the forward sweep by the walk masks of h2 keeps the verdict
    of the uncut sweep, for every (s, k) page count and length."""
    rng = random.Random(seed)
    n = rng.randrange(3, 14)
    g = random_graph(n, rng.uniform(0.15, 0.9), rng)
    orders = _neighbor_orders(g)
    for _ in range(4):
        h1, h2 = rng.sample(range(n), 2)
        banned = rng.getrandbits(n) & ~(1 << h1 | 1 << h2) if rng.random() < 0.5 else 0
        for s in (1, 2, 3):
            for k in (1, 2, 3):
                assert _layers_admit(orders, h1, h2, s, 2 * k, banned) == layers_admit_ref(
                    g.adj, h1, h2, s, 2 * k, banned
                )


def test_incremental_orders_match_fresh(rng):
    for _ in range(20):
        n = rng.randrange(5, 16)
        g = random_graph(n, 0.3, rng)
        orders = _neighbor_orders(g)
        for w in range(n):
            orders[w]  # sort every row now, so that a stale one would show
        orders.walks(0, 3)
        orders.high(2)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        rng.shuffle(pairs)
        for u, v in pairs[:6]:
            g.add_edge(u, v)
            orders.edge_added(u, v)
            fresh = _neighbor_orders(g)
            assert [orders[w] for w in range(n)] == [fresh[w] for w in range(n)]
            assert orders.deg == fresh.deg
            assert orders.walks(0, 3) == fresh.walks(0, 3)
            assert orders.high(2) == fresh.high(2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_incremental_upkeep_matches_fresh_state(seed, sk):
    """Rows moved by bisect, and degree and walk masks grown in place, equal
    the state built from scratch after every added edge, for every memoised
    degree bound and goal."""
    s, k = sk
    rng = random.Random(seed)
    n = rng.randrange(2, 4 * s * k)
    g = random_graph(n, rng.uniform(0.05, 0.6), rng)
    orders = _neighbor_orders(g)
    for w in range(n):
        orders[w]
        orders.walks(w, 2 * k - 1)
    for t in range(4):
        orders.high(t)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    rng.shuffle(pairs)
    for u, v in pairs[: rng.randrange(len(pairs) + 1)]:
        g.add_edge(u, v)
        orders.edge_added(u, v)
        fresh = _neighbor_orders(g)
        assert dict(orders) == {w: fresh[w] for w in range(n)}
        assert orders.deg == fresh.deg
        assert orders._high == {t: fresh.high(t) for t in range(4)}
        assert len(orders._walks) == n
        for goal, masks in orders._walks.items():
            assert len(masks) == 2 * k
            assert masks == fresh.walks(goal, 2 * k - 1)


def _runs(u, lo, hi):
    return [(u, v) for v in range(lo, hi)]


SATURATE_ADDED = {
    64: [(32, 34), (32, 37), *_runs(32, 44, 54), (34, 35), *_runs(34, 54, 64),
         (35, 37), (38, 40), (38, 43), (40, 41), (41, 43)],
    128: [(40, 42), (40, 45), *_runs(40, 52, 90), (42, 43), *_runs(42, 90, 128),
          (43, 45), (46, 48), (46, 51), (48, 49), (49, 51)],
}


# sha256 of json.dumps(added) where the list is too long to spell out
SATURATE_ADDED_SHA256 = {
    256: "c27d0b374bb865a6d3f519f7ba24e0c71d70b17bdd695246499cd4f08092bcc9",
}


@pytest.mark.parametrize("n, count", [(64, 28), (128, 84), (256, 144)])
def test_saturate_added_edges_pinned(n, count):
    g = build_min_member(plan_layout(n, 2, 2, Fraction(1, 2))).graph
    out, added = saturate(g, 2, 2)
    assert len(added) == count
    if n in SATURATE_ADDED:
        assert added == SATURATE_ADDED[n]
    else:
        assert hashlib.sha256(json.dumps(added).encode()).hexdigest() == SATURATE_ADDED_SHA256[n]
    assert is_maximal_book_free(out, 2, 2) == (True, [])
