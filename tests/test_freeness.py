import concurrent.futures
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
    _twin_orders,
    find_book_at_edge,
    find_book_using_edge,
    is_book_free,
    is_maximal_book_free,
    saturate,
    validate_witness,
)
from oddbook.graph import Graph, mask_of, random_graph, twin_classes
from oddbook.pattern import book_order
from .conftest import BLOWN_UP_SK, blown_up
from .oracles import (
    complete_bipartite,
    complete_graph,
    contains_book_naive,
    cycle_graph,
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
        m[:-1],  # too short for the pattern
        m[:2],
    ):
        assert not validate_witness(g, replace(w, mapping=bad))


def test_probe_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        find_book_at_edge(complete_graph(4), 2, 2, 2, 2)
    # vertices out of range are refused by name, in either search
    k33 = complete_bipartite(3, 3)
    for probe in (find_book_at_edge, find_book_using_edge):
        for x, y in ((0, 9), (0, 6), (-1, 3)):
            with pytest.raises(ValueError, match=rf"probe pair \({x}, {y}\)"):
                probe(k33, x, y, 2, 2)


def _probe_pendant_pair(g, s, k):
    return find_book_using_edge(g, 0, 3, s, k)


@pytest.mark.parametrize("check, s, k", [
    (is_book_free, 1, 0),
    (is_maximal_book_free, -1, 2),
    (is_book_free, 2, -1),
    (is_book_free, 0, 1),
    (_probe_pendant_pair, 0, 2),
])
def test_checks_refuse_what_build_odd_book_refuses(check, s, k):
    """There is no odd book with s < 1 or k < 1 to search for: each entry
    point refuses the parameters as the pattern does, on a triangle with a
    pendant edge instead of answering free, a failing list, an IndexError
    or a two-vertex witness, and on the edgeless graph, where the edge scan
    makes no probe."""
    for g in (Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), Graph(4)):
        with pytest.raises(ValueError, match="odd book needs s >= 1 and k >= 1"):
            check(g, s, k)


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
    says; neither the page search of a hub-anchored probe nor the search
    that anchors the pair on a page runs."""

    def never(*args):
        raise AssertionError("search on a host too small for a copy")

    monkeypatch.setattr(freeness, "_find_pages", never)
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
    # every whole-graph decision passes through is_book_free's limit
    for check in (is_book_free, is_maximal_book_free, saturate):
        with pytest.raises(ValueError, match=r"^exhaustive search refused for n=513 > 512$"):
            check(Graph(513), 2, 2)
    assert is_book_free(Graph(512), 2, 2) == (True, None)


def test_parallel_probes_agree(min_member_64):
    serial = is_maximal_book_free(min_member_64.graph, 2, 2)
    parallel = is_maximal_book_free(min_member_64.graph, 2, 2, workers=2)
    assert serial == parallel


@pytest.mark.parametrize("workers, cpus", [(2, 1), (10 ** 6, 1), (2, None)])
def test_workers_bounded_by_cpu_count(monkeypatch, min_member_64, workers, cpus):
    # at most one process per CPU: on one CPU (or an unknown count) the
    # serial path probes every non-edge and no pool is started
    def no_pool(*args, **kwargs):
        raise AssertionError("process pool started")

    g = min_member_64.graph
    serial = is_maximal_book_free(g, 2, 2)
    calls = []
    probe = freeness._probe_chunk
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(freeness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(freeness, "_probe_chunk",
                        lambda args: calls.append(len(args[3])) or probe(args))
    assert is_maximal_book_free(g, 2, 2, workers=workers) == serial
    assert calls == [g.n * (g.n - 1) // 2 - g.num_edges()]


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_incremental_upkeep_matches_fresh_state(seed, sk):
    """Every row is sorted before each added edge.  After it, the rows still
    held, every row read again, and the degree and walk masks grown in place
    equal the state built from scratch, for every memoised degree bound and
    goal; the rows that hold neither end of the edge are still held."""
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
        orders.add_edge(u, v)
        fresh = _neighbor_orders(g)
        ends = g.adj[u] | g.adj[v]  # the rows that hold u or v
        assert all(w in orders for w in range(n) if not ends >> w & 1)
        assert dict(orders) == {w: fresh[w] for w in orders}
        assert [orders[w] for w in range(n)] == [fresh[w] for w in range(n)]
        assert orders.deg == fresh.deg
        assert orders._high == {t: fresh.high(t) for t in range(4)}
        assert len(orders._walks) == n
        for goal, masks in orders._walks.items():
            assert len(masks) == 2 * k
            assert masks == fresh.walks(goal, 2 * k - 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3))
def test_add_edge_matches_fresh_state_at_mixed_depths(seed, k):
    """Before each added edge a random set of goals is memoised, each at a
    depth in 0..2k-1, and a random set of rows and degree bounds is read,
    so some goals, rows and bounds are never read and the ends of the pair
    are often not memoised.  After the edge, every row, degree, degree mask
    and walk mask held equals a fresh state's, a held row that holds
    neither end of the edge is still held, and every row read before the
    next edge equals a fresh state's."""
    rng = random.Random(seed)
    n = rng.randrange(2, 16)
    g = random_graph(n, rng.uniform(0.05, 0.6), rng)
    ref = g.copy()
    orders, fresh = _neighbor_orders(g), _neighbor_orders(ref)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    rng.shuffle(pairs)
    for u, v in pairs[: rng.randrange(len(pairs) + 1)]:
        for w in range(n):
            if rng.random() < 0.4:
                orders.walks(w, rng.randrange(2 * k))
            if rng.random() < 0.4:
                assert orders[w] == fresh[w]
        orders.high(rng.randrange(4))
        held = list(orders)
        orders.add_edge(u, v)
        ref.add_edge(u, v)
        assert g == ref
        fresh = _neighbor_orders(ref)
        ends = ref.adj[u] | ref.adj[v]  # the rows that hold u or v
        assert all(w in orders for w in held if not ends >> w & 1)
        assert dict(orders) == {w: fresh[w] for w in orders}
        assert orders.deg == fresh.deg
        assert orders._high == {t: fresh.high(t) for t in orders._high}
        for goal, masks in orders._walks.items():
            assert masks == fresh.walks(goal, len(masks) - 1)


def _walk_masks_ref(adj, goal, depth):
    """W_0..W_depth of `goal`, recomputed one vertex at a time."""
    masks = [1 << goal]
    for _ in range(depth):
        layer = 0
        for x in range(len(adj)):
            if masks[-1] >> x & 1:
                layer |= adj[x]
        masks.append(layer)
    return masks


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_added_edge_changes_exactly_the_filtered_goals(seed):
    """The goals whose masks W_0..W_D differ between G and G+uv are exactly
    the union over 1 <= d <= D of (W_{d-1}(u) - W_d(v)) | (W_{d-1}(v) -
    W_d(u)), with the masks of u and v taken in G: the filter misses no goal
    that changes and keeps none that does not."""
    rng = random.Random(seed)
    n = rng.randrange(2, 16)
    g = random_graph(n, rng.uniform(0.05, 0.7), rng)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    if not non_edges:
        return
    u, v = rng.choice(non_edges)
    depth = rng.randrange(6)
    h = g.copy()
    h.add_edge(u, v)
    before = [_walk_masks_ref(g.adj, x, depth) for x in range(n)]
    changed = mask_of(x for x in range(n) if before[x] != _walk_masks_ref(h.adj, x, depth))
    filtered = 0
    for d in range(1, depth + 1):
        filtered |= before[u][d - 1] & ~before[v][d] | before[v][d - 1] & ~before[u][d]
    assert changed == filtered


# ---------------------------------------------------------------------------
# verdicts by twin key on blown-up hosts


def _non_edges(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


def _saturate_ref(g, s, k):
    """Added list of the lexicographic pass, one unpruned search per pair."""
    h, added = g.copy(), []
    for u, v in _non_edges(g):
        if find_book_using_edge_ref(h, u, v, s, k) is None:
            h.add_edge(u, v)
            added.append((u, v))
    return added


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(2, 2), (1, 2)]))
def test_twin_verdicts_match_unpruned_search(seed, sk):
    """On hosts with large false-twin classes, where most probes are
    answered from a stored verdict, is_book_free agrees with the naive
    enumerator, and the maximality failing list and the saturate added list
    with one unpruned search per pair.  The unpruned pass takes seconds on
    some (3, 2) and (2, 3) hosts near the pattern's order, so those books
    are checked against fresh searches below instead."""
    s, k = sk
    rng = random.Random(seed)
    g = blown_up(rng, s, k)
    free, witness = is_book_free(g, s, k)
    if g.n <= 12:
        assert free == (not contains_book_naive(g, s, k))
    while not free:
        assert validate_witness(g, witness)
        g.delete_edge(*witness.hub_edge)
        free, witness = is_book_free(g, s, k)
    failing = [(x, y) for x, y in _non_edges(g) if find_book_using_edge_ref(g, x, y, s, k) is None]
    assert is_maximal_book_free(g, s, k) == (not failing, failing)
    assert saturate(g, s, k)[1] == _saturate_ref(g, s, k)


def test_saturate_searches_again_after_a_class_splits():
    """2..7 are false twins of K_2 + 6 independent vertices, and the probe
    (2, 3) fails under their key.  Once (2, 3) is added, (5, 6) would
    close a copy through the added edges, so the stored verdict must not
    answer it."""
    g = Graph.from_edges(8, [(0, 1)] + [(h, v) for h in (0, 1) for v in range(2, 8)])
    added = [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4)]
    assert _saturate_ref(g, 2, 2) == added
    assert saturate(g, 2, 2)[1] == added


def test_stored_witnesses_are_valid_copies_with_the_fresh_anchor():
    """A state that keeps verdicts answers each pair, edge or non-edge, with
    None exactly when a fresh search does, and otherwise with a valid copy
    through its recorded probe, a pair with the asked pair's twin key, in
    the pattern edge orbit that a fresh search for the asked pair names."""
    moved = 0
    for seed in range(24):
        s, k = BLOWN_UP_SK[seed % 4]
        g = blown_up(random.Random(seed), s, k)
        state = _twin_orders(g)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                probe = find_book_at_edge if g.has_edge(x, y) else find_book_using_edge
                w = probe(g, x, y, s, k, _orders=state)
                fresh = probe(g, x, y, s, k)
                assert (w is None) == (fresh is None)
                if w is not None:
                    assert validate_witness(g, w)
                    assert sorted(g.adj[v] for v in w.probe) == sorted((g.adj[x], g.adj[y]))
                    assert w.anchor == fresh.anchor
                    moved += w.probe != (x, y)
    assert moved > 100


def _first_copy_unmemoised(g, s, k):
    """First copy of the edge scan of is_book_free, on a state that keeps
    no verdicts."""
    orders = _neighbor_orders(g)
    for u, v in g.edges():
        w = find_book_at_edge(g, u, v, s, k, _orders=orders)
        if w is not None:
            return w
    return None


def test_book_free_witness_is_the_first_copy_of_a_fresh_scan():
    """is_book_free's memo answers only None before its first copy, so its
    witness is the one a scan without the memo finds first, with no anchor
    or probe; checked while hub edges are deleted until the host is free."""
    for seed in range(24):
        s, k = BLOWN_UP_SK[seed % 4]
        g = blown_up(random.Random(seed), s, k)
        while True:
            free, witness = is_book_free(g, s, k)
            first = _first_copy_unmemoised(g, s, k)
            assert free == (first is None)
            if free:
                break
            assert (witness.mapping, witness.anchor, witness.probe) == (first.mapping, None, None)
            g.delete_edge(*witness.hub_edge)


def test_shared_state_keeps_first_witnesses_on_blown_up_hosts():
    """A state shared across probes, as the stability classification keeps
    one, stores no verdicts; with the hub pairs that repeat a tried pair's
    rows skipped, each non-edge still gets the first witness of a fresh
    call and of the unpruned search."""
    for seed in range(24):
        s, k = BLOWN_UP_SK[seed % 4]
        g = blown_up(random.Random(seed), s, k)
        shared = _neighbor_orders(g)
        for x, y in _non_edges(g):
            w = find_book_using_edge(g, x, y, s, k, _orders=shared)
            assert w == find_book_using_edge(g, x, y, s, k)
            assert (None if w is None else (w.mapping, w.anchor)) == \
                find_book_using_edge_ref(g, x, y, s, k)
        assert shared.verdicts is None


def _runs(u, lo, hi):
    return [(u, v) for v in range(lo, hi)]


SATURATE_ADDED = {
    (2, 64): [(32, 34), (32, 37), *_runs(32, 44, 54), (34, 35), *_runs(34, 54, 64),
              (35, 37), (38, 40), (38, 43), (40, 41), (41, 43)],
    (2, 128): [(40, 42), (40, 45), *_runs(40, 52, 90), (42, 43), *_runs(42, 90, 128),
               (43, 45), (46, 48), (46, 51), (48, 49), (49, 51)],
    (3, 40): [(0, 5), (0, 6), (0, 8), (0, 11), (1, 8), (1, 11), (4, 9), (7, 9), (10, 12)],
}


# sha256 of json.dumps(added) where the list is too long to spell out
SATURATE_ADDED_SHA256 = {
    (2, 256): "c27d0b374bb865a6d3f519f7ba24e0c71d70b17bdd695246499cd4f08092bcc9",
}


# the (2, 2) cases keep the ids n-count that recorded runs name
@pytest.mark.parametrize("s, n, count", [(2, 64, 28), (2, 128, 84), (2, 256, 144), (3, 40, 9)],
                         ids=["64-28", "128-84", "256-144", "s3-40-9"])
def test_saturate_added_edges_pinned(s, n, count):
    g = build_min_member(plan_layout(n, s, 2, Fraction(1, 2))).graph
    out, added = saturate(g, s, 2)
    assert len(added) == count
    if (s, n) in SATURATE_ADDED:
        assert added == SATURATE_ADDED[s, n]
    else:
        assert hashlib.sha256(json.dumps(added).encode()).hexdigest() == SATURATE_ADDED_SHA256[s, n]
    assert is_maximal_book_free(out, s, 2) == (True, [])


def _free(g, s, k):
    """g with the hub edge of each first copy deleted until it is free."""
    free, witness = is_book_free(g, s, k)
    while not free:
        g.delete_edge(*witness.hub_edge)
        free, witness = is_book_free(g, s, k)
    return g


def _twin_free_host(rng):
    while True:
        g = random_graph(rng.randrange(10, 15), rng.uniform(0.2, 0.5), rng)
        if len(twin_classes(g)) == g.n:
            return g


def _orbit_hosts(family):
    if family == "members":
        return [(build_min_member(plan_layout(n, s, 2, Fraction(1, 2))).graph, s, 2)
                for s, n in [(2, 64), (2, 128), (3, 40)]]
    if family == "blown-up":
        return [(_free(blown_up(random.Random(seed), *BLOWN_UP_SK[seed % 4]),
                       *BLOWN_UP_SK[seed % 4]), *BLOWN_UP_SK[seed % 4]) for seed in range(8)]
    return [(_free(_twin_free_host(random.Random(seed)), 2, 2), 2, 2) for seed in range(6)]


def _whole_graph_outputs(g, s, k):
    """saturate's added list, the maximality failing list and, per non-edge
    on the state those checks build, whether a copy exists and its anchor;
    then the number of symmetries that state holds."""
    orders, non_edges = freeness._free_non_edges(g, s, k)
    anchors = []
    for x, y in non_edges:
        w = find_book_using_edge(g, x, y, s, k, _orders=orders)
        anchors.append(None if w is None else w.anchor)
    return (saturate(g, s, k)[1], is_maximal_book_free(g, s, k)[1], anchors), len(orders.symmetries)


@pytest.mark.parametrize("family", ["members", "blown-up", "twin-free"])
def test_orbit_keys_match_a_state_without_generators(monkeypatch, family):
    """Storing each search's result under every twin key of the pair's
    orbit changes no added list, failing list, verdict or anchor."""
    hosts = _orbit_hosts(family)
    with_orbits = [_whole_graph_outputs(g, s, k) for g, s, k in hosts]
    monkeypatch.setattr(freeness, "quotient_automorphisms", lambda g, classes: [])
    for (g, s, k), (outputs, symmetries) in zip(hosts, with_orbits):
        assert _whole_graph_outputs(g, s, k) == (outputs, 0)
    if family == "members":
        assert all(symmetries for _, symmetries in with_orbits)
    if family == "blown-up":  # hosts that are not maximal and have symmetries
        assert sum(bool(outputs[1]) and symmetries > 0 for outputs, symmetries in with_orbits) >= 3


def test_one_search_per_orbit_on_the_member(monkeypatch, min_member_64):
    """saturate plus the maximality check of the n = 64 member run 672
    anchored searches when only twin swaps are used, and 277 with the
    member's 16 quotient automorphisms (4 after saturation)."""
    calls = []

    def counted(search):
        def run(*args):
            calls.append(args[1:3])
            return search(*args)
        return run

    for name in ("_find_hub_anchored", "_find_page_anchored"):
        monkeypatch.setattr(freeness, name, counted(getattr(freeness, name)))
    out, _ = saturate(min_member_64.graph, 2, 2)
    assert is_maximal_book_free(out, 2, 2) == (True, [])
    assert len(calls) <= 300
