from dataclasses import replace

import pytest

from oddbook.graph import Graph, random_graph, two_coloring
from oddbook.pattern import (
    OddBook,
    book_order,
    book_size,
    build_odd_book,
    is_color_critical_edge,
    odd_book_issues,
)

from .oracles import (
    bfs_distances_ref,
    chromatic_number_brute,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    two_coloring_ref,
)


def test_single_page_is_odd_cycle():
    for k in range(1, 5):
        book = build_odd_book(1, k)
        assert book.order == 2 * k + 1
        assert book.graph.num_edges() == 2 * k + 1
        assert all(book.graph.degree(v) == 2 for v in range(book.order))


def test_two_pages_k2_counts():
    book = build_odd_book(2, 2)
    assert book.order == 8
    assert book.graph.num_edges() == 9


def test_three_page_triangle_book():
    # three triangles on a shared edge: 5 vertices, 7 edges
    book = build_odd_book(3, 1)
    assert book.order == 5
    assert book.graph.num_edges() == 7


def test_invalid_parameters():
    with pytest.raises(ValueError):
        build_odd_book(0, 2)
    with pytest.raises(ValueError):
        build_odd_book(2, 0)


def test_structure_sweep():
    for s in range(1, 5):
        for k in range(1, 5):
            book = build_odd_book(s, k)
            assert odd_book_issues(book) == []
            assert book.order == book_order(s, k)
            assert book.graph.num_edges() == book_size(s, k)


def test_minus_hub_edge_is_disjoint_even_paths():
    # structurally: dropping the hub edge leaves s internally disjoint
    # hub-to-hub paths of length 2k
    for s in (2, 3):
        for k in (2, 3):
            book = build_odd_book(s, k)
            stripped = book.graph.copy()
            stripped.delete_edge(*book.hubs)
            h1, h2 = book.hubs
            seen = set()
            for page in book.pages:
                chain = (h1,) + page + (h2,)
                assert len(chain) == 2 * k + 1
                for a, b in zip(chain, chain[1:]):
                    assert stripped.has_edge(a, b)
                assert not seen.intersection(page)
                seen.update(page)
            for v in page:
                assert stripped.degree(v) == 2
            assert stripped.degree(h1) == s
            dist = bfs_distances_ref(stripped, h1)
            assert dist[h2] == 2 * k
            assert two_coloring(stripped) is not None


def _with_graph(book: OddBook, edit) -> OddBook:
    g = book.graph.copy()
    edit(g)
    return replace(book, graph=g)


# (2, 2) book: hubs 0 and 1, pages (2, 3, 4) and (5, 6, 7)
@pytest.mark.parametrize("corrupt, message", [
    (lambda b: replace(b, graph=Graph.from_edges(9, b.graph.edges())), "order 9 != 8"),
    (lambda b: _with_graph(b, lambda g: g.add_edge(3, 6)), "size 10 != 9"),
    (lambda b: _with_graph(b, lambda g: g.delete_edge(0, 1)), "hub edge missing"),
    (lambda b: _with_graph(b, lambda g: g.add_edge(0, 3)), "hub 0 degree 4 != 3"),
    (lambda b: replace(b, pages=((2, 3), (4, 5, 6, 7))), "page 0 has 2 interior vertices"),
    (lambda b: replace(b, pages=((2, 3, 4), (2, 3, 4))),
     "page 1 shares vertices with another page or hub"),
    (lambda b: _with_graph(b, lambda g: g.delete_edge(3, 4)), "page 0 misses edge (3, 4)"),
    (lambda b: _with_graph(b, lambda g: g.add_edge(2, 6)), "interior 2 degree 3 != 2"),
    (lambda b: replace(b, pages=((2, 3, 4),)), "pages and hubs do not cover all vertices"),
], ids=["order", "size", "hub-edge", "hub-degree", "page-length", "shared-vertex",
        "page-edge", "interior-degree", "uncovered"])
def test_odd_book_issues_names_each_defect(corrupt, message):
    assert message in odd_book_issues(corrupt(build_odd_book(2, 2)))


def test_color_critical_sweep():
    for s in range(1, 5):
        for k in range(1, 5):
            book = build_odd_book(s, k)
            stripped = book.graph.copy()
            stripped.delete_edge(*book.hubs)
            # chi = 3 and chi - e = 2, by the argument of is_color_critical_edge
            assert two_coloring_ref(book.graph) is None
            assert two_coloring_ref(stripped) is not None
            if book.order <= 8:
                assert chromatic_number_brute(book.graph) == 3
                assert chromatic_number_brute(stripped) == 2
            assert is_color_critical_edge(book)


def test_color_critical_matches_brute_force(rng):
    named = [cycle_graph(5), complete_graph(4), complete_bipartite(3, 3)]
    graphs = named + [
        random_graph(rng.randrange(2, 8), rng.uniform(0.2, 0.8), rng) for _ in range(300)
    ]
    critical = 0
    for g in graphs:
        edges = list(g.edges())
        if not edges:
            continue
        e = rng.choice(edges)
        stripped = g.copy()
        stripped.delete_edge(*e)
        want = chromatic_number_brute(g) == 3 and chromatic_number_brute(stripped) == 2
        assert is_color_critical_edge(OddBook(0, 0, g, e, ())) == want, (edges, e)
        critical += want
    assert critical >= 10


def test_triangle_is_critical():
    assert is_color_critical_edge(build_odd_book(1, 1))
