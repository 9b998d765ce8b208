import pytest

from oddbook.graph import Graph, random_graph, two_coloring
from oddbook.pattern import (
    book_order,
    book_size,
    build_odd_book,
    chromatic_number,
    is_color_critical_edge,
    odd_book_issues,
)

from .oracles import (
    bfs_distances,
    chromatic_number_brute,
    complete_bipartite,
    complete_graph,
    cycle_graph,
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
            dist = bfs_distances(stripped, h1)
            assert dist[h2] == 2 * k
            assert two_coloring(stripped) is not None


def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(complete_bipartite(3, 3)) == 2
    assert chromatic_number(build_odd_book(2, 2).graph) == 3


def _odd_wheel(rim: int) -> Graph:
    g = cycle_graph(rim)
    wheel = Graph.from_edges(rim + 1, list(g.edges()))
    for v in range(rim):
        wheel.add_edge(rim, v)
    return wheel


def test_chromatic_matches_brute_force(rng):
    named = [complete_graph(4), complete_graph(5), _odd_wheel(5)]
    assert [chromatic_number(g) for g in named] == [4, 5, 4]
    graphs = named + [
        random_graph(rng.randrange(0, 9), rng.uniform(0.2, 0.7), rng)
        for _ in range(60)
    ]
    for g in graphs:
        assert chromatic_number(g) == chromatic_number_brute(g), list(g.edges())


def test_chromatic_size_cap():
    with pytest.raises(ValueError):
        chromatic_number(Graph(33))


def test_color_critical_sweep():
    for s in range(1, 5):
        for k in range(1, 5):
            book = build_odd_book(s, k)
            assert chromatic_number(book.graph) == 3
            assert is_color_critical_edge(book)


def test_triangle_is_critical():
    assert is_color_critical_edge(build_odd_book(1, 1))
