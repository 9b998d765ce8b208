import random
from fractions import Fraction

import pytest

from oddbook import build_min_member, plan_layout, saturate
from oddbook.graph import Graph, random_graph
from oddbook.pattern import book_order


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


BLOWN_UP_SK = [(2, 2), (1, 2), (3, 2), (2, 3)]


def blown_up(rng, s, k):
    """A random graph on 3-6 vertices with each vertex blown up into 1-4
    false twins under shuffled ids, and up to 3 pairs flipped; at least
    book_order(s, k) vertices, since smaller hosts hold no copy."""
    ids = []
    while len(ids) < book_order(s, k):
        base = random_graph(rng.randrange(3, 7), rng.uniform(0.3, 0.8), rng)
        ids = [b for b in range(base.n) for _ in range(rng.randrange(1, 5))]
    rng.shuffle(ids)
    n = len(ids)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if base.has_edge(ids[u], ids[v]):
                g.add_edge(u, v)
    for _ in range(rng.randrange(4)):
        u, v = rng.sample(range(n), 2)
        (g.delete_edge if g.has_edge(u, v) else g.add_edge)(u, v)
    return g


@pytest.fixture(scope="session")
def min_member_64():
    layout = plan_layout(64, 2, 2, Fraction(1, 2))
    return build_min_member(layout)


@pytest.fixture(scope="session")
def saturated_64(min_member_64):
    sat, added = saturate(min_member_64.graph, 2, 2)
    return sat, added


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)
