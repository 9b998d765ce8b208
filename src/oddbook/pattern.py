"""The odd-book pattern family: s odd cycles C_{2k+1} glued along one edge.

An odd book with parameters (s, k) has two hub vertices joined by an edge,
plus s internally disjoint hub-to-hub paths of length 2k.  It is
3-chromatic and removing the hub edge leaves a bipartite graph, which is
exactly the edge-color-critical property the rest of the toolkit leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, two_coloring


@dataclass(frozen=True)
class OddBook:
    s: int
    k: int
    graph: Graph
    hubs: tuple[int, int]
    pages: tuple[tuple[int, ...], ...]  # interior vertices per page, hub-to-hub order

    @property
    def order(self) -> int:
        return self.graph.n


def book_order(s: int, k: int) -> int:
    return s * (2 * k - 1) + 2


def book_size(s: int, k: int) -> int:
    return 2 * k * s + 1


def check_book_parameters(s: int, k: int) -> None:
    """Refuse, with ValueError, an odd book with s < 1 or k < 1."""
    if s < 1 or k < 1:
        raise ValueError("odd book needs s >= 1 and k >= 1")


def build_odd_book(s: int, k: int) -> OddBook:
    """Deterministic construction: hubs 0 and 1, pages numbered consecutively."""
    check_book_parameters(s, k)
    n = book_order(s, k)
    g = Graph(n)
    g.add_edge(0, 1)
    pages = []
    nxt = 2
    for _ in range(s):
        interior = tuple(range(nxt, nxt + 2 * k - 1))
        nxt += 2 * k - 1
        chain = (0,) + interior + (1,)
        for a, b in zip(chain, chain[1:]):
            g.add_edge(a, b)
        pages.append(interior)
    return OddBook(s=s, k=k, graph=g, hubs=(0, 1), pages=tuple(pages))


def odd_book_issues(p: OddBook) -> list[str]:
    """Structural defects of a purported odd book; empty list means valid."""
    issues = []
    g = p.graph
    if g.n != book_order(p.s, p.k):
        issues.append(f"order {g.n} != {book_order(p.s, p.k)}")
    if g.num_edges() != book_size(p.s, p.k):
        issues.append(f"size {g.num_edges()} != {book_size(p.s, p.k)}")
    h1, h2 = p.hubs
    if not g.has_edge(h1, h2):
        issues.append("hub edge missing")
    for h in p.hubs:
        if g.degree(h) != p.s + 1:
            issues.append(f"hub {h} degree {g.degree(h)} != {p.s + 1}")
    seen = set(p.hubs)
    for i, interior in enumerate(p.pages):
        if len(interior) != 2 * p.k - 1:
            issues.append(f"page {i} has {len(interior)} interior vertices")
            continue
        if seen.intersection(interior):
            issues.append(f"page {i} shares vertices with another page or hub")
        seen.update(interior)
        chain = (h1,) + interior + (h2,)
        for a, b in zip(chain, chain[1:]):
            if not g.has_edge(a, b):
                issues.append(f"page {i} misses edge ({a}, {b})")
        for v in interior:
            if g.degree(v) != 2:
                issues.append(f"interior {v} degree {g.degree(v)} != 2")
    if len(seen) != g.n:
        issues.append("pages and hubs do not cover all vertices")
    return issues


def is_color_critical_edge(p: OddBook) -> bool:
    """True iff chi(G) = 3 and chi(G - e) = 2 for the hub edge e: G has no
    2-colouring and G - e has one.  As chi(G) <= chi(G - e) + 1, a bipartite
    G - e of a non-bipartite G gives chi(G) = 3, and chi(G - e) = 2, since
    G - e keeps two edges of each odd cycle through e; the converse is
    immediate.  So the verdict is exact on every graph, not only on books."""
    stripped = p.graph.copy()
    stripped.delete_edge(*p.hubs)
    return two_coloring(p.graph) is None and two_coloring(stripped) is not None
