"""Exact odd-book detection, maximality checking, and saturation.

A copy of the (s, k) odd book decomposes as a hub edge plus s internally
disjoint hub-to-hub paths of length 2k, so detection anchored at a host
edge reduces to a disjoint-paths search.  Probing a non-edge xy for
maximality runs two searches in turn: xy as the hub edge, then xy as the
edge at offset r (0 <= r <= 2k-1) of a hub-to-hub page of 2k edges.  The
witness names the pattern edge orbit: hub-hub, hub-page (r = 0 or 2k-1)
or page-interior.  All searches are exhaustive and deterministic
(neighbors visited in ascending-degree order, ties by id).

The path kernel prunes with two necessary conditions, walk masks in
`_iter_paths` and a layered cut bound in `_find_pages`; each cuts only
branches that cannot succeed, so verdicts and first witnesses are the same
as those of the unpruned search.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .graph import Graph, bits, mask_of, neighborhood
from .pattern import book_order, build_odd_book

DEFAULT_SIZE_LIMIT = 512

ANCHOR_HUB = "hub-hub"
ANCHOR_HUB_PAGE = "hub-page"
ANCHOR_INTERIOR = "page-interior"


class NotBookFreeError(ValueError):
    """Input graph already contains the pattern; carries one witness."""

    def __init__(self, witness: "Witness"):
        super().__init__(
            f"graph contains an ({witness.s}, {witness.k}) odd book "
            f"with hub edge {witness.hub_edge}"
        )
        self.witness = witness


class NotMaximalError(ValueError):
    """A probe pair produced no witness where the caller required one."""

    def __init__(self, probe: tuple[int, int]):
        super().__init__(f"adding non-edge {probe} creates no odd-book copy")
        self.probe = probe


@dataclass(frozen=True)
class Witness:
    """Injective embedding of the (s, k) odd book into a host graph.

    mapping[i] is the host vertex for pattern vertex i in build_odd_book
    numbering (hubs 0 and 1, then page interiors).  When the witness was
    found while probing a non-edge, `probe` records that pair and `anchor`
    names the pattern edge orbit the pair occupies.
    """

    s: int
    k: int
    mapping: tuple[int, ...]
    anchor: str | None = None
    probe: tuple[int, int] | None = None

    @property
    def hub_edge(self) -> tuple[int, int]:
        return self.mapping[0], self.mapping[1]

    def page_hosts(self, i: int) -> tuple[int, ...]:
        width = 2 * self.k - 1
        return self.mapping[2 + i * width : 2 + (i + 1) * width]

    def host_neighbors(self, host: int) -> tuple[int, ...]:
        """Witness-neighbors of a host vertex that is in the image."""
        pat = _pattern_cache(self.s, self.k)
        idx = self.mapping.index(host)
        return tuple(self.mapping[j] for j in bits(pat.graph.adj[idx]))

    def host_degree(self, host: int) -> int:
        pat = _pattern_cache(self.s, self.k)
        return pat.graph.degree(self.mapping.index(host))

    def to_json(self) -> dict:
        return {
            "pattern": {"s": self.s, "k": self.k},
            "mapping": list(self.mapping),
            "hub_edge": list(self.hub_edge),
            "anchor": self.anchor,
            "probe": list(self.probe) if self.probe else None,
        }


_PATTERNS: dict[tuple[int, int], object] = {}


def _pattern_cache(s: int, k: int):
    key = (s, k)
    if key not in _PATTERNS:
        _PATTERNS[key] = build_odd_book(s, k)
    return _PATTERNS[key]


def validate_witness(g: Graph, w: Witness) -> bool:
    """Re-check a witness against the host: injectivity plus every pattern
    edge present (the recorded probe pair counts as present)."""
    if len(set(w.mapping)) != len(w.mapping):
        return False
    if any(not 0 <= v < g.n for v in w.mapping):
        return False
    pat = _pattern_cache(w.s, w.k)
    probe = frozenset(w.probe) if w.probe else None
    for pu, pv in pat.graph.edges():
        hu, hv = w.mapping[pu], w.mapping[pv]
        if g.has_edge(hu, hv):
            continue
        if probe and frozenset((hu, hv)) == probe:
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# path machinery


class _Orders(dict):
    """Search state for one graph state.

    `orders[v]` lists the neighbors of v in ascending (degree, id) order, the
    order every search visits them in.  A row is sorted when a search first
    reads it, because a search that stops early reads few rows.  `deg` holds
    the degrees, and walk masks are memoised per goal.  The object reads the
    graph's adjacency list in place, so after the graph gains an edge call
    `edge_added` before the next search.
    """

    __slots__ = ("adj", "deg", "_walks")

    def __init__(self, g: Graph):
        super().__init__()
        self.adj = g.adj
        self.deg = [row.bit_count() for row in g.adj]
        self._walks: dict[int, list[int]] = {}

    def __missing__(self, v: int) -> tuple[int, ...]:
        deg = self.deg
        row = self[v] = tuple(sorted(bits(self.adj[v]), key=lambda w: (deg[w], w)))
        return row

    def walks(self, goal: int, depth: int) -> list[int]:
        """Masks W_0..W_depth (at least) for `goal`: W_d holds the vertices
        with a walk of exactly d edges to goal, so W_0 = {goal} and W_{d+1}
        is the neighborhood of W_d."""
        masks = self._walks.get(goal)
        if masks is None:
            masks = self._walks[goal] = [1 << goal]
        while len(masks) <= depth:
            masks.append(neighborhood(self.adj, masks[-1]))
        return masks

    def edge_added(self, u: int, v: int) -> None:
        """Catch up with the new edge uv: only u and v change degree, so only
        the rows that contain u or v, those of N(u) | N(v), are dropped to be
        sorted again on next use.  The edge adds walks, so every memoised
        mask is dropped."""
        self.deg[u] += 1
        self.deg[v] += 1
        adj = self.adj
        for w in bits(adj[u] | adj[v]):
            self.pop(w, None)
        self._walks.clear()


def _neighbor_orders(g: Graph) -> _Orders:
    return _Orders(g)


def _iter_paths(orders, start, goal, length, banned):
    """Yield interior tuples of start-goal paths with exactly `length` edges.

    Interiors avoid `banned`; start and goal are excluded automatically.
    Exhaustive; neighbor order gives determinism.

    Two pruning rules cut only branches that yield nothing, so the paths
    that are yielded keep their order:

    * walk mask: with `rem` edges left after the current vertex, the next
      vertex w must lie in W_{rem-1}(goal), because the rest of a path is a
      walk of rem-1 edges from w to goal;
    * look-ahead: when rem >= 3, w must also have a neighbor outside the
      used set in W_{rem-2}(goal), namely the vertex that follows w on the
      path; it is tested before descending, so a dead end costs no call.
    """
    if length < 1:
        return
    adj = orders.adj
    if length == 1:
        if adj[start] >> goal & 1:
            yield ()
        return
    masks = orders.walks(goal, length - 1)
    goal_adj = adj[goal]
    interior: list[int] = []

    def extend(v, rem, used):
        if rem == 2:
            cand = adj[v] & goal_adj & ~used
            if not cand:
                return
            for w in orders[v]:
                if cand >> w & 1:
                    interior.append(w)
                    yield tuple(interior)
                    interior.pop()
            return
        cand = adj[v] & masks[rem - 1] & ~used
        if not cand:
            return
        ahead = masks[rem - 2]
        for w in orders[v]:
            if not cand >> w & 1:
                continue
            used_w = used | 1 << w
            if not adj[w] & ahead & ~used_w:
                continue
            interior.append(w)
            yield from extend(w, rem - 1, used_w)
            interior.pop()

    yield from extend(start, length, banned | 1 << start | 1 << goal)


def _layers_admit(adj, h1, h2, count, length, banned):
    """Necessary condition for `count` interior-disjoint h1-h2 pages of
    `length` edges avoiding `banned`.

    Layer i (1 <= i < length) is the set of allowed vertices (not banned,
    not a hub) at position i of some h1-h2 walk of `length` edges whose
    interior is allowed: a forward sweep from h1 gives the vertices reachable
    at position i, and a backward sweep from h2 inside those keeps the ones
    that can still finish.  The pages are such walks with distinct vertices
    at every position, so each layer needs `count` vertices.  For count = 2
    this is Menger's theorem on the layered graph: a single vertex separates
    its copies of h1 and h2 exactly when some layer holds one vertex.  The
    pages' interiors are also disjoint sets of length-1 vertices inside the
    union of the layers, so the union needs count * (length-1) vertices.
    """
    allowed = ~(banned | 1 << h1 | 1 << h2)
    fwd = [1 << h1]
    for _ in range(length - 1):
        reach = neighborhood(adj, fwd[-1]) & allowed
        if reach.bit_count() < count:
            return False
        fwd.append(reach)
    layer = 1 << h2
    union = 0
    for i in range(length - 1, 0, -1):
        layer = neighborhood(adj, layer) & fwd[i]
        if layer.bit_count() < count:
            return False
        union |= layer
    return union.bit_count() >= count * (length - 1)


def _find_pages(orders, h1, h2, count, length, banned):
    """`count` internally disjoint h1-h2 paths of exact `length` edges with
    interiors avoiding `banned`; list of interior tuples, or None.

    When count >= 2 and the first candidate page cannot be completed, the
    layer bound of `_layers_admit` decides whether the other candidates are
    worth trying; it is checked that late so that hits pay nothing for it.
    """
    if count == 0:
        return []
    bounded = count < 2
    for interior in _iter_paths(orders, h1, h2, length, banned):
        rest = _find_pages(
            orders, h1, h2, count - 1, length, banned | mask_of(interior)
        )
        if rest is not None:
            return [interior] + rest
        if not bounded:
            bounded = True
            if not _layers_admit(orders.adj, h1, h2, count, length, banned):
                return None
    return None


def _witness(s, k, hub1, hub2, pages, anchor, probe) -> Witness:
    mapping = [hub1, hub2]
    for page in pages:
        mapping.extend(page)
    return Witness(s=s, k=k, mapping=tuple(mapping), anchor=anchor, probe=probe)


# ---------------------------------------------------------------------------
# anchored searches


def find_book_at_edge(
    g: Graph, x: int, y: int, s: int, k: int, _orders=None
) -> Witness | None:
    """Copy with hub edge exactly (x, y), probing G+xy; exhaustive.

    The pair may or may not be an edge of g: the s pages never traverse it.
    """
    if x == y:
        raise ValueError("probe pair must be two distinct vertices")
    orders = _orders if _orders is not None else _neighbor_orders(g)
    if orders.deg[x] < s or orders.deg[y] < s:
        return None
    pages = _find_pages(orders, x, y, s, 2 * k, 0)
    if pages is None:
        return None
    return _witness(s, k, x, y, pages, ANCHOR_HUB, (x, y))


def _find_page_anchored(orders, x, y, s, k):
    """Copies where the probe pair is a page edge: one end `a` at offset r
    from the near hub u, the other end `b` at 2k-1-r from the far hub v.
    Placements are tried in the order (x, y, 0), (y, x, 0), then (x, y, r)
    for r = 1..2k-2; the last sweep, with x on the near side, covers both
    traversal directions of an interior edge.

    At r = 0 the near hub is `a` itself, and the probe edge counts toward
    its degree.  Otherwise the u-a segment is a walk of r edges, so u lies
    in W_r(a); the b-v segment is a walk of 2k-1-r edges, so v lies in
    W_{2k-1-r}(b).
    """
    deg = orders.deg
    pair_mask = 1 << x | 1 << y
    for i in range(2 * k):
        a, b = (y, x) if i == 1 else (x, y)
        r = i - 1 if i else 0
        if r:
            near, need = bits(orders.walks(a, r)[r] & ~pair_mask), s + 1
        elif deg[a] >= s and deg[b] >= 1:
            near, need = (a,), s
        else:
            continue
        tail_len = 2 * k - 1 - r
        far = orders.walks(b, tail_len)[tail_len] & ~pair_mask
        for u in near:
            if deg[u] < need:
                continue
            for v in orders[u]:
                if not far >> v & 1 or deg[v] < s + 1:
                    continue
                firsts = _iter_paths(orders, u, a, r, 1 << v | 1 << b) if r else ((),)
                for seg1 in firsts:
                    used = mask_of(seg1) | 1 << u | 1 << a
                    for seg2 in _iter_paths(orders, b, v, tail_len, used):
                        rest = _find_pages(
                            orders, u, v, s - 1, 2 * k,
                            used | 1 << b | mask_of(seg2),
                        )
                        if rest is not None:
                            page = (seg1 + (a,) if r else ()) + (b,) + seg2
                            anchor = ANCHOR_INTERIOR if r else ANCHOR_HUB_PAGE
                            return _witness(s, k, u, v, [page] + rest, anchor, (x, y))
    return None


def find_book_using_edge(
    g: Graph, x: int, y: int, s: int, k: int, _orders=None
) -> Witness | None:
    """Copy of the odd book in G+xy that uses the pair (x, y) in any pattern
    position; None only when no such copy exists (exhaustive).

    A copy needs book_order(s, k) distinct vertices, so on a smaller host
    the page-edge search is skipped.
    """
    orders = _orders if _orders is not None else _neighbor_orders(g)
    w = find_book_at_edge(g, x, y, s, k, _orders=orders)
    if w is not None or g.n < book_order(s, k):
        return w
    return _find_page_anchored(orders, x, y, s, k)


# ---------------------------------------------------------------------------
# whole-graph checks


def is_book_free(
    g: Graph, s: int, k: int, size_limit: int | None = DEFAULT_SIZE_LIMIT
) -> tuple[bool, Witness | None]:
    """True iff the graph has no (s, k) odd-book subgraph; on False the
    witness is the first copy in edge-lexicographic search order."""
    if size_limit is not None and g.n > size_limit:
        raise ValueError(
            f"exhaustive search refused for n={g.n} > {size_limit}; "
            "pass size_limit=None to override"
        )
    orders = _neighbor_orders(g)
    for u, v in g.edges():
        w = find_book_at_edge(g, u, v, s, k, _orders=orders)
        if w is not None:
            return False, Witness(s=s, k=k, mapping=w.mapping, anchor=None, probe=None)
    return True, None


def _probe_chunk(args):
    g, s, k, pairs = args
    orders = _neighbor_orders(g)
    return [
        (x, y)
        for x, y in pairs
        if find_book_using_edge(g, x, y, s, k, _orders=orders) is None
    ]


def is_maximal_book_free(
    g: Graph,
    s: int,
    k: int,
    size_limit: int | None = DEFAULT_SIZE_LIMIT,
    workers: int = 1,
) -> tuple[bool, list[tuple[int, int]]]:
    """Every non-edge must create a copy when added; failing non-edges are
    returned in lexicographic order.  Raises NotBookFreeError if the input
    already contains the pattern."""
    free, witness = is_book_free(g, s, k, size_limit=size_limit)
    if not free:
        raise NotBookFreeError(witness)
    non_edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    if workers > 1 and len(non_edges) > 4 * workers:
        chunks = [
            (g, s, k, non_edges[i::workers]) for i in range(workers)
        ]
        failing: list[tuple[int, int]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_probe_chunk, chunks):
                failing.extend(part)
        failing.sort()
    else:
        failing = _probe_chunk((g, s, k, non_edges))
    return not failing, failing


def saturate(
    g: Graph, s: int, k: int, size_limit: int | None = DEFAULT_SIZE_LIMIT
) -> tuple[Graph, list[tuple[int, int]]]:
    """Maximal book-free supergraph via one lexicographic pass.

    Each pair is added iff its addition creates no copy at probe time; a
    copy created by a rejected pair persists in every later supergraph, so
    a single pass already reaches the fixpoint.
    """
    free, witness = is_book_free(g, s, k, size_limit=size_limit)
    if not free:
        raise NotBookFreeError(witness)
    out = g.copy()
    added: list[tuple[int, int]] = []
    orders = _neighbor_orders(out)
    for u in range(out.n):
        for v in range(u + 1, out.n):
            if out.has_edge(u, v):
                continue
            if find_book_using_edge(out, u, v, s, k, _orders=orders) is None:
                out.add_edge(u, v)
                added.append((u, v))
                orders.edge_added(u, v)
    return out, added
