"""Exact odd-book detection, maximality checking, and saturation.

A copy of the (s, k) odd book decomposes as a hub edge plus s internally
disjoint hub-to-hub paths of length 2k, so detection anchored at a host
edge reduces to a disjoint-paths search.  Probing a non-edge xy for
maximality runs two searches in turn: xy as the hub edge, then xy as the
edge at offset r (0 <= r <= 2k-1) of a hub-to-hub page of 2k edges.  The
witness names the pattern edge orbit: hub-hub, hub-page (r = 0 or 2k-1)
or page-interior.  All searches are exhaustive and deterministic
(neighbors visited in ascending-degree order, ties by id).

The path kernel `_iter_paths` is one depth-first loop with an explicit
stack, so a search of any length runs in one generator frame.  Searches
prune with necessary conditions: walk masks in `_iter_paths`; end-layer
and layered cut bounds and a cut at a vertex every page must use in
`_find_pages`; a hub degree filter in `_find_page_anchored`.  Each cuts
only branches that cannot succeed, so verdicts and first witnesses are
those of the unpruned search.  The search state `_Orders` (sorted rows,
degrees, degree and walk masks) is built once per graph and, in
`saturate`, updated in place by `_Orders.add_edge`, which adds the edge
and regrows only the walk masks that the edge can change.

The construction members are blow-ups, so a check probes many pairs that
an automorphism maps onto each other.  False twins, vertices with equal
rows, are never adjacent, and swapping two is an automorphism.  Pairs with
one twin key, their sorted pair of rows, map onto each other: with
(x0, y0) ordered so that x0 has the row of x, by t1 = (x0 x), then
t2 = (t1(y0) y).  An edge and a non-edge never share a key (y in N(x) iff
x in N(y)).  An automorphism that maps one probe onto another maps copies
through the first onto copies through the second in the same pattern edge
orbit, so each anchored search has one verdict per key, and so has the
anchor, the first orbit (hub-hub, hub-page, page-interior) with a copy.
A state whose `verdicts` is a dict stores each search's result per key
and answers a later pair with that result unchanged: None, or the copy
found for the first pair with the key, whose `probe` names that pair and
whose anchor is the later pair's too.  Only callers that read no probe's
mapping turn it on: `saturate`, the maximality check, and `is_book_free`
on its own state, whose answers are all None before its first copy, so
that copy is a fresh search's.  `_Orders.add_edge` clears it, since an
added edge can turn a None verdict into a copy or move an anchor earlier.
Within one placement of the pair on a page, twin swaps off the pair fix
the placement, so a hub pair whose ordered rows repeat a tried pair's
fails as that one did and is skipped; the loop returns at its first
success, so only failing pairs are skipped and first witnesses stay.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

from .graph import Graph, bits, mask_of, neighborhood
from .pattern import book_order, build_odd_book, check_book_parameters

MAX_SEARCH_ORDER = 512  # hosts above this order are refused: worst cases are exponential

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

    def host_neighbors(self, host: int) -> tuple[int, ...]:
        """Witness-neighbors of a host vertex that is in the image."""
        pat = _pattern_cache(self.s, self.k)
        idx = self.mapping.index(host)
        return tuple(self.mapping[j] for j in bits(pat.graph.adj[idx]))

    def to_json(self) -> dict:
        return {
            "pattern": {"s": self.s, "k": self.k},
            "mapping": list(self.mapping),
            "hub_edge": list(self.hub_edge),
            "anchor": self.anchor,
            "probe": list(self.probe) if self.probe else None,
        }


_pattern_cache = functools.cache(build_odd_book)


@functools.cache
def _pattern_edges(s: int, k: int) -> tuple[tuple[int, int], ...]:
    return tuple(_pattern_cache(s, k).graph.edges())


def validate_witness(g: Graph, w: Witness) -> bool:
    """Re-check a witness against the host: one distinct host vertex per
    pattern vertex, and every pattern edge present (the recorded probe pair
    counts as present)."""
    m, adj = w.mapping, g.adj
    if not (len(set(m)) == len(m) == book_order(w.s, w.k) and all(0 <= v < g.n for v in m)):
        return False
    x, y = w.probe or (-1, -1)
    for pu, pv in _pattern_edges(w.s, w.k):
        a, b = m[pu], m[pv]
        if not (adj[a] >> b & 1 or a == x and b == y or a == y and b == x):
            return False
    return True


# ---------------------------------------------------------------------------
# path machinery


class _Orders(dict):
    """Search state for one graph state.

    `orders[v]` lists the neighbors of v in ascending (degree, id) order, the
    order every search visits them in.  A row is sorted when a search first
    reads it, because a search that stops early reads few rows.  `deg` holds
    the degrees; walk masks are memoised per goal and degree masks per
    bound.  The object reads the graph's adjacency list in place;
    `add_edge` adds an edge to it.  A caller that sets `deg` to all zeros
    before the first read gets rows in ascending id order instead; it must
    then call neither `add_edge` nor `high`.  `verdicts`: see the module
    docstring.

    `add_edge` leaves the state equal to a fresh one of the new graph.  An
    added edge uv changes the degree of u and v alone, and only the rows of
    N'(u) | N'(v) hold u or v, so dropping those rows leaves every cached
    row current.  A degree crosses a bound at most once.  Walks are only
    gained, so walk masks only grow: W'_0 = W_0 and W'_{d+1} =
    N'(W'_d) = W_{d+1} | N'(W'_d - W_d) | the crossings of uv from W'_d,
    where N' is the neighborhood with uv.  Walks reverse (x in W_d(y) iff
    y in W_d(x)), so only the goals in the union over d of
    (W_{d-1}(u) - W_d(v)) | (W_{d-1}(v) - W_d(u)) change: at the lowest
    depth d where a goal g's masks change, nothing was gained below, so v
    entered W_d(g) from u in W_{d-1}(g), or u from v.
    """

    __slots__ = ("adj", "deg", "_walks", "_high", "verdicts")

    def __init__(self, g: Graph):
        super().__init__()
        self.adj = g.adj
        self.deg = [row.bit_count() for row in g.adj]
        self._walks: dict[int, list[int]] = {}
        self._high: dict[int, int] = {}
        self.verdicts: dict | None = None

    def __missing__(self, v: int) -> list[int]:
        # bits() yields ascending ids and the sort is stable: (degree, id)
        row = self[v] = sorted(bits(self.adj[v]), key=self.deg.__getitem__)
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

    def high(self, s: int) -> int:
        """Mask of the vertices of degree > s."""
        if s not in self._high:
            self._high[s] = mask_of(v for v, d in enumerate(self.deg) if d > s)
        return self._high[s]

    def add_edge(self, u: int, v: int) -> None:
        """Add the non-edge uv to the graph and catch up: from the old masks
        of u and v, find the goals whose walk masks change; set the two
        adjacency bits; raise the degrees of u and v and add each to the
        degree masks it now passes; drop the cached rows of N'(u) | N'(v),
        to be re-sorted when next read; grow the walk masks of those goals;
        clear verdicts."""
        deg, adj, high, memo = self.deg, self.adj, self._high, self._walks
        top = max(map(len, memo.values()), default=1) - 1
        stale = 0
        if top:
            wu, wv = self.walks(u, top), self.walks(v, top)
            for d in range(1, top + 1):
                stale |= wu[d - 1] & ~wv[d] | wv[d - 1] & ~wu[d]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        for x in (u, v):
            if deg[x] in high:  # the new degree passes the bound s = deg[x]
                high[deg[x]] |= 1 << x
            deg[x] += 1
        for w in bits(adj[u] | adj[v]):
            self.pop(w, None)
        for goal in bits(stale):
            masks = memo.get(goal, ())  # a goal never read has no masks
            gained = 0  # W'_{d-1} - W_{d-1}
            for d in range(1, len(masks)):
                below = masks[d - 1]
                grown = masks[d] | neighborhood(adj, gained) if gained else masks[d]
                grown |= (below >> u & 1) << v | (below >> v & 1) << u
                gained, masks[d] = grown & ~masks[d], grown
        if self.verdicts:
            self.verdicts.clear()


def _neighbor_orders(g: Graph) -> _Orders:
    return _Orders(g)


def _twin_orders(g: Graph) -> _Orders:
    """Search state that keeps verdicts by twin key."""
    orders = _Orders(g)
    orders.verdicts = {}
    return orders


def _iter_paths(orders, start, goal, length, banned):
    """Yield interior tuples of start-goal paths with exactly `length` >= 1 edges.

    Interiors avoid `banned`; start and goal are excluded automatically.
    Exhaustive depth-first search; neighbor order gives determinism.  The
    search runs in this one generator frame: `frames` saves the row
    iterator, candidate mask and used mask of each level above the current
    one, and the last interior vertex is expanded inline.

    Two pruning rules cut only branches that yield nothing, so the paths
    that are yielded keep their order:

    * walk mask: with `rem` edges left after the current vertex, the next
      vertex w must lie in W_{rem-1}(goal), because the rest of a path is a
      walk of rem-1 edges from w to goal;
    * look-ahead: when rem >= 3, w must also have a neighbor outside the
      used set in W_{rem-2}(goal), namely the vertex that follows w on the
      path.  Those neighbors are w's own candidates, so the test costs no
      extra work.
    """
    adj = orders.adj
    if length == 1:
        if adj[start] >> goal & 1:
            yield ()
        return
    used = banned | 1 << start | 1 << goal
    if length == 2:
        cand = adj[start] & adj[goal] & ~used
        if cand:
            yield from ((w,) for w in orders[start] if cand >> w & 1)
        return
    masks = orders.walks(goal, length - 1)
    cand = adj[start] & masks[length - 1] & ~used
    if not cand:
        return
    interior: list[int] = []
    frames = []
    row = iter(orders[start])
    rem = length
    while True:
        ahead = masks[rem - 2]
        for w in row:
            if cand >> w & 1:
                used_w = used | 1 << w
                nxt = adj[w] & ahead & ~used_w
                if nxt:
                    break
        else:
            if not frames:
                return
            row, cand, used = frames.pop()
            interior.pop()
            rem += 1
            continue
        if rem == 3:
            prefix = (*interior, w)
            for x in orders[w]:
                if nxt >> x & 1:
                    yield (*prefix, x)
            continue
        frames.append((row, cand, used))
        interior.append(w)
        row, cand, used = iter(orders[w]), nxt, used_w
        rem -= 1


def _layers_admit(orders, h1, h2, count, length, banned):
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

    Step i of the forward sweep keeps only vertices of W_{length-i}(h2),
    a walk mask `_iter_paths` has already built for the same goal.  Every
    vertex at position i of an allowed h1-h2 walk of `length` edges lies
    there, so the backward layers are those of the uncut sweep, and a
    forward count that fails only because of the cut would have failed at
    the backward step: the verdict is unchanged, on far smaller masks.
    """
    adj = orders.adj
    walks = orders.walks(h2, length - 1)
    allowed = ~(banned | 1 << h1 | 1 << h2)
    fwd = [1 << h1]
    for i in range(1, length):
        reach = neighborhood(adj, fwd[-1]) & allowed & walks[length - i]
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
    """`count` internally disjoint h1-h2 paths of exact `length` >= 2 edges
    with interiors avoiding `banned`; list of interior tuples, or None.

    For count >= 2, necessary conditions refute a search at its ends before
    any page is built.  A page's first interior vertex is an allowed
    neighbor of h1 with a walk of length-1 edges to h2, so it lies in
    E1 = N(h1) & allowed & W_{length-1}(h2); its last lies in
    E2 = N(h2) & allowed & W_{length-1}(h1).  Interiors are disjoint, so
    each end needs `count` vertices.  When an end has exactly `count`,
    every page set uses all of it, and the layer bound of `_layers_admit`
    runs at once; otherwise only once the first candidate page fails to
    complete, so that hits on wide ends pay nothing for it.

    At that same point the common-vertex cut runs once: if some interior
    vertex z of the first page lies on every page (no page avoids
    banned | z), at most one page of a disjoint set can hold z, so two
    cannot exist.  The layer bound misses such a z when it sits at
    different positions on different pages.  Each check returns None only
    where the search would fail, so first pages stay.
    """
    if count == 0:
        return []
    if count == 1:
        first = next(_iter_paths(orders, h1, h2, length, banned), None)
        return None if first is None else [first]
    adj, end = orders.adj, length - 1
    allowed = ~(banned | 1 << h1 | 1 << h2)
    thin = min((adj[h1] & allowed & orders.walks(h2, end)[end]).bit_count(),
               (adj[h2] & allowed & orders.walks(h1, end)[end]).bit_count())
    bounded = thin == count
    if thin < count or bounded and not _layers_admit(orders, h1, h2, count, length, banned):
        return None
    first = True
    for interior in _iter_paths(orders, h1, h2, length, banned):
        rest = _find_pages(
            orders, h1, h2, count - 1, length, banned | mask_of(interior)
        )
        if rest is not None:
            return [interior] + rest
        if first:
            first = False
            if not bounded and not _layers_admit(orders, h1, h2, count, length, banned):
                return None
            for z in interior:
                if next(_iter_paths(orders, h1, h2, length, banned | 1 << z), None) is None:
                    return None
    return None


def _witness(s, k, hub1, hub2, pages, anchor, probe) -> Witness:
    mapping = (hub1, hub2)
    for page in pages:
        mapping += page
    return Witness(s, k, mapping, anchor, probe)


def _by_twin_key(search, orders, x, y, s, k):
    """search(orders, x, y, s, k), or, when `orders` keeps verdicts, the
    result stored under the twin key of (x, y), unchanged: None, or a copy
    with the anchor of (x, y) through the pair its `probe` names."""
    memo = orders.verdicts
    if memo is None:
        return search(orders, x, y, s, k)
    rx, ry = orders.adj[x], orders.adj[y]
    key = (search, rx, ry) if rx < ry else (search, ry, rx)
    w = memo.get(key, ...)
    if w is ...:
        w = memo[key] = search(orders, x, y, s, k)
    return w


# ---------------------------------------------------------------------------
# anchored searches


def find_book_at_edge(
    g: Graph, x: int, y: int, s: int, k: int, _orders=None
) -> Witness | None:
    """Copy with hub edge exactly (x, y), probing G+xy; exhaustive.

    The pair may or may not be an edge of g: the s pages never traverse it.
    An `_orders` that keeps verdicts may answer with a twin pair's copy,
    which its `probe` names.
    """
    check_book_parameters(s, k)
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"probe pair ({x}, {y}) must be two distinct vertices of g")
    orders = _orders if _orders is not None else _neighbor_orders(g)
    if orders.deg[x] < s or orders.deg[y] < s:
        return None
    return _by_twin_key(_find_hub_anchored, orders, x, y, s, k)


def _find_hub_anchored(orders, x, y, s, k):
    if len(orders.adj) < book_order(s, k):  # no room for a copy
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

    A hub has degree s + 1 in the pattern, so v, and u when r >= 1, has
    degree > s in the host: `far` and (r >= 1) `near` keep only such
    vertices, and a near hub with no neighbor in `far` is skipped.  This
    skips exactly the (u, v) pairs a degree test per neighbor would, in the
    same order, so first witnesses stay.
    """
    adj = orders.adj
    hubs = orders.high(s) & ~(1 << x | 1 << y)  # degree > s, off the pair
    for i in range(2 * k):
        a, b = (y, x) if i == 1 else (x, y)
        r = i - 1 if i else 0
        if r:
            near = bits(orders.walks(a, r)[r] & hubs)
        elif orders.deg[a] >= s and orders.deg[b] >= 1:
            near = (a,)
        else:
            continue
        tail_len = 2 * k - 1 - r
        far = orders.walks(b, tail_len)[tail_len] & hubs
        tried = set()  # ordered rows of the hub pairs searched at this placement
        for u in near:
            if not adj[u] & far:
                continue
            for v in orders[u]:
                if not far >> v & 1 or (rows := (adj[u], adj[v])) in tried:
                    continue
                tried.add(rows)
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
    the page-edge search is skipped.  `_orders`: as in `find_book_at_edge`.
    """
    orders = _orders if _orders is not None else _neighbor_orders(g)
    w = find_book_at_edge(g, x, y, s, k, _orders=orders)
    if w is not None or g.n < book_order(s, k):
        return w
    return _by_twin_key(_find_page_anchored, orders, x, y, s, k)


# ---------------------------------------------------------------------------
# whole-graph checks


def check_search_order(n: int) -> None:
    """Refuse, with ValueError, an exhaustive search on more than
    MAX_SEARCH_ORDER vertices."""
    if n > MAX_SEARCH_ORDER:
        raise ValueError(f"exhaustive search refused for n={n} > {MAX_SEARCH_ORDER}")


def is_book_free(g: Graph, s: int, k: int, _orders=None) -> tuple[bool, Witness | None]:
    """True iff the graph has no (s, k) odd-book subgraph; on False the
    witness is the first copy in edge-lexicographic search order.  Hosts
    over MAX_SEARCH_ORDER are refused here, and so by every whole-graph
    check: maximality and saturation start with this search."""
    check_book_parameters(s, k)
    check_search_order(g.n)
    orders = _orders if _orders is not None else _twin_orders(g)
    for u, v in g.edges():
        w = find_book_at_edge(g, u, v, s, k, _orders=orders)
        if w is not None:
            return False, Witness(s=s, k=k, mapping=w.mapping, anchor=None, probe=None)
    return True, None


def _free_non_edges(g: Graph, s: int, k: int) -> tuple[_Orders, list[tuple[int, int]]]:
    """Search state of g and its non-edges in lexicographic order, once g is
    certified free; raises NotBookFreeError with the first copy otherwise."""
    orders = _twin_orders(g)
    free, witness = is_book_free(g, s, k, _orders=orders)
    if not free:
        raise NotBookFreeError(witness)
    return orders, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                    if not g.has_edge(u, v)]


def _probe_chunk(args):
    g, s, k, pairs, orders = args
    if orders is None:
        orders = _twin_orders(g)
    return [
        (x, y)
        for x, y in pairs
        if find_book_using_edge(g, x, y, s, k, _orders=orders) is None
    ]


def is_maximal_book_free(
    g: Graph, s: int, k: int, workers: int = 1
) -> tuple[bool, list[tuple[int, int]]]:
    """Every non-edge must create a copy when added; failing non-edges are
    returned in lexicographic order.  Raises NotBookFreeError if the input
    already contains the pattern.  At most one process per CPU probes; the
    pool is imported only when more than one runs."""
    orders, non_edges = _free_non_edges(g, s, k)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(non_edges) > 4 * workers:
        from concurrent.futures import ProcessPoolExecutor
        chunks = [
            (g, s, k, non_edges[i::workers], None) for i in range(workers)
        ]
        failing: list[tuple[int, int]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_probe_chunk, chunks):
                failing.extend(part)
        failing.sort()
    else:
        failing = _probe_chunk((g, s, k, non_edges, orders))
    return not failing, failing


def saturate(g: Graph, s: int, k: int) -> tuple[Graph, list[tuple[int, int]]]:
    """Maximal book-free supergraph via one lexicographic pass.

    Each pair is added iff its addition creates no copy at probe time; a
    copy created by a rejected pair persists in every later supergraph, so
    a single pass already reaches the fixpoint.  The pass walks the
    non-edges of g: an edge is added only at the current pair, so every
    later pair is a non-edge then as it was in g.
    """
    out = g.copy()
    orders, non_edges = _free_non_edges(out, s, k)
    added: list[tuple[int, int]] = []
    for u, v in non_edges:
        if find_book_using_edge(out, u, v, s, k, _orders=orders) is None:
            orders.add_edge(u, v)
            added.append((u, v))
    return out, added
