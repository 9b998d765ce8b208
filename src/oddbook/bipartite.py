"""Induced-complete-bipartite analysis: exact maximum bicliques, the
two-sides-plus-exceptionals partition, and constrained path finders.

An induced biclique here is a pair of disjoint vertex sets, each
independent, with every cross pair adjacent; one side may be empty, so an
independent set counts as a degenerate biclique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .freeness import _iter_paths, _Orders, check_search_order
from .graph import (
    Graph,
    bits,
    connected_components,
    find_odd_cycle,
    first_edge_within,
    induced_subgraph,
    is_independent,
    mask_of,
    twin_classes,
    two_coloring,
)


@dataclass(frozen=True)
class Biclique:
    left: int
    right: int

    @property
    def size(self) -> int:
        return self.left.bit_count() + self.right.bit_count()

    @property
    def vertices(self) -> int:
        return self.left | self.right

    def to_json(self) -> dict:
        return {
            "left": list(bits(self.left)),
            "right": list(bits(self.right)),
            "size": self.size,
        }


def validate_biclique(g: Graph, b: Biclique) -> bool:
    """Independent re-check: disjoint sides, both independent, all cross
    pairs adjacent (so the union induces exactly a complete bipartite graph)."""
    if b.left & b.right:
        return False
    if (b.left | b.right) & ~g.vertex_mask:
        return False
    if not is_independent(g, b.left) or not is_independent(g, b.right):
        return False
    for u in bits(b.left):
        if b.right & ~g.adj[u]:
            return False
    return True


# ---------------------------------------------------------------------------
# exact maximum induced complete bipartite subgraph


@dataclass
class BicliqueSearch:
    best: Biclique
    optimal: bool
    nodes: int
    upper_bound: int
    budget: int

    def to_json(self) -> dict:
        return {
            "biclique": self.best.to_json(),
            "optimal": self.optimal,
            "nodes": self.nodes,
            "upper_bound": self.upper_bound,
            "budget": self.budget,
        }


def greedy_biclique(g: Graph) -> Biclique:
    """Deterministic greedy seed: grow from every start vertex, assign each
    chosen candidate to the side keeping the most future candidates.

    The left and right candidate sets are disjoint, so with d the number of
    u's neighbors among left candidates minus those among right candidates,
    u keeps |cand_r| - 1 + d candidates when it joins the right side and
    |cand_l| - 1 - d when it joins the left; ties go to the smallest u.  A
    start stops once its size plus its candidates cannot beat the incumbent,
    which is replaced only by a strictly larger biclique.

    Each step places a whole false-twin class, scored by its first vertex.
    This makes the picks of the one-vertex greedy: once u is picked, each
    twin of u that is left has u's row, so it scores |cand| - 1, the most
    possible, and taking it lowers every other score by one.  So that
    greedy takes the rest of u's class before any other pick (ties with
    other such free vertices commute), and size + |cand| stays constant
    meanwhile.  Every other pick is therefore made at a state made of whole
    classes, and a start from a later twin reaches the same state as the
    earlier twin's start.  The picks from a state depend only on the
    unordered pair {cand_l, cand_r}: swapping the two sets swaps keep_l and
    keep_r and negates d, so every score stays.  A start that reaches a
    pair already visited at a size at least its own therefore ends no
    larger than that visit, which ended at or below the incumbent, because
    size + |cand| never grows along a start; it stops.
    """
    adj = g.adj
    twins = [0] * g.n  # the false-twin class of each vertex
    firsts = 0  # the first vertex of each class
    for group in twin_classes(g):
        cls = mask_of(group)
        for v in group:
            twins[v] = cls
        firsts |= 1 << group[0]
    seen: dict[tuple[int, int], int] = {}  # candidate pair -> largest size
    best = Biclique(0, 0)
    best_size = 0
    for v0 in sorted(bits(firsts), key=lambda v: (-g.degree(v), v)):
        left, right = twins[v0], 0
        size = left.bit_count()
        cand_l = ~adj[v0] & g.vertex_mask & ~left
        cand_r = adj[v0]
        while True:
            cand = cand_l | cand_r
            if size + cand.bit_count() <= best_size:
                break
            if not cand:
                best, best_size = Biclique(left, right), size
                break
            pair = (cand_l, cand_r) if cand_l < cand_r else (cand_r, cand_l)
            if seen.get(pair, 0) >= size:
                break
            seen[pair] = size
            keep_l = cand_l.bit_count() - 1
            keep_r = cand_r.bit_count() - 1
            top = -1
            for u in bits(cand & firsts):
                row = adj[u]
                d = (cand_l & row).bit_count() - (cand_r & row).bit_count()
                score = keep_r + d if cand_r >> u & 1 else keep_l - d
                if score > top:
                    top, pick = score, u
            cls = twins[pick]
            row = adj[pick]
            if cand_r & cls:
                right |= cls
                cand_l &= row
                cand_r &= ~row & ~cls
            else:
                left |= cls
                cand_l &= ~row & ~cls
                cand_r &= row
            size += cls.bit_count()
    return best


def max_induced_complete_bipartite(
    g: Graph, budget: int = 10 ** 7
) -> BicliqueSearch:
    """Exact branch and bound over side-assignment decisions.

    Each decision places or drops a whole false-twin class, so the
    candidate sets stay unions of whole classes and a set's popcount is
    the weight of its classes.  This is lossless: a class is independent,
    and lies wholly inside one side of some maximum biclique or wholly
    outside it.  The bound is the committed size plus the
    popcount of all candidates still consistent with a side.  Each node
    branches on the heaviest open class, ties to the class with the
    smallest first vertex: the vertices are relabeled once so that the
    classes run contiguously in that canonical order, so the branching
    class is the one holding the lowest set bit, and the node order is that
    of a search over the weighted quotient.  The node count is part of the
    output: these choices change the cost of a node, never which nodes are
    visited.  When the node budget runs out the incumbent is returned with
    optimal=False and upper_bound covering every open node.  Hosts above
    MAX_SEARCH_ORDER vertices are refused: the budget bounds only the
    branch and bound, and the greedy seed before it grows about as the
    number of twin classes cubed.
    """
    check_search_order(g.n)
    if g.n == 0:
        return BicliqueSearch(
            best=Biclique(0, 0), optimal=True, nodes=0, upper_bound=0, budget=budget
        )
    classes = sorted(twin_classes(g), key=lambda c: -len(c))
    order = [v for c in classes for v in c]  # canonical id -> vertex
    label = {v: i for i, v in enumerate(order)}
    adj = [0] * g.n  # rows over canonical ids
    twins = [0] * g.n  # the class of each canonical id
    for c in classes:
        row = mask_of(label[w] for w in bits(g.adj[c[0]]))
        cls = mask_of(label[v] for v in c)
        for v in c:
            adj[label[v]], twins[label[v]] = row, cls

    best = greedy_biclique(g)
    best_size = best.size
    nodes = 0
    full = g.vertex_mask

    # stack entries over canonical ids: (left, right, cand_left, cand_right, size)
    stack: list[tuple[int, int, int, int, int]] = [(0, 0, full, full, 0)]
    while stack and nodes < budget:
        nodes += 1
        left, right, cl, cr, size = stack.pop()
        cu = cl | cr
        if size + cu.bit_count() <= best_size:
            continue
        if not cu:
            best = Biclique(*[mask_of(order[i] for i in bits(side)) for side in (left, right)])
            best_size = size
            continue
        v = (cu & -cu).bit_length() - 1
        cls = twins[v]
        adj_v = adj[v]
        grown = size + cls.bit_count()
        # exclude branch first so assignment branches pop first (DFS
        # dives toward large bicliques early)
        stack.append((left, right, cl & ~cls, cr & ~cls, size))
        if cr & cls and (left or right):
            stack.append((left, right | cls, cl & adj_v, cr & ~adj_v & ~cls, grown))
        if cl & cls:
            stack.append((left | cls, right, cl & ~adj_v & ~cls, cr & adj_v, grown))

    # a nonempty stack means the budget ran out; its open nodes bound the rest
    upper = max([best_size] + [size + (cl | cr).bit_count() for _, _, cl, cr, size in stack])
    return BicliqueSearch(
        best=best, optimal=not stack, nodes=nodes, upper_bound=upper, budget=budget
    )


# ---------------------------------------------------------------------------
# (left, right, exceptional) partition with greedy cleanup


@dataclass(frozen=True)
class CorePartition:
    left: int
    right: int
    exceptional: int
    h: int

    def to_json(self) -> dict:
        return {
            "left": list(bits(self.left)),
            "right": list(bits(self.right)),
            "exceptional": list(bits(self.exceptional)),
            "h": self.h,
        }


@dataclass
class PartitionTrace:
    method: str
    moves: list[tuple[str, int, int]] = field(default_factory=list)  # (side, trigger, moved mask)


_MAX_CUT_STARTS = 4


def max_cut_bipartition(g: Graph, seed: int = 0) -> tuple[int, int]:
    """Seeded local-search max cut: single-vertex flips to a local optimum,
    best of _MAX_CUT_STARTS starts.  Deterministic for a fixed seed."""
    rng = random.Random(seed)
    best_sides = None
    best_cut = -1
    for _ in range(_MAX_CUT_STARTS):
        side = [rng.randrange(2) for _ in range(g.n)]
        masks = [0, 0]
        for v, sd in enumerate(side):
            masks[sd] |= 1 << v
        improved = True
        while improved:
            improved = False
            for v in range(g.n):
                sd = side[v]
                same = (g.adj[v] & masks[sd]).bit_count()
                cross = (g.adj[v] & masks[sd ^ 1]).bit_count()
                if same > cross:
                    masks[sd] &= ~(1 << v)
                    masks[sd ^ 1] |= 1 << v
                    side[v] = sd ^ 1
                    improved = True
        cut = sum((g.adj[v] & masks[side[v] ^ 1]).bit_count() for v in range(g.n)) // 2
        if cut > best_cut:
            best_cut = cut
            best_sides = tuple(masks)
    m0, m1 = best_sides
    if m1 and (not m0 or next(bits(m1)) < next(bits(m0))):
        m0, m1 = m1, m0
    return m0, m1


def greedy_odd_cycle_transversal(g: Graph) -> int:
    """Vertices whose removal leaves a bipartite graph: repeatedly find an
    odd cycle and drop its minimum-degree vertex (ties to the smaller id).
    Deterministic; not minimum, but small on nearly bipartite graphs."""
    return _odd_cycle_transversal(g, g.n)


def _odd_cycle_transversal(g: Graph, cap: int) -> int:
    """The greedy transversal, or its first cap + 1 vertices once it
    grows past `cap`."""
    removed = 0
    scope = g.vertex_mask
    for _ in range(cap + 1):
        cyc = find_odd_cycle(g, within=scope)
        if cyc is None:
            break
        victim = min(cyc, key=lambda v: (g.degree(v), v))
        scope &= ~(1 << victim)
        removed |= 1 << victim
    return removed


def build_uvt_partition(
    g: Graph, h: int, seed: int = 0
) -> tuple[CorePartition, PartitionTrace]:
    """Partition into two sides plus an exceptional set such that every
    exceptional vertex has, toward each side, either no neighbor or more
    than h of them.

    The initial split: a greedy odd-cycle transversal becomes the
    exceptional candidate set and the bipartite remainder is 2-colored; on
    a bipartite graph the transversal is empty and this is the plain
    2-coloring.  When the transversal exceeds n/3 the graph is nowhere near
    bipartite and a seeded local-search max cut is used instead, with
    overloaded vertices (more than h same-side neighbors) moved to the
    exceptional set; the transversal stops as soon as it passes n/3.

    Then greedily: while an exceptional vertex has between 1 and h
    neighbors in a side, that whole neighborhood moves to the exceptional
    set.  Each move shrinks the sides, so this terminates.
    """
    exceptional = _odd_cycle_transversal(g, g.n // 3)
    if 3 * exceptional.bit_count() <= g.n:
        left, right = two_coloring(g, within=g.vertex_mask & ~exceptional)
        method = "transversal" if exceptional else "two-coloring"
    else:
        side0, side1 = max_cut_bipartition(g, seed=seed)
        exceptional = 0
        for v in range(g.n):
            own = side0 if side0 >> v & 1 else side1
            if (g.adj[v] & own).bit_count() >= h + 1:
                exceptional |= 1 << v
        left = side0 & ~exceptional
        right = side1 & ~exceptional
        method = "max-cut"

    trace = PartitionTrace(method=method)

    sides = [left, right]
    progress = True
    while progress:
        progress = False
        for i, side_name in enumerate(("left", "right")):
            while True:
                trigger = None
                for x in bits(exceptional):
                    d = (g.adj[x] & sides[i]).bit_count()
                    if 1 <= d <= h:
                        trigger = x
                        break
                if trigger is None:
                    break
                moved = g.adj[trigger] & sides[i]
                sides[i] &= ~moved
                exceptional |= moved
                trace.moves.append((side_name, trigger, moved))
                progress = True
    part = CorePartition(left=sides[0], right=sides[1], exceptional=exceptional, h=h)
    return part, trace


# ---------------------------------------------------------------------------
# parity-constrained and long paths


def find_parity_path(
    g: Graph,
    u: int,
    v: int,
    length: int,
    sides: tuple[int, int],
    avoid: int = 0,
) -> list[int] | None:
    """Path of exactly `length` edges from u to v whose interior avoids
    `avoid`, in a bipartite graph with the given sides.

    The requested length must match the parity forced by the endpoints'
    sides (odd across sides, even within a side); mismatches are rejected.
    Exhaustive search on the odd-book path kernel, neighbors in ascending
    id order, so the path returned is the lexicographically first one.
    """
    side0, side1 = sides
    if side0 & side1 or (side0 | side1) != g.vertex_mask:
        raise ValueError("sides must partition the vertex set")
    if any(first_edge_within(g, side) for side in sides):
        raise ValueError("graph is not bipartite for the given sides")
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"endpoints ({u}, {v}) must be two distinct vertices of g")
    if length < 2:
        raise ValueError("length must be at least 2")
    cross = (side0 >> u & 1) != (side0 >> v & 1)
    if cross != bool(length % 2):
        want = "odd" if cross else "even"
        raise ValueError(
            f"parity mismatch: endpoints force an {want} length, got {length}"
        )
    # the endpoints themselves may be listed in `avoid`
    banned = avoid & ~(1 << u | 1 << v)
    orders = _Orders(g)
    orders.deg = [0] * g.n  # rows sort by (0, id): ascending id order
    interior = next(_iter_paths(orders, u, v, length, banned), None)
    return None if interior is None else [u, *interior, v]


@dataclass
class LongPathResult:
    path: list[int] | None
    density_guarantee: bool


def find_long_path(g: Graph, min_vertices: int) -> LongPathResult:
    """Path on at least `min_vertices` vertices.

    A bounded DFS with degree-ordered extension runs first.  When the edge
    count exceeds (min_vertices-2)*n/2 the classical density argument
    guarantees such a path exists; in that regime a constructive fallback
    (low-degree peeling, then rotation-extension inside a dense component)
    always produces one.
    """
    n = g.n
    guarantee = 2 * g.num_edges() > (min_vertices - 2) * n
    if min_vertices <= 1:
        return LongPathResult([0] if n else None, density_guarantee=guarantee)
    path = _dfs_long_path(g, min_vertices)
    if path is None and guarantee:
        path = _density_long_path(g, min_vertices)
        if path is None or len(path) < min_vertices:
            raise RuntimeError(
                f"density guarantee broken: {g.num_edges()} edges on {n} "
                f"vertices but no path on {min_vertices} vertices was built"
            )
    return LongPathResult(path, density_guarantee=guarantee)


def _dfs_long_path(g: Graph, target: int, budget: int = 20000) -> list[int] | None:
    starts = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    expansions = 0
    for start in starts:
        stack = [(start, 1 << start, (start,))]
        while stack and expansions < budget:
            expansions += 1
            v, used, path = stack.pop()
            if len(path) >= target:
                return list(path)
            nxt = sorted(bits(g.adj[v] & ~used), key=lambda w: (g.degree(w), w))
            for w in reversed(nxt):
                stack.append((w, used | 1 << w, path + (w,)))
        if expansions >= budget:
            break
    return None


def _density_long_path(g: Graph, target: int) -> list[int] | None:
    # peel low-degree vertices; the density invariant survives each removal
    alive = g.vertex_mask
    deg = [g.degree(v) for v in range(g.n)]
    floor = (target - 2) // 2
    changed = True
    while changed:
        changed = False
        for v in bits(alive):
            if deg[v] <= floor:
                alive &= ~(1 << v)
                for w in bits(g.adj[v] & alive):
                    deg[w] -= 1
                changed = True
    if not alive:
        return None
    best_comp = None
    best_ratio = None
    for comp in connected_components(g, within=alive):
        edges = sum((g.adj[v] & comp).bit_count() for v in bits(comp)) // 2
        ratio = Fraction(edges, comp.bit_count())
        if best_ratio is None or ratio > best_ratio:
            best_ratio = ratio
            best_comp = comp
    comp = best_comp
    sub, relabel = induced_subgraph(g, comp)
    back = {new: old for old, new in relabel.items()}
    path = _rotation_extension(sub, target)
    if path is None:
        return None
    return [back[v] for v in path]


def _rotation_extension(g: Graph, target: int) -> list[int] | None:
    """Inside a connected graph with min degree above (target-2)/2, grow a
    maximal path; while it is short, rotate it into a cycle (pigeonhole on
    endpoint neighborhoods) and extend through any outside attachment."""
    n = g.n
    start = max(range(n), key=lambda v: (g.degree(v), -v))
    path = [start]
    in_path = 1 << start

    def extend_ends():
        nonlocal in_path
        grown = True
        while grown:
            grown = False
            for end, append in ((path[-1], True), (path[0], False)):
                free = g.adj[end] & ~in_path
                if free:
                    w = next(bits(free))
                    if append:
                        path.append(w)
                    else:
                        path.insert(0, w)
                    in_path |= 1 << w
                    grown = True

    extend_ends()
    while len(path) < min(target, n):
        head, tail = path[0], path[-1]
        m = len(path)
        rotated = False
        for i in range(1, m):
            # head ~ path[i] and tail ~ path[i-1] closes a cycle on the path
            if g.has_edge(head, path[i]) and g.has_edge(tail, path[i - 1]):
                cycle = path[:i] + path[i:][::-1]
                out = _attach_outside(g, cycle, in_path)
                if out is None:
                    # connectivity: the cycle already covers the component
                    path[:] = cycle
                    return path if len(path) >= target else None
                y, pos = out
                # break the cycle next to the attachment and append y
                path[:] = cycle[pos + 1 :] + cycle[: pos + 1] + [y]
                in_path |= 1 << y
                extend_ends()
                rotated = True
                break
        if not rotated:
            break
    return path if len(path) >= target else None


def _attach_outside(g: Graph, cycle: list[int], in_path: int):
    for pos, z in enumerate(cycle):
        free = g.adj[z] & ~in_path
        if free:
            return next(bits(free)), pos
    return None


def truncate_into_disjoint_paths(
    path: list[int],
    count: int,
    each_length: int,
    side: int,
) -> list[list[int]]:
    """Slice an alternating path into `count` vertex-disjoint subpaths of
    `each_length` edges whose endpoints lie in `side`."""
    for name, value in (("count", count), ("each_length", each_length)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    out: list[list[int]] = []
    i = 0
    n = len(path)
    while len(out) < count:
        while i < n and not side >> path[i] & 1:
            i += 1
        if i + each_length >= n:
            raise ValueError(
                f"path too short: got {len(out)} of {count} segments of "
                f"length {each_length} from {n} vertices"
            )
        segment = path[i : i + each_length + 1]
        if not side >> segment[-1] & 1:
            raise ValueError(
                f"alignment failure: segment ending at position {i + each_length} "
                "does not end in the requested side"
            )
        out.append(segment)
        i += each_length + 1
    return out
