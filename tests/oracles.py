"""Independent brute-force oracles the production search code is checked
against.  These deliberately share no machinery with the package: the
embedding enumerator walks pattern vertices generically, the biclique
oracle enumerates subsets, and the path oracle enumerates simple paths.
"""

from itertools import combinations

from oddbook.graph import Graph, bits, mask_of
from oddbook.pattern import build_odd_book


def _pattern_order_for_embedding(pat):
    """Pattern vertices arranged so each new vertex touches placed ones:
    hubs first, then each page from both ends inward."""
    order = [pat.hubs[0], pat.hubs[1]]
    for page in pat.pages:
        lo, hi = 0, len(page) - 1
        while lo <= hi:
            order.append(page[lo])
            if hi != lo:
                order.append(page[hi])
            lo += 1
            hi -= 1
    return order


def contains_book_naive(g: Graph, s: int, k: int) -> bool:
    """Generic injective-homomorphism backtracking over all embeddings."""
    pat = build_odd_book(s, k)
    pn = pat.graph.n
    if g.n < pn:
        return False
    order = _pattern_order_for_embedding(pat)
    pat_deg = [pat.graph.degree(v) for v in range(pn)]
    placed_adj = []  # pattern neighbors of order[i] among order[:i]
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        placed_adj.append([w for w in bits(pat.graph.adj[v]) if pos[w] < i])
    host_deg = [g.degree(v) for v in range(g.n)]
    image = [0] * pn

    def place(i: int, used: int) -> bool:
        if i == pn:
            return True
        v = order[i]
        cand = ~used & g.vertex_mask
        for w in placed_adj[i]:
            cand &= g.adj[image[w]]
        for hv in bits(cand):
            if host_deg[hv] < pat_deg[v]:
                continue
            image[v] = hv
            if place(i + 1, used | 1 << hv):
                return True
        return False

    return place(0, 0)


def max_biclique_brute(g: Graph) -> int:
    """Maximum induced complete bipartite subgraph by subset enumeration.
    One empty side is allowed, so independent sets count."""
    best = 0
    n = g.n
    for sub in range(1 << n):
        size = sub.bit_count()
        if size <= best:
            continue
        inside = [v for v in bits(sub)]
        edges = [(u, v) for i, u in enumerate(inside) for v in inside[i + 1 :] if g.has_edge(u, v)]
        if not edges:
            best = size
            continue
        # must be connected complete bipartite: 2-color within the subset
        color = {}
        stack = [inside[0]]
        color[inside[0]] = 0
        ok = True
        while stack and ok:
            u = stack.pop()
            for v in bits(g.adj[u] & sub):
                if v not in color:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    ok = False
                    break
        if not ok or len(color) != size:
            continue
        a = sum(1 for c in color.values() if c == 0)
        if len(edges) == a * (size - a):
            best = size
    return best


def longest_path_brute(g: Graph, cap: int | None = None) -> int:
    """Length (in vertices) of a longest simple path, exhaustive."""
    best = 0
    target = cap if cap is not None else g.n

    def extend(v, used, length):
        nonlocal best
        best = max(best, length)
        if best >= target:
            return
        for w in bits(g.adj[v] & ~used):
            extend(w, used | 1 << w, length + 1)

    for v in range(g.n):
        extend(v, 1 << v, 1)
        if best >= target:
            break
    return best


def disjoint_page_pair_exists(g: Graph, x: int, y: int, k: int) -> bool:
    """Two internally disjoint x-y paths of length 2k, by enumerating all
    such paths and testing pairwise interior disjointness."""
    length = 2 * k
    interiors = []

    def walk(v, used, depth, acc):
        if depth == length - 1:
            if g.has_edge(v, y):
                interiors.append(mask_of(acc))
            return
        for w in bits(g.adj[v] & ~used & ~(1 << y)):
            walk(w, used | 1 << w, depth + 1, acc + [w])

    walk(x, 1 << x | 1 << y, 0, [])
    for a, b in combinations(interiors, 2):
        if not a & b:
            return True
    return False


# The odd-book path kernel without walk masks or the layer bound.  The
# production kernel only prunes branches that yield nothing, so it must
# yield the same paths in the same order.


def neighbor_orders_ref(g: Graph) -> list[tuple[int, ...]]:
    deg = [row.bit_count() for row in g.adj]
    return [
        tuple(sorted(bits(row), key=lambda w: (deg[w], w))) for row in g.adj
    ]


def iter_paths_ref(adj, orders, start, goal, length, banned):
    """Interior tuples of start-goal paths with exactly `length` edges whose
    interiors avoid `banned`, in neighbor-order DFS order."""
    if length < 1:
        return
    if length == 1:
        if adj[start] >> goal & 1:
            yield ()
        return
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
        cand = adj[v] & ~used
        if not cand:
            return
        for w in orders[v]:
            if not cand >> w & 1:
                continue
            used_w = used | 1 << w
            if rem == 3 and not adj[w] & goal_adj & ~used_w:
                continue
            interior.append(w)
            yield from extend(w, rem - 1, used_w)
            interior.pop()

    yield from extend(start, length, banned | 1 << start | 1 << goal)


def find_pages_ref(adj, orders, h1, h2, count, length, banned):
    """First `count` interior-disjoint h1-h2 paths in DFS order, or None."""
    if count == 0:
        return []
    for interior in iter_paths_ref(adj, orders, h1, h2, length, banned):
        rest = find_pages_ref(
            adj, orders, h1, h2, count - 1, length, banned | mask_of(interior)
        )
        if rest is not None:
            return [interior] + rest
    return None
