"""Independent brute-force oracles the production search code is checked
against.  These deliberately share no machinery with the package: the
embedding enumerator walks pattern vertices generically, the biclique
oracle enumerates subsets, and the path oracle enumerates simple paths.
"""

from itertools import combinations

from oddbook.bipartite import Biclique, BicliqueSearch
from oddbook.graph import Graph, GraphFormatError, bits, mask_of
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


def find_book_using_edge_ref(g: Graph, x: int, y: int, s: int, k: int):
    """(mapping, anchor) of the first copy in G+xy that uses the pair, in the
    order of the three anchored searches, built on the unpruned kernel."""
    adj, orders = g.adj, neighbor_orders_ref(g)
    deg = [row.bit_count() for row in adj]
    if deg[x] >= s and deg[y] >= s:
        pages = find_pages_ref(adj, orders, x, y, s, 2 * k, 0)
        if pages is not None:
            return (x, y) + sum(pages, ()), "hub-hub"
    for hub, end in ((x, y), (y, x)):
        if deg[hub] < s or deg[end] < 1:
            continue
        for other in orders[hub]:
            if other == end or deg[other] < s + 1:
                continue
            for tail in iter_paths_ref(adj, orders, end, other, 2 * k - 1, 1 << hub):
                first = (end,) + tail
                rest = find_pages_ref(adj, orders, hub, other, s - 1, 2 * k, mask_of(first))
                if rest is not None:
                    return (hub, other) + first + sum(rest, ()), "hub-page"
    pair = 1 << x | 1 << y
    for r in range(1, 2 * k - 1):
        for u in range(g.n):
            if pair >> u & 1 or deg[u] < s + 1:
                continue
            for v in orders[u]:
                if pair >> v & 1 or deg[v] < s + 1:
                    continue
                for seg1 in iter_paths_ref(adj, orders, u, x, r, 1 << v | 1 << y):
                    used = mask_of(seg1) | 1 << u | 1 << x
                    for seg2 in iter_paths_ref(adj, orders, y, v, 2 * k - 1 - r, used):
                        rest = find_pages_ref(
                            adj, orders, u, v, s - 1, 2 * k,
                            mask_of(seg1) | mask_of(seg2) | pair,
                        )
                        if rest is not None:
                            page = seg1 + (x, y) + seg2
                            return (u, v) + page + sum(rest, ()), "page-interior"
    return None


# The biclique greedy seed and branch and bound as they were before the
# canonical class order, the bit-plane weights and the greedy bound.  The
# production search only makes each node cheaper, so it must return the
# same biclique, node count and upper bound for every budget.


def greedy_biclique_ref(g: Graph) -> Biclique:
    best = Biclique(0, 0)
    starts = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for v0 in starts:
        left = 1 << v0
        right = 0
        cand_l = ~g.adj[v0] & g.vertex_mask & ~left
        cand_r = g.adj[v0]
        while cand_l | cand_r:
            pick = None
            for u in bits(cand_l | cand_r):
                score = -1
                side = None
                if cand_r >> u & 1:
                    nl = cand_l & g.adj[u] & ~(1 << u)
                    nr = cand_r & ~g.adj[u] & ~(1 << u)
                    score = (nl | nr).bit_count()
                    side = "r"
                if cand_l >> u & 1:
                    nl = cand_l & ~g.adj[u] & ~(1 << u)
                    nr = cand_r & g.adj[u] & ~(1 << u)
                    sc = (nl | nr).bit_count()
                    if sc > score:
                        score = sc
                        side = "l"
                if pick is None or score > pick[0]:
                    pick = (score, u, side)
            _, u, side = pick
            if side == "l":
                left |= 1 << u
                cand_l &= ~g.adj[u]
                cand_r &= g.adj[u]
            else:
                right |= 1 << u
                cand_l &= g.adj[u]
                cand_r &= ~g.adj[u]
            cand_l &= ~(1 << u)
            cand_r &= ~(1 << u)
        if left.bit_count() + right.bit_count() > best.size:
            best = Biclique(left, right)
    return best


def max_induced_complete_bipartite_ref(g: Graph, budget: int = 10 ** 7) -> BicliqueSearch:
    if g.n == 0:
        return BicliqueSearch(Biclique(0, 0), True, 0, 0, budget)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    classes = list(groups.values())
    m = len(classes)
    weight = [len(c) for c in classes]
    cmask = [mask_of(c) for c in classes]
    reps = [c[0] for c in classes]
    qadj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if g.adj[reps[i]] >> reps[j] & 1:
                qadj[i] |= 1 << j
                qadj[j] |= 1 << i

    def wsum(mask: int) -> int:
        return sum(weight[i] for i in bits(mask))

    def expand(class_mask: int) -> int:
        return mask_of(v for i in bits(class_mask) for v in bits(cmask[i]))

    best = greedy_biclique_ref(g)
    best_size = best.size
    nodes = 0
    aborted = False
    open_bound = 0
    full = (1 << m) - 1
    stack = [(0, 0, full, full)]
    while stack:
        if nodes >= budget:
            aborted = True
            for left, right, cl, cr in stack:
                open_bound = max(open_bound, wsum(left) + wsum(right) + wsum(cl | cr))
            break
        nodes += 1
        left, right, cl, cr = stack.pop()
        cu = cl | cr
        size = wsum(left) + wsum(right)
        if size + wsum(cu) <= best_size:
            continue
        if not cu:
            if size > best_size:
                best = Biclique(expand(left), expand(right))
                best_size = size
            continue
        v = max(bits(cu), key=lambda i: (weight[i], -i))
        vbit = 1 << v
        stack.append((left, right, cl & ~vbit, cr & ~vbit))
        if cr >> v & 1 and (left or right):
            stack.append((left, right | vbit, cl & qadj[v], cr & ~qadj[v] & ~vbit))
        if cl >> v & 1:
            stack.append((left | vbit, right, cl & ~qadj[v] & ~vbit, cr & qadj[v]))
    upper = best_size if not aborted else max(best_size, open_bound)
    return BicliqueSearch(best, not aborted, nodes, upper, budget)


# The graph6 decoder as it was before it walked the bit vector in order:
# it placed each set bit by a binary search for its column.


def decode_graph6_ref(text: str | bytes) -> Graph:
    if isinstance(text, str):
        data = text.strip().encode("ascii")
    else:
        data = bytes(text).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise GraphFormatError("empty graph6 input", 0)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise GraphFormatError("truncated graph6 size header", len(data))
            vals = [data[i] - 63 for i in range(2, 8)]
            pos = 8
        else:
            if len(data) < 4:
                raise GraphFormatError("truncated graph6 size header", len(data))
            vals = [data[i] - 63 for i in range(1, 4)]
            pos = 4
        if any(v < 0 or v > 63 for v in vals):
            raise GraphFormatError("invalid byte in graph6 size header", pos - 1)
        n = 0
        for v in vals:
            n = n << 6 | v
    else:
        n = data[0] - 63
        if n < 0 or n > 62:
            raise GraphFormatError("invalid graph6 size byte", 0)
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphFormatError(
            f"truncated graph6 bit vector: need {nbytes} bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise GraphFormatError("trailing bytes after graph6 bit vector", pos + nbytes)
    g = Graph(n)
    bit = 0
    for i in range(nbytes):
        c = data[pos + i] - 63
        if c < 0 or c > 63:
            raise GraphFormatError("invalid byte in graph6 bit vector", pos + i)
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if c >> shift & 1:
                    raise GraphFormatError("nonzero padding in graph6 bit vector", pos + i)
                continue
            if c >> shift & 1:
                col = _g6_column_ref(bit, n)
                row = bit - col * (col - 1) // 2
                g.add_edge(row, col)
            bit += 1
    return g


def _g6_column_ref(bit_index: int, n: int) -> int:
    # column c covers bit positions [c(c-1)/2, c(c+1)/2)
    lo, hi = 1, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * (mid + 1) // 2 > bit_index:
            hi = mid
        else:
            lo = mid + 1
    return lo


# The BFS helpers as they were before they shared one frontier generator:
# a per-vertex queue for the coloring and hand-rolled frontier loops for the
# distances and the components.


def two_coloring_ref(g: Graph, within: int | None = None) -> tuple[int, int] | None:
    scope = g.vertex_mask if within is None else within
    side = [-1] * g.n
    for root in bits(scope):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in bits(g.adj[u] & scope):
                    if side[v] == -1:
                        side[v] = side[u] ^ 1
                        nxt.append(v)
                    elif side[v] == side[u]:
                        return None
            queue = nxt
    mask0 = mask_of(v for v in bits(scope) if side[v] == 0)
    return mask0, scope & ~mask0


def bfs_distances_ref(g: Graph, source: int, allowed: int | None = None) -> list[int]:
    inf = g.n if g.n else 1
    dist = [inf] * g.n
    if allowed is None:
        allowed = g.vertex_mask
    if not allowed >> source & 1:
        return dist
    dist[source] = 0
    frontier = 1 << source
    seen = frontier
    d = 0
    while frontier:
        reach = 0
        for u in bits(frontier):
            reach |= g.adj[u]
        frontier = reach & allowed & ~seen
        seen |= frontier
        d += 1
        for u in bits(frontier):
            dist[u] = d
    return dist


def connected_components_ref(g: Graph, within: int | None = None) -> list[int]:
    remaining = g.vertex_mask if within is None else within
    comps = []
    while remaining:
        root = (remaining & -remaining).bit_length() - 1
        comp = 1 << root
        frontier = comp
        while frontier:
            reach = 0
            for u in bits(frontier):
                reach |= g.adj[u]
            frontier = reach & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps
