"""Bitmask-backed undirected simple graphs.

Vertices are dense integers 0..n-1.  A vertex set is a plain Python int
used as a bitmask; helpers below convert between masks and iterables.
All query operations are pure; mutation goes through add_edge/delete_edge
so the adjacency stays symmetric and irreflexive.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Parse failure for a serialized graph; carries the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_mask(vertices: int | Iterable[int]) -> int:
    if isinstance(vertices, int):
        return vertices
    return mask_of(vertices)


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.adj: list[int] = [0] * n

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_adjacency(cls, adj: list[int]) -> "Graph":
        """Wrap prebuilt adjacency masks, validating symmetry/irreflexivity."""
        g = cls(len(adj))
        n = g.n
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {u} references vertices >= {n}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u, row in enumerate(adj):
            for v in bits(row):
                if not adj[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency at ({u}, {v})")
        g.adj = list(adj)
        return g

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g.adj = list(self.adj)
        return g

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range 0..{self.n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")

    def add_edge(self, u: int, v: int) -> None:
        self._check_pair(u, v)
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def delete_edge(self, u: int, v: int) -> None:
        self._check_pair(u, v)
        self.adj[u] &= ~(1 << v)
        self.adj[v] &= ~(1 << u)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> Iterator[int]:
        return bits(self.adj[u])

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            upper = self.adj[u] >> (u + 1)
            for off in bits(upper):
                yield u, u + 1 + off

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


def induced_subgraph(
    g: Graph, vertices: int | Iterable[int]
) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by a vertex set, plus the old->new relabeling."""
    mask = as_mask(vertices)
    if mask & ~g.vertex_mask:
        raise ValueError("vertex set not contained in 0..n-1")
    keep = list(bits(mask))
    relabel = {old: new for new, old in enumerate(keep)}
    sub = Graph(len(keep))
    for new, old in enumerate(keep):
        row = g.adj[old] & mask
        packed = 0
        for w in bits(row):
            packed |= 1 << relabel[w]
        sub.adj[new] = packed
    return sub, relabel


def non_edges_between(
    g: Graph, a: int | Iterable[int], b: int | Iterable[int]
) -> list[tuple[int, int]]:
    """Missing pairs of the bipartite complement between disjoint sets a, b."""
    amask = as_mask(a)
    bmask = as_mask(b)
    if amask & bmask:
        raise ValueError("vertex sets overlap")
    if (amask | bmask) & ~g.vertex_mask:
        raise ValueError("vertex set not contained in 0..n-1")
    out = []
    for u in bits(amask):
        missing = bmask & ~g.adj[u]
        for v in bits(missing):
            out.append((u, v))
    return out


def count_edges_between(g: Graph, a: int | Iterable[int], b: int | Iterable[int]) -> int:
    amask = as_mask(a)
    bmask = as_mask(b)
    if amask & bmask:
        raise ValueError("vertex sets overlap")
    return sum((g.adj[u] & bmask).bit_count() for u in bits(amask))


def is_independent(g: Graph, vertices: int | Iterable[int]) -> bool:
    mask = as_mask(vertices)
    return all(not (g.adj[u] & mask) for u in bits(mask))


def neighborhood(adj: list[int], mask: int) -> int:
    """Mask of the vertices adjacent to some vertex of `mask`."""
    reach = 0
    for v in bits(mask):
        reach |= adj[v]
    return reach


def bfs_layers(g: Graph, root: int, within: int | None = None) -> Iterator[int]:
    """BFS frontier masks inside `within`: {root}, then the vertices at
    distance 1, 2, ... from root.  Nothing when root is outside `within`."""
    scope = g.vertex_mask if within is None else within
    frontier = 1 << root & scope
    seen = frontier
    while frontier:
        yield frontier
        frontier = neighborhood(g.adj, frontier) & scope & ~seen
        seen |= frontier


def two_coloring(g: Graph, within: int | None = None) -> tuple[int, int] | None:
    """Deterministic BFS 2-coloring; None when an odd cycle exists.

    Restricted to the `within` mask when given.  Each component's even BFS
    layers from its smallest vertex form side 0 and its odd layers side 1,
    so isolated vertices all end up on side 0.  An edge joins layers at
    most one apart, so the coloring is proper exactly when each side is
    independent.
    """
    scope = g.vertex_mask if within is None else within
    sides = [0, 0]
    for root in bits(scope):
        if (sides[0] | sides[1]) >> root & 1:
            continue
        for d, layer in enumerate(bfs_layers(g, root, scope)):
            sides[d & 1] |= layer
    if not (is_independent(g, sides[0]) and is_independent(g, sides[1])):
        return None
    return sides[0], sides[1]


def find_odd_cycle(g: Graph, within: int | None = None) -> list[int] | None:
    """Vertices of some odd cycle (BFS conflict cycle), or None if bipartite."""
    scope = g.vertex_mask if within is None else within
    side = {}
    parent = {}
    for root in bits(scope):
        if root in side:
            continue
        side[root] = 0
        parent[root] = -1
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in bits(g.adj[u] & scope):
                if v not in side:
                    side[v] = side[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif side[v] == side[u] and v != parent[u]:
                    anc_u = []
                    x = u
                    while x != -1:
                        anc_u.append(x)
                        x = parent[x]
                    seen = {x: i for i, x in enumerate(anc_u)}
                    x = v
                    tail = []
                    while x not in seen:
                        tail.append(x)
                        x = parent[x]
                    return anc_u[: seen[x] + 1] + tail[::-1]
    return None


def bfs_distances(g: Graph, source: int, allowed: int | None = None) -> list[int]:
    """BFS distances from source; unreachable vertices get n (an upper bound+1)."""
    dist = [g.n or 1] * g.n
    for d, layer in enumerate(bfs_layers(g, source, allowed)):
        for u in bits(layer):
            dist[u] = d
    return dist


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Component vertex masks, ordered by smallest contained vertex."""
    remaining = g.vertex_mask if within is None else within
    comps = []
    while remaining:
        root = (remaining & -remaining).bit_length() - 1
        comp = 0
        for layer in bfs_layers(g, root, remaining):
            comp |= layer
        comps.append(comp)
        remaining &= ~comp
    return comps


# ---------------------------------------------------------------------------
# small graph factories


def complete_graph(n: int) -> Graph:
    g = Graph(n)
    full = (1 << n) - 1
    for v in range(n):
        g.adj[v] = full & ~(1 << v)
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with left side 0..a-1 and right side a..a+b-1."""
    g = Graph(a + b)
    left = (1 << a) - 1
    right = ((1 << (a + b)) - 1) ^ left
    for v in range(a):
        g.adj[v] = right
    for v in range(a, a + b):
        g.adj[v] = left
    return g


def cycle_graph(n: int) -> Graph:
    g = Graph(n)
    if n >= 3:
        for v in range(n):
            g.add_edge(v, (v + 1) % n)
    elif n == 2:
        g.add_edge(0, 1)
    return g


def path_graph(n: int) -> Graph:
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def random_graph(n: int, p: float, rng) -> Graph:
    """G(n, p) drawn from a random.Random-like rng."""
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# graph6 codec (bit-exact conformance to the published format)

_G6_MAX_ENCODE = 1 << 18


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    out = [126, 126]
    for shift in range(30, -1, -6):
        out.append((n >> shift & 63) + 63)
    return bytes(out)


def encode_graph6(g: Graph) -> str:
    """Encode to graph6 text (no trailing newline)."""
    n = g.n
    if n > _G6_MAX_ENCODE:
        raise ValueError(f"graph6 encoding capped at n <= {_G6_MAX_ENCODE}")
    chunks = [_g6_header(n)]
    acc = 0
    nbits = 0
    body = bytearray()
    for col in range(1, n):
        row_bits = g.adj[col]
        for ro in range(col):
            acc = acc << 1 | (row_bits >> ro & 1)
            nbits += 1
            if nbits == 6:
                body.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        body.append((acc << (6 - nbits)) + 63)
    chunks.append(bytes(body))
    return b"".join(chunks).decode("ascii")


def decode_graph6(text: str | bytes) -> Graph:
    """Decode graph6 text; an optional '>>graph6<<' prefix is accepted."""
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
    adj = g.adj
    # bits run down the columns of the upper triangle: (0,1), (0,2), (1,2), ...
    row, col = 0, 1
    for i in range(nbytes):
        c = data[pos + i] - 63
        if c < 0 or c > 63:
            raise GraphFormatError("invalid byte in graph6 bit vector", pos + i)
        for shift in range(5, -1, -1):
            if col == n:
                if c >> shift & 1:
                    raise GraphFormatError("nonzero padding in graph6 bit vector", pos + i)
                continue
            if c >> shift & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            row += 1
            if row == col:
                row, col = 0, col + 1
    return g


# ---------------------------------------------------------------------------
# plain edge-list text format: header "n m", then one "u v" line per edge


def encode_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("edge-list header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad edge-list header: {exc}") from None
    if n < 0:
        raise GraphFormatError(f"negative vertex count in edge-list header: {n}")
    if len(lines) - 1 != m:
        raise GraphFormatError(
            f"edge-list declares {m} edges but has {len(lines) - 1} edge lines"
        )
    g = Graph(n)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in edge line: {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range 0..{n - 1}: {ln!r}")
        if u == v:
            raise GraphFormatError(f"self-loop: {ln!r}")
        if g.has_edge(u, v):
            raise GraphFormatError(f"duplicate edge: {ln!r}")
        g.add_edge(u, v)
    return g
