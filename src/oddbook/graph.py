"""Bitmask-backed undirected simple graphs.

Vertices are dense integers 0..n-1.  A vertex set is a plain Python int
used as a bitmask; helpers below convert between masks and iterables.
All query operations are pure; mutation goes through add_edge/delete_edge
so the adjacency stays symmetric and irreflexive.
"""

from __future__ import annotations

import base64
import functools
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

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by a vertex mask, plus the old->new relabeling."""
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


def first_edge_within(g: Graph, mask: int) -> tuple[int, int] | None:
    """Lexicographically first edge (u, v), u < v, with both ends in `mask`,
    or None when `mask` is independent.  The first vertex u with a neighbor
    inside `mask` has none below it there, so v is its smallest one."""
    for u in bits(mask):
        inside = g.adj[u] & mask
        if inside:
            return u, (inside & -inside).bit_length() - 1
    return None


def is_independent(g: Graph, mask: int) -> bool:
    return first_edge_within(g, mask) is None


def neighborhood(adj: list[int], mask: int) -> int:
    """Mask of the vertices adjacent to some vertex of `mask`."""
    reach = 0
    while mask:
        low = mask & -mask
        reach |= adj[low.bit_length() - 1]
        mask ^= low
    return reach


def _layered_bfs(
    g: Graph, scope: int
) -> tuple[tuple[int, int] | None, dict[int, int], tuple[int, int] | None]:
    """FIFO BFS of each component of `scope` from its smallest vertex, which
    puts the even layers on side 0 and the odd ones on side 1.  Returns
    (sides, parent, None), or (None, parent, (u, v)) at the first edge
    inside a layer: u is the first vertex in queue order with a neighbor on
    its own side, v its smallest such neighbor.  `parent` maps each non-root
    vertex discovered so far to its BFS parent.

    The children of u are its unseen neighbors in `scope`, in ascending id,
    as in the BFS that tests one neighbor bit at a time, so the queue order
    and the parents are that BFS's.  When u is dequeued, its whole layer has
    been seen, and every seen vertex on u's side that is adjacent to u lies
    in that layer (an edge joins layers at most one apart).  So one mask
    test finds the first same-side edge that BFS meets, (u, v), and the odd
    cycle built from these parents is the one it builds.
    """
    adj = g.adj
    sides = [0, 0]
    parent: dict[int, int] = {}
    for root in bits(scope):
        if (sides[0] | sides[1]) >> root & 1:
            continue
        sides[0] |= 1 << root
        queue = [root]
        for u in queue:  # the queue grows while it is read
            side = sides[1] >> u & 1
            inside = adj[u] & sides[side]
            if inside:
                return None, parent, (u, (inside & -inside).bit_length() - 1)
            children = adj[u] & scope & ~(sides[0] | sides[1])
            sides[side ^ 1] |= children
            for v in bits(children):
                parent[v] = u
                queue.append(v)
    return (sides[0], sides[1]), parent, None


def two_coloring(g: Graph, within: int | None = None) -> tuple[int, int] | None:
    """Deterministic BFS 2-coloring; None when an odd cycle exists.

    Restricted to the `within` mask when given.  Each component's even BFS
    layers from its smallest vertex form side 0 and its odd layers side 1,
    so isolated vertices all end up on side 0.
    """
    return _layered_bfs(g, g.vertex_mask if within is None else within)[0]


def find_odd_cycle(g: Graph, within: int | None = None) -> list[int] | None:
    """Vertices of some odd cycle (BFS conflict cycle), or None if bipartite.

    The conflict's two ends lie in one layer, so their parent chains meet
    after the same number of steps."""
    _, parent, conflict = _layered_bfs(g, g.vertex_mask if within is None else within)
    if conflict is None:
        return None
    up, down = [conflict[0]], [conflict[1]]
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return up + down[-2::-1]


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Component vertex masks, ordered by smallest contained vertex."""
    remaining = g.vertex_mask if within is None else within
    comps = []
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            frontier = neighborhood(g.adj, frontier) & remaining & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


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
_G6_DIGITS = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", _G6_DIGITS
)
_G6_BITS = [""] * 63 + [format(v, "06b") for v in range(64)]  # digit byte -> its bits


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
    """Encode to graph6 text (no trailing newline).

    Column c of the upper triangle is row c of the adjacency below the
    diagonal, so the bit vector is each of those rows written low bit first.
    Six bits per byte, high bit first, is base64 with another alphabet."""
    n = g.n
    if n > _G6_MAX_ENCODE:
        raise ValueError(f"graph6 encoding capped at n <= {_G6_MAX_ENCODE}")
    adj = g.adj
    vector = "".join(
        format(adj[c] & ((1 << c) - 1), f"0{c}b")[::-1] for c in range(1, n)
    )
    body = b""
    if vector:
        pad = -len(vector) % 24  # whole bytes, whole base64 quads
        packed = (int(vector, 2) << pad).to_bytes((len(vector) + pad) // 8, "big")
        body = base64.b64encode(packed).translate(_B64_TO_G6)[: (len(vector) + 5) // 6]
    return (_g6_header(n) + body).decode("ascii")


@functools.lru_cache(maxsize=4)
def _transpose_masks(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap that transposes a size x size bit
    matrix stored row r at bits r*size .. r*size+size-1.  The swap for h
    exchanges the upper right and lower left h x h quarter of every
    2h x 2h block: its mask holds the bits (r, j) with r & h == 0 and
    j & h != 0, whose partners lie h*(size-1) bits higher."""
    width = size // 8
    out = []
    h = size // 2
    while h:
        if h >= 8:
            row = (bytes(h // 8) + b"\xff" * (h // 8)) * (size // (2 * h))
        else:
            row = bytes([sum(1 << j for j in range(8) if j & h)]) * width
        mask = (row * h + bytes(width * h)) * (size // (2 * h))
        out.append((h * (size - 1), int.from_bytes(mask, "little")))
        h //= 2
    return tuple(out)


def decode_graph6(text: str | bytes) -> Graph:
    """Decode graph6 text; an optional '>>graph6<<' prefix is accepted.

    The bit vector lists the upper triangle column by column, which is the
    lower triangle row by row.  Those rows, each padded to a power-of-two
    width, form one big-int bit matrix; OR-ing in its transpose gives the
    adjacency rows.  Error offsets count from the first byte of the input as
    given (the first character, for str input)."""
    raw = text if isinstance(text, str) else bytes(text)
    data = raw.strip()
    lead = len(raw) - len(raw.lstrip())
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
        lead += len(b">>graph6<<")

    def error(message: str, at: int) -> GraphFormatError:
        return GraphFormatError(message, lead + at)

    if isinstance(text, str) and not data.isascii():
        # every character before the first non-ASCII one is one byte
        bad = next(i for i, c in enumerate(data) if c > 127)
        raise error("non-ASCII character in graph6 input", bad)
    if not data:
        raise error("empty graph6 input", 0)
    if data[0] == 126:
        digits = range(2, 8) if data[1:2] == b"~" else range(1, 4)
        pos = digits.stop
        if len(data) < pos:
            raise error("truncated graph6 size header", len(data))
        n = 0
        for i in digits:
            if not 63 <= data[i] <= 126:
                raise error("invalid byte in graph6 size header", i)
            n = n << 6 | data[i] - 63
    else:
        n = data[0] - 63
        if n < 0 or n > 62:
            raise error("invalid graph6 size byte", 0)
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise error(
            f"truncated graph6 bit vector: need {nbytes} bytes, have {len(data) - pos}",
            len(data),
        )
    if len(data) - pos > nbytes:
        raise error("trailing bytes after graph6 bit vector", pos + nbytes)
    body = data[pos:]
    if body.translate(None, _G6_DIGITS):
        bad = next(i for i, c in enumerate(body) if not 63 <= c <= 126)
        raise error("invalid byte in graph6 bit vector", pos + bad)
    pad = 6 * nbytes - nbits
    if pad and (body[-1] - 63) & ((1 << pad) - 1):
        raise error("nonzero padding in graph6 bit vector", pos + nbytes - 1)
    # read backwards, column c of the bit vector is row c of the lower
    # triangle high bit first, so rows n-1 down to 0, each padded on the
    # left to `size` digits, spell the bit matrix as one binary numeral
    backward = "".join(map(_G6_BITS.__getitem__, body))[nbits - 1::-1] if nbits else ""
    size = max(8, 1 << (n - 1).bit_length())
    zeros = "0" * size
    parts = []
    start = 0
    for c in range(n - 1, 0, -1):
        parts += (zeros[c:], backward[start: start + c])
        start += c
    lower = int("".join(parts) + zeros, 2)
    x = lower
    for shift, mask in _transpose_masks(size):
        t = (x ^ x >> shift) & mask
        x ^= t | t << shift
    width = size // 8
    packed = (lower | x).to_bytes(size * width, "little")
    g = Graph(n)
    g.adj = [int.from_bytes(packed[i: i + width], "little") for i in range(0, n * width, width)]
    return g

