"""Lower-bound construction: dense near-bipartite graphs with connector paths.

The layout partitions n vertices into paired blocks (left_i, right_i) for
i = 0..base**s - 1, one leftover pair (left tail / right tail), and s*base
connector paths of 2k-1 vertices each.  Block pairs are indexed by an
s-digit base-`base` code; connector (p, q) attaches its first vertex to
every left block whose code has digit q at position p, and its last vertex
to the matching right blocks.  The minimum-edge member of the class adds
nothing beyond what the definition mandates, and that member is free of
the (s, k) odd book.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator

from .graph import Graph, bits, first_edge_within, mask_of, two_coloring


class LayoutInfeasibleError(ValueError):
    """Requested parameters leave no room for the leftover blocks."""

    def __init__(self, message: str, inequality: str):
        super().__init__(f"infeasible layout: {message}: violated {inequality}")
        self.inequality = inequality


@dataclass(frozen=True)
class DigitParams:
    base: int
    width: int

    def __post_init__(self):
        if self.base < 1:
            raise ValueError("digit base must be >= 1")
        if self.width < 1:
            raise ValueError("digit width must be >= 1")


def digit(x: int, pos: int, params: DigitParams) -> int:
    """Digit at position pos (0 = least significant) of x in the given base."""
    limit = params.base ** params.width
    if not 0 <= x < limit:
        raise ValueError(f"x={x} outside [0, {limit - 1}]")
    if not 0 <= pos < params.width:
        raise ValueError(f"digit position {pos} outside [0, {params.width - 1}]")
    return x // params.base ** pos % params.base


def integer_root(x: int, r: int) -> int:
    """Largest m with m**r <= x, exact integer arithmetic."""
    if x < 0 or r < 1:
        raise ValueError("integer_root needs x >= 0 and r >= 1")
    if x in (0, 1) or r == 1:
        return x
    # Newton's step from above: 2**ceil(bits/r) > x**(1/r), and each step
    # stays at or above the floor root (AM-GM) while it falls, until m is it
    m = 1 << -(-x.bit_length() // r)
    while True:
        step = ((r - 1) * m + x // m ** (r - 1)) // r
        if step >= m:
            return m
        m = step


@dataclass(frozen=True)
class BlockLayout:
    """Vertex partition of the construction; ids are assigned contiguously:
    left blocks 0..pairs-1, right blocks 0..pairs-1, connectors (p-major),
    then the left tail and right tail."""

    n: int
    s: int
    k: int
    alpha: Fraction
    base: int        # number of digit values per position
    block_size: int  # size of each indexed left/right block

    @property
    def pairs(self) -> int:
        return self.base ** self.s

    @property
    def connector_len(self) -> int:
        return 2 * self.k - 1

    @property
    def connector_count(self) -> int:
        return self.s * self.base

    @property
    def residual(self) -> int:
        return (
            self.n
            - 2 * self.pairs * self.block_size
            - self.connector_count * self.connector_len
        )

    @property
    def left_tail_size(self) -> int:
        return (self.residual + 1) // 2

    @property
    def right_tail_size(self) -> int:
        return self.residual // 2

    @property
    def degenerate(self) -> bool:
        return self.base == 1

    @property
    def theorem_scale(self) -> bool:
        return Fraction(self.n) >= Fraction(8 * self.k ** 2 * self.s ** 2) / self.alpha

    @property
    def digit_params(self) -> DigitParams:
        return DigitParams(base=self.base, width=self.s)

    # -- vertex id geometry ------------------------------------------------

    def _block(self, i: int, side: int) -> range:
        """Block i of the left (side 0) or right (side 1) half; i = pairs is
        that half's tail, placed after the connectors."""
        if i == self.pairs:
            start = 2 * self.pairs * self.block_size + self.connector_count * self.connector_len
            if side:
                start += self.left_tail_size
            return range(start, start + (self.right_tail_size if side else self.left_tail_size))
        if not 0 <= i < self.pairs:
            raise ValueError(f"block index {i} outside [0, {self.pairs}]")
        start = (side * self.pairs + i) * self.block_size
        return range(start, start + self.block_size)

    def left_block(self, i: int) -> range:
        return self._block(i, 0)

    def right_block(self, i: int) -> range:
        return self._block(i, 1)

    def connector(self, p: int, q: int) -> range:
        if not (0 <= p < self.s and 0 <= q < self.base):
            raise ValueError(f"connector index ({p}, {q}) out of range")
        start = 2 * self.pairs * self.block_size + (p * self.base + q) * self.connector_len
        return range(start, start + self.connector_len)

    def connectors(self) -> Iterator[tuple[int, int, range]]:
        """(p, q, vertices) of every connector, p-major as the ids run."""
        for p in range(self.s):
            for q in range(self.base):
                yield p, q, self.connector(p, q)

    def _half_mask(self, side: int) -> int:
        return mask_of(v for i in range(self.pairs + 1) for v in self._block(i, side))

    def left_mask(self) -> int:
        return self._half_mask(0)

    def right_mask(self) -> int:
        return self._half_mask(1)

    def middle_mask(self) -> int:
        """Middle vertices (position k) of all connectors."""
        return mask_of(chain[self.k - 1] for _, _, chain in self.connectors())

    def attached_pairs(self, p: int, q: int) -> list[int]:
        """Indexed block pairs whose digit at position p equals q."""
        dp = self.digit_params
        return [i for i in range(self.pairs) if digit(i, p, dp) == q]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "k": self.k,
            "alpha": str(self.alpha),
            "base": self.base,
            "block_size": self.block_size,
            "pairs": self.pairs,
            "left_blocks": [list(self.left_block(i)) for i in range(self.pairs + 1)],
            "right_blocks": [list(self.right_block(i)) for i in range(self.pairs + 1)],
            "connectors": [
                [list(self.connector(p, q)) for q in range(self.base)]
                for p in range(self.s)
            ],
            "degenerate": self.degenerate,
            "theorem_scale": self.theorem_scale,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BlockLayout":
        """Layout from its `to_json` document; ValueError names a key that is
        missing or malformed."""
        if not isinstance(doc, dict):
            raise ValueError("layout document must be a JSON object")
        for key in ("n", "s", "k", "base", "block_size"):
            if type(doc.get(key)) is not int:
                raise ValueError(f"layout key {key!r} missing or not an integer")
        try:
            alpha = Fraction(doc["alpha"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            raise ValueError("layout key 'alpha' missing or not an exact rational") from None
        if not 0 < alpha <= Fraction(1, 2):
            raise ValueError("layout key 'alpha' outside (0, 1/2]")
        layout = cls(doc["n"], doc["s"], doc["k"], alpha, doc["base"], doc["block_size"])
        if min(layout.n, layout.base, layout.block_size) < 1 or min(layout.s, layout.k) < 2:
            raise ValueError("layout needs positive n, base and block_size, and s, k >= 2")
        # 2 ** s > n already rules out base >= 2, without computing base ** s
        if (layout.base > 1 and layout.s >= layout.n.bit_length()) or layout.residual < 0:
            raise ValueError(f"layout geometry does not fit in n={layout.n}")

        def rows_match(rows, count: int, ids) -> bool:
            # rows == [list(ids(i)) for i < count] with int ids (True == 1);
            # lengths are compared first, so no more is built than is held
            return isinstance(rows, list) and len(rows) == count and all(
                isinstance(row, list) and len(row) == len(r)
                and all(type(v) is int for v in row) and row == list(r)
                for row, r in zip(rows, map(ids, range(count))))

        conn = doc.get("connectors")
        blocks = layout.pairs + 1
        for key, holds in (
            ("pairs", type(doc.get("pairs")) is int and doc["pairs"] == layout.pairs),
            ("left_blocks", rows_match(doc.get("left_blocks"), blocks, layout.left_block)),
            ("right_blocks", rows_match(doc.get("right_blocks"), blocks, layout.right_block)),
            ("connectors", isinstance(conn, list) and len(conn) == layout.s and all(
                rows_match(row, layout.base, partial(layout.connector, p))
                for p, row in enumerate(conn))),
            ("degenerate", doc.get("degenerate") is layout.degenerate),
            ("theorem_scale", doc.get("theorem_scale") is layout.theorem_scale),
        ):
            if not holds:
                raise ValueError(
                    f"layout key {key!r} missing or inconsistent with derived geometry")
        return layout


def check_alpha(alpha: Fraction) -> None:
    """Refuse a density parameter outside (0, 1/2]."""
    if not 0 < alpha <= Fraction(1, 2):
        raise ValueError("alpha must lie in (0, 1/2]")


def plan_layout(n: int, s: int, k: int, alpha: Fraction | str) -> BlockLayout:
    """Integerized layout: block size is the floor (s+1)-th root of n and the
    digit base is max(1, floor(alpha * block_size))."""
    alpha = Fraction(alpha)
    if s < 2 or k < 2:
        raise ValueError("layout needs s >= 2 and k >= 2")
    check_alpha(alpha)
    m = integer_root(n, s + 1)
    t = max(1, int(alpha * m))
    layout = BlockLayout(n=n, s=s, k=k, alpha=alpha, base=t, block_size=m)
    if layout.residual < 2:
        raise LayoutInfeasibleError(
            f"n={n} too small for s={s}, k={k}, alpha={alpha} "
            f"(block_size={m}, base={t})",
            inequality=(
                f"n - 2*base**s*block_size - s*base*(2k-1) >= 2 "
                f"({n} - {2 * t ** s * m} - {s * t * (2 * k - 1)} = {layout.residual})"
            ),
        )
    return layout


@dataclass(frozen=True)
class ConstructionResult:
    graph: Graph
    layout: BlockLayout

    @property
    def specified_edge_count(self) -> int:
        """Closed-form edge count of the layout's minimum member."""
        layout = self.layout
        left_total = layout.pairs * layout.block_size + layout.left_tail_size
        right_total = layout.pairs * layout.block_size + layout.right_tail_size
        cross = left_total * right_total - layout.pairs * layout.block_size ** 2
        path_edges = layout.connector_count * (2 * layout.k - 2)
        attach = 2 * layout.connector_count * layout.base ** (layout.s - 1) * layout.block_size
        return cross + path_edges + attach


def build_min_member(layout: BlockLayout) -> ConstructionResult:
    """Graph with exactly the mandated edges: complete off-diagonal block
    pairs, complete tail pair, connector paths, and digit-matched
    attachments at connector endpoints."""
    adj = [0] * layout.n
    pairs = layout.pairs
    blocks = [[mask_of(layout._block(i, side)) for i in range(pairs + 1)] for side in (0, 1)]
    # the blocks of a half are disjoint, so their sum is the half
    halves = [sum(row) for row in blocks]
    for side in (0, 1):
        across = blocks[1 - side]
        for i in range(pairs + 1):
            # an indexed block pair has no edges between its blocks; the tail
            # pair is complete
            row = halves[1 - side] & ~across[i] if i < pairs else halves[1 - side]
            for v in layout._block(i, side):
                adj[v] |= row

    for p, q, chain in layout.connectors():
        for a, b in zip(chain, chain[1:]):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        attached = layout.attached_pairs(p, q)
        for side, end in ((0, chain[0]), (1, chain[-1])):
            attach = sum(blocks[side][i] for i in attached)
            adj[end] |= attach
            for v in bits(attach):
                adj[v] |= 1 << end

    # every edge was set in both rows, so the rows need no validation
    g = Graph(layout.n)
    g.adj = adj
    return ConstructionResult(graph=g, layout=layout)


# ---------------------------------------------------------------------------
# structure certificate: the facts the freeness argument rests on


@dataclass
class CertificateFact:
    name: str
    ok: bool
    witness: tuple | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "witness": self.witness}


@dataclass
class CertificateReport:
    facts: list[CertificateFact]

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.facts)


def _fact(name: str, first_violation: tuple | None) -> CertificateFact:
    """A fact holds when it has no violation; otherwise the first violation
    found is its witness."""
    return CertificateFact(name, first_violation is None, first_violation)


def _alternating_connector_sets(layout: BlockLayout) -> tuple[int, int]:
    """Connector positions split around the middle: set 1 holds odd positions
    before the middle and even after; set 2 the mirror image."""
    k = layout.k
    sets = [0, 0]
    for _, _, chain in layout.connectors():
        for r, v in enumerate(chain, 1):
            if r != k:
                sets[(r < k) != (r % 2 == 1)] |= 1 << v
    return sets[0], sets[1]


def _path_violations(g: Graph, layout: BlockLayout) -> Iterator[tuple]:
    """Connector vertices whose neighbors on their own connector are not
    exactly their path neighbors."""
    for p, q, chain in layout.connectors():
        cmask = mask_of(chain)
        for i, v in enumerate(chain):
            path_nbrs = mask_of(chain[max(i - 1, 0) : i + 2]) & ~(1 << v)
            if g.adj[v] & cmask != path_nbrs:
                yield ("connector", p, q, v)


def _stray_attachments(g: Graph, layout: BlockLayout) -> Iterator[tuple[int, int]]:
    """(endpoint, neighbor) pairs where a connector's first vertex reaches
    beyond the indexed left blocks or its last beyond the indexed right
    blocks, its own path neighbor aside."""
    left_indexed = layout.left_mask() & ~mask_of(layout.left_block(layout.pairs))
    right_indexed = layout.right_mask() & ~mask_of(layout.right_block(layout.pairs))
    for _, _, chain in layout.connectors():
        for end, nxt, allowed in (
            (chain[0], chain[1], left_indexed),
            (chain[-1], chain[-2], right_indexed),
        ):
            stray = g.adj[end] & ~(1 << nxt) & ~allowed
            if stray:
                yield end, next(bits(stray))


def certify_structure(result: ConstructionResult) -> CertificateReport:
    g = result.graph
    layout = result.layout
    if layout.n != g.n:
        raise ValueError(f"layout has n={layout.n} but the graph has n={g.n}")
    middles = layout.middle_mask()
    set1, set2 = _alternating_connector_sets(layout)
    return CertificateReport([
        # connector paths are exactly the induced structure
        _fact("connector-paths-exact", next(_path_violations(g, layout), None)),
        _fact(
            "middle-degree-two",
            next(((v, g.degree(v)) for v in bits(middles) if g.degree(v) != 2), None),
        ),
        # independence of each side joined with its alternating connector set
        _fact(
            "left-with-mirror-set-independent",
            first_edge_within(g, layout.left_mask() | set2),
        ),
        _fact(
            "right-with-near-set-independent",
            first_edge_within(g, layout.right_mask() | set1),
        ),
        # removing the middles leaves a bipartite graph
        CertificateFact(
            "bipartite-without-middles",
            two_coloring(g, within=g.vertex_mask & ~middles) is not None,
        ),
        _fact("endpoint-attachments-one-sided", next(_stray_attachments(g, layout), None)),
    ])


# ---------------------------------------------------------------------------
# exact edge bound: e(G) >= n^2/4 - 2ks * alpha * n^((s+2)/(s+1))


@dataclass
class EdgeBoundReport:
    edge_count: int
    holds: bool
    margin_low: Fraction
    margin_high: Fraction
    theorem_scale: bool

    def to_json(self) -> dict:
        return {
            "edge_count": self.edge_count,
            "holds": self.holds,
            "margin_low": str(self.margin_low),
            "margin_high": str(self.margin_high),
            "theorem_scale": self.theorem_scale,
        }


def edge_bound_check(result: ConstructionResult) -> EdgeBoundReport:
    """Exact rational verdict; the irrational term n^((s+2)/(s+1)) is handled
    by comparing (s+1)-th powers and bracketed via integer roots."""
    layout = result.layout
    n, s, k, alpha = layout.n, layout.s, layout.k, layout.alpha
    e = result.graph.num_edges()
    deficit = Fraction(n * n, 4) - e
    coeff = 2 * k * s * alpha * n  # bound term is coeff * n^(1/(s+1))
    if deficit <= 0:
        holds = True
    else:
        c = deficit / coeff
        holds = c.numerator ** (s + 1) <= n * c.denominator ** (s + 1)
    r = integer_root(n, s + 1)
    margin_low = e - Fraction(n * n, 4) + coeff * r
    margin_high = e - Fraction(n * n, 4) + coeff * (r + 1)
    return EdgeBoundReport(
        edge_count=e,
        holds=holds,
        margin_low=margin_low,
        margin_high=margin_high,
        theorem_scale=layout.theorem_scale,
    )
