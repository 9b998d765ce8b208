"""Deletion pipeline extracting an induced complete bipartite core.

Every surviving cross non-edge of the bipartite core is classified by
which endpoints are hubs of the witness copy created by adding the pair;
the endpoint neighborhoods of the witness that land in the exceptional
set anchor two candidate deletion sets, and the smaller one is removed
from the core.  Each step deletes at least one vertex, so the loop
ends with no cross non-edges left.  Intra-side edges (possible on rough
inputs whose sides are not independent) are cleaned up first so the
surviving core always induces a complete bipartite graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .bipartite import Biclique, CorePartition
from .freeness import NotMaximalError, Witness, find_book_using_edge, _neighbor_orders
from .graph import Graph, bits, first_edge_within


class NonEdgeClass(Enum):
    """Position signature of a probed non-edge inside its witness copy."""

    INTERIOR_INTERIOR = "interior-interior"
    HUB_HUB = "hub-hub"
    HUB_INTERIOR_FULL = "hub-interior-full-anchor"
    INTERIOR_HUB_FULL = "interior-hub-full-anchor"
    HUB_INTERIOR_PARTIAL = "hub-interior-partial-anchor"
    INTERIOR_HUB_PARTIAL = "interior-hub-partial-anchor"


@dataclass(frozen=True)
class ClassifiedNonEdge:
    probe: tuple[int, int]
    witness: Witness
    cls: NonEdgeClass
    anchors_left: tuple[int, ...]   # exceptional-set witness-neighbors of x
    anchors_right: tuple[int, ...]  # exceptional-set witness-neighbors of y

    @property
    def anchored_both(self) -> bool:
        """The theorem-scale anchoring property: both endpoints are anchored."""
        return bool(self.anchors_left) and bool(self.anchors_right)


def classify_non_edge(
    g: Graph,
    part: CorePartition,
    x: int,
    y: int,
    s: int,
    k: int,
    _orders=None,
) -> ClassifiedNonEdge:
    """First witness (deterministic search order) for the non-edge xy and its
    class.  x must lie on the left side, y on the right, xy not an edge.
    Raises NotMaximalError when no witness exists, i.e. the host graph was
    not maximal."""
    if not part.left >> x & 1 or not part.right >> y & 1:
        raise ValueError("probe endpoints must lie on the left/right sides")
    if g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is an edge, not a probe pair")
    w = find_book_using_edge(g, x, y, s, k, _orders=_orders)
    if w is None:
        raise NotMaximalError((x, y))
    x_hub, y_hub = x in w.hub_edge, y in w.hub_edge
    t_set = part.exceptional
    anchors_x = tuple(z for z in w.host_neighbors(x) if t_set >> z & 1)
    anchors_y = tuple(z for z in w.host_neighbors(y) if t_set >> z & 1)
    if x_hub and y_hub:
        cls = NonEdgeClass.HUB_HUB
    elif x_hub:
        cls = (
            NonEdgeClass.HUB_INTERIOR_FULL
            if len(anchors_x) == s
            else NonEdgeClass.HUB_INTERIOR_PARTIAL
        )
    elif y_hub:
        cls = (
            NonEdgeClass.INTERIOR_HUB_FULL
            if len(anchors_y) == s
            else NonEdgeClass.INTERIOR_HUB_PARTIAL
        )
    else:
        cls = NonEdgeClass.INTERIOR_INTERIOR
    return ClassifiedNonEdge(
        probe=(x, y),
        witness=w,
        cls=cls,
        anchors_left=anchors_x,
        anchors_right=anchors_y,
    )


@dataclass
class DeletionStep:
    probe: tuple[int, int]
    deleted: tuple[int, ...]
    info: ClassifiedNonEdge | None = None  # None for an intra-side edge
    candidate_sizes: tuple[int, int] = (0, 0)

    @property
    def kind(self) -> str:
        return "intra-side-edge" if self.info is None else "cross-non-edge"

    @property
    def anchored_both(self) -> bool:
        return self.info is None or self.info.anchored_both

    def to_json(self) -> dict:
        info = self.info
        return {
            "kind": self.kind,
            "probe": list(self.probe),
            "class": info.cls.value if info else None,
            "anchors_left": list(info.anchors_left) if info else [],
            "anchors_right": list(info.anchors_right) if info else [],
            "candidate_sizes": list(self.candidate_sizes),
            "deleted": list(self.deleted),
            "anchored_both": self.anchored_both,
        }


@dataclass
class DeletionTrace:
    steps: list[DeletionStep] = field(default_factory=list)
    initial_left: int = 0
    initial_right: int = 0

    @property
    def deleted_total(self) -> int:
        return sum(len(st.deleted) for st in self.steps)

    @property
    def anchor_violations(self) -> int:
        return sum(1 for st in self.steps if not st.anchored_both)

    def to_json(self) -> dict:
        return {
            "initial_left": list(bits(self.initial_left)),
            "initial_right": list(bits(self.initial_right)),
            "deleted_total": self.deleted_total,
            "anchor_violations": self.anchor_violations,
            "steps": [st.to_json() for st in self.steps],
        }


def _first_cross_non_edge(g: Graph, left: int, right: int):
    for u in bits(left):
        missing = right & ~g.adj[u]
        if missing:
            return u, next(bits(missing))
    return None


def deletion_pipeline(
    g: Graph, part: CorePartition, s: int, k: int
) -> tuple[Biclique, DeletionTrace]:
    """Shrink the partition sides until they induce a complete bipartite
    graph; witnesses are searched in the full host graph throughout.

    Candidate sets for a cross non-edge are the common neighborhoods (within
    the current sides) of the endpoint's exceptional-set anchors; when an
    endpoint has no anchor, which the theorem-scale argument rules out but
    small instances can exhibit, the endpoint itself is the candidate set.
    The smaller candidate set is deleted, ties favoring the left side.
    """
    trace = DeletionTrace(initial_left=part.left, initial_right=part.right)
    sides = [part.left, part.right]
    orders = _neighbor_orders(g)

    # rough inputs can leave intra-side edges; delete greedily so the final
    # core is genuinely induced-complete-bipartite
    for i in range(2):
        while (hit := first_edge_within(g, sides[i])) is not None:
            u, v = hit
            du = (g.adj[u] & sides[i]).bit_count()
            dv = (g.adj[v] & sides[i]).bit_count()
            drop = u if du >= dv else v
            sides[i] &= ~(1 << drop)
            trace.steps.append(DeletionStep(probe=(u, v), deleted=(drop,)))

    while (hit := _first_cross_non_edge(g, *sides)) is not None:
        x, y = hit
        info = classify_non_edge(g, part, x, y, s, k, _orders=orders)
        cands = []
        for side, anchors, endpoint in zip(
            sides, (info.anchors_left, info.anchors_right), hit
        ):
            cand = side if anchors else 1 << endpoint
            for z in anchors:
                cand &= g.adj[z]
            cands.append(cand)
        sizes = (cands[0].bit_count(), cands[1].bit_count())
        if sizes == (0, 0):
            raise RuntimeError(
                f"internal inconsistency: empty candidate sets at probe ({x}, {y})"
            )
        i = 0 if sizes[0] <= sizes[1] else 1
        sides[i] &= ~cands[i]
        trace.steps.append(DeletionStep(hit, tuple(bits(cands[i])), info, sizes))

    return Biclique(left=sides[0], right=sides[1]), trace


def bound_report(
    trace: DeletionTrace, n: int, s: int, k: int, alpha: Fraction | str
) -> dict:
    """Informational comparison of the deleted total against the coarse
    theorem-scale budget 4*(12sk)^(s+3)*alpha*n; the constant is so loose
    that small instances render it vacuous, so no verdict is attached."""
    alpha = Fraction(alpha)
    bound = 4 * Fraction(12 * s * k) ** (s + 3) * alpha * n
    deleted = trace.deleted_total
    return {
        "deleted_total": deleted,
        "bound": str(bound),
        "within_bound": Fraction(deleted) <= bound,
        "vacuous": bound >= n,
        "margin": str(bound - deleted),
    }
