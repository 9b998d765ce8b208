import random
from fractions import Fraction

import pytest

from oddbook.bipartite import CorePartition, build_uvt_partition, validate_biclique
from oddbook.construction import build_min_member, plan_layout
from oddbook.freeness import NotMaximalError, is_book_free, saturate
from oddbook.graph import bits, mask_of, random_graph
from oddbook.pattern import book_order, build_odd_book
from oddbook.stability import (
    NonEdgeClass,
    bound_report,
    classify_non_edge,
    deletion_pipeline,
)
from .oracles import complete_bipartite


def _book_host_without(s, k, edge):
    """The (s, k) odd book with one edge removed: probing that edge back
    recreates the book, so the witness mapping is fully pinned down."""
    book = build_odd_book(s, k)
    g = book.graph.copy()
    g.delete_edge(*edge)
    return g


def _part(n, left, right):
    lmask = mask_of(left)
    rmask = mask_of(right)
    t = ((1 << n) - 1) & ~lmask & ~rmask
    return CorePartition(left=lmask, right=rmask, exceptional=t, h=book_order(2, 2))


# pattern numbering from build_odd_book(2, 2): hubs 0, 1; pages (2,3,4), (5,6,7)


def test_classify_hub_hub():
    g = _book_host_without(2, 2, (0, 1))
    part = _part(8, [0], [1])
    info = classify_non_edge(g, part, 0, 1, 2, 2)
    assert info.cls is NonEdgeClass.HUB_HUB
    assert set(info.anchors_left) == {2, 5}
    assert set(info.anchors_right) == {4, 7}
    assert info.anchored_both
    # s = 1: the book is C_5, where hubs and page interiors all have
    # degree 2; the witness puts the probed page edge on its hub edge
    g = _book_host_without(1, 2, (3, 4))
    info = classify_non_edge(g, _part(5, [3], [4]), 3, 4, 1, 2)
    assert info.witness.hub_edge == (3, 4)
    assert info.cls is NonEdgeClass.HUB_HUB
    assert (info.anchors_left, info.anchors_right) == ((2,), (1,))


def test_classify_hub_interior_full():
    g = _book_host_without(2, 2, (0, 2))
    part = _part(8, [0], [2])
    info = classify_non_edge(g, part, 0, 2, 2, 2)
    assert info.cls is NonEdgeClass.HUB_INTERIOR_FULL
    assert set(info.anchors_left) == {1, 5}
    assert set(info.anchors_right) == {3}


def test_classify_hub_interior_partial():
    # moving one hub neighbor out of the exceptional set drops the anchor
    # count below s
    g = _book_host_without(2, 2, (0, 2))
    part = _part(8, [0, 5], [2])
    info = classify_non_edge(g, part, 0, 2, 2, 2)
    assert info.cls is NonEdgeClass.HUB_INTERIOR_PARTIAL
    assert set(info.anchors_left) == {1}


def test_classify_interior_hub_full():
    g = _book_host_without(2, 2, (0, 2))
    part = _part(8, [2], [0])
    info = classify_non_edge(g, part, 2, 0, 2, 2)
    assert info.cls is NonEdgeClass.INTERIOR_HUB_FULL
    assert set(info.anchors_right) == {1, 5}


def test_classify_interior_interior():
    g = _book_host_without(2, 2, (3, 4))
    part = _part(8, [3], [4])
    info = classify_non_edge(g, part, 3, 4, 2, 2)
    assert info.cls is NonEdgeClass.INTERIOR_INTERIOR
    assert set(info.anchors_left) == {2}
    assert set(info.anchors_right) == {1}


def test_classify_requires_probe_pair():
    g = _book_host_without(2, 2, (0, 1))
    part = _part(8, [0], [2])
    with pytest.raises(ValueError):
        classify_non_edge(g, part, 0, 1, 2, 2)  # 1 not on the right side
    with pytest.raises(ValueError):
        classify_non_edge(g, part, 0, 2, 2, 2)  # (0, 2) is an edge here


def test_classify_detects_non_maximal():
    g = complete_bipartite(3, 3)  # adding any pair creates nothing this small
    part = _part(6, [0, 1, 2], [3, 4, 5])
    g2 = g.copy()
    g2.delete_edge(0, 3)
    with pytest.raises(NotMaximalError) as exc:
        classify_non_edge(g2, part, 0, 3, 2, 2)
    assert exc.value.probe == (0, 3)


def test_pipeline_anchored_single_step():
    # hub-hub probe whose candidate sets are the two hubs themselves
    g = _book_host_without(2, 2, (0, 1))
    part = _part(8, [0], [1])
    core, trace = deletion_pipeline(g, part, 2, 2)
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.info.cls is NonEdgeClass.HUB_HUB
    assert step.candidate_sizes == (1, 1)
    assert step.deleted == (0,)  # tie broken toward the left side
    assert core.size == 1
    assert validate_biclique(g, core)


def test_pipeline_complete_bipartite_zero_steps():
    g = complete_bipartite(9, 9)
    part, _ = build_uvt_partition(g, h=book_order(2, 2))
    core, trace = deletion_pipeline(g, part, 2, 2)
    assert trace.steps == []
    assert core.size == 18
    assert validate_biclique(g, core)


def test_pipeline_saturated_construction(saturated_64):
    sat, _ = saturated_64
    part, _ = build_uvt_partition(sat, h=8, seed=0)
    core, trace = deletion_pipeline(sat, part, 2, 2)
    assert validate_biclique(sat, core)
    # the two tail blocks survive untouched
    assert core.size == 20
    assert trace.deleted_total == 0


def test_pipeline_trace_invariants(rng):
    for _ in range(5):
        n = rng.randrange(14, 26)
        g = random_graph(n, 0.12, rng)
        free, witness = is_book_free(g, 2, 2)
        while not free:
            g.delete_edge(*witness.hub_edge)
            free, witness = is_book_free(g, 2, 2)
        sat, _ = saturate(g, 2, 2)
        part, _ = build_uvt_partition(sat, h=book_order(2, 2), seed=1)
        core, trace = deletion_pipeline(sat, part, 2, 2)
        assert validate_biclique(sat, core)
        union = 0
        for m in (mask_of(st.deleted) for st in trace.steps):
            assert not (m & union)
            union |= m
        assert not (union & core.vertices)
        assert not (union & part.exceptional)
        assert union.bit_count() == trace.deleted_total
        assert (part.left | part.right).bit_count() == core.size + trace.deleted_total
        assert len(trace.steps) <= n


def test_larger_construction_exercises_anchored_deletions():
    # at this size connector attachments exceed h, so indexed blocks stay in
    # the sides and every diagonal probe classifies as hub-hub with both
    # connector anchors present; each step deletes one whole block
    layout = plan_layout(128, 2, 2, Fraction(1, 2))
    result = build_min_member(layout)
    sat, _ = saturate(result.graph, 2, 2)
    part, ptrace = build_uvt_partition(sat, h=8, seed=0)
    assert ptrace.method == "transversal"
    assert part.exceptional == mask_of(v for _, _, chain in layout.connectors() for v in chain)
    core, trace = deletion_pipeline(sat, part, 2, 2)
    assert validate_biclique(sat, core)
    assert trace.anchor_violations == 0
    assert len(trace.steps) == layout.pairs == 4
    for step in trace.steps:
        assert step.info.cls is NonEdgeClass.HUB_HUB
        assert step.candidate_sizes == (5, 5)
        assert len(step.deleted) == 5
    assert core.size == 116 - 20
    # eq-style ceiling: n - pairs * block_size
    assert core.size <= 128 - layout.pairs * layout.block_size


def test_bound_report_zero_steps():
    from oddbook.stability import DeletionTrace

    report = bound_report(DeletionTrace(), 64, 2, 2, Fraction(1, 2))
    assert report["deleted_total"] == 0
    assert report["within_bound"]
    assert report["vacuous"]  # 4 * 48^5 * 1/2 * 64 vastly exceeds 64


def test_bound_report_exact_value():
    from oddbook.stability import DeletionTrace

    report = bound_report(DeletionTrace(), 64, 2, 2, Fraction(1, 2))
    assert report["bound"] == str(4 * Fraction(48) ** 5 * Fraction(1, 2) * 64)
