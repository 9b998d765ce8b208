import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from oddbook.construction import (
    ConstructionResult,
    DigitParams,
    LayoutInfeasibleError,
    BlockLayout,
    build_min_member,
    certify_structure,
    digit,
    edge_bound_check,
    integer_root,
    plan_layout,
)
from oddbook.graph import Graph, bits, is_independent, mask_of

from .oracles import (
    certify_structure_ref,
    complete_bipartite,
    count_edges_between,
    layout_masks_ref,
)


def test_digit_zero():
    params = DigitParams(base=3, width=2)
    assert all(digit(0, p, params) == 0 for p in range(2))


def test_digit_binary():
    params = DigitParams(base=2, width=3)
    assert [digit(5, p, params) for p in range(3)] == [1, 0, 1]


def test_digit_ternary():
    params = DigitParams(base=3, width=2)
    assert digit(7, 0, params) == 1
    assert digit(7, 1, params) == 2


def test_digit_range_errors():
    params = DigitParams(base=2, width=3)
    with pytest.raises(ValueError):
        digit(8, 0, params)
    with pytest.raises(ValueError):
        digit(3, 3, params)


def test_digit_roundtrip_exhaustive():
    for base in range(2, 6):
        for width in (2, 3):
            params = DigitParams(base=base, width=width)
            for x in range(base ** width):
                total = sum(digit(x, p, params) * base ** p for p in range(width))
                assert total == x


def test_integer_root():
    assert integer_root(63, 3) == 3
    assert integer_root(64, 3) == 4
    assert integer_root(10 ** 12 + 1, 4) == 1000
    for r in range(1, 6):
        for x in range(3000):
            m = integer_root(x, r)
            assert m ** r <= x < (m + 1) ** r


def test_integer_root_beyond_float_range():
    # a float start would step 2**300 times here, or overflow on 10**400
    assert integer_root(2 ** 900, 3) == 2 ** 300
    assert integer_root(2 ** 900 - 1, 3) == 2 ** 300 - 1
    assert integer_root(10 ** 400, 4) == 10 ** 100
    m = integer_root(10 ** 400, 3)
    assert m ** 3 <= 10 ** 400 < (m + 1) ** 3


def test_layout_64():
    layout = plan_layout(64, 2, 2, Fraction(1, 2))
    assert layout.block_size == 4
    assert layout.base == 2
    assert layout.pairs == 4
    assert layout.connector_count * layout.connector_len == 12
    assert layout.left_tail_size == 10
    assert layout.right_tail_size == 10
    # the labels partition 0..n-1
    covered = sorted(
        v for i in range(layout.pairs + 1)
        for v in list(layout.left_block(i)) + list(layout.right_block(i))
    ) + sorted(
        v for p in range(layout.s) for q in range(layout.base)
        for v in layout.connector(p, q)
    )
    assert sorted(covered) == list(range(64))


def test_layout_256():
    layout = plan_layout(256, 2, 2, Fraction(1, 2))
    assert layout.block_size == 6
    assert layout.base == 3
    assert layout.pairs == 9
    # connector vertices total s * base * (2k-1)
    assert layout.connector_count * layout.connector_len == 18


def test_layout_infeasible():
    # n=11 is the largest infeasible size at these parameters
    with pytest.raises(LayoutInfeasibleError) as exc:
        plan_layout(11, 2, 2, Fraction(1, 2))
    assert ">= 2" in str(exc.value)
    plan_layout(12, 2, 2, Fraction(1, 2))  # must succeed


def test_layout_parameter_validation():
    with pytest.raises(ValueError):
        plan_layout(64, 1, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        plan_layout(64, 2, 2, Fraction(2, 3))


def test_layout_json_roundtrip():
    layout = plan_layout(64, 2, 2, Fraction(1, 2))
    doc = layout.to_json()
    assert BlockLayout.from_json(doc) == layout


def test_min_member_64_edge_count(min_member_64):
    # 26*26 - 4*16 + 8 + 32 + 32
    assert min_member_64.specified_edge_count == 684
    assert min_member_64.graph.num_edges() == 684


def test_min_member_left_side_independent(min_member_64):
    layout = min_member_64.layout
    assert is_independent(min_member_64.graph, layout.left_mask())
    assert is_independent(min_member_64.graph, layout.right_mask())


def test_min_member_diagonal_blocks_empty(min_member_64):
    layout = min_member_64.layout
    g = min_member_64.graph
    for i in range(layout.pairs):
        left = mask_of(layout.left_block(i))
        right = mask_of(layout.right_block(i))
        assert count_edges_between(g, left, right) == 0


def test_certificate_clean(min_member_64):
    report = certify_structure(min_member_64)
    assert report.ok
    assert {f.name for f in report.facts} == {
        "connector-paths-exact",
        "middle-degree-two",
        "left-with-mirror-set-independent",
        "right-with-near-set-independent",
        "bipartite-without-middles",
        "endpoint-attachments-one-sided",
    }


def test_certificate_catches_injected_side_edge(min_member_64):
    g = min_member_64.graph.copy()
    left = list(min_member_64.layout.left_block(0))
    g.add_edge(left[0], left[1])
    mutated = replace(min_member_64, graph=g)
    report = certify_structure(mutated)
    fact = {f.name: f for f in report.facts}["left-with-mirror-set-independent"]
    assert not fact.ok
    assert set(fact.witness) == {left[0], left[1]}


def test_certificate_catches_deleted_connector_edge(min_member_64):
    g = min_member_64.graph.copy()
    layout = min_member_64.layout
    g.delete_edge(layout.connector(0, 0)[0], layout.connector(0, 0)[1])
    mutated = replace(min_member_64, graph=g)
    report = certify_structure(mutated)
    assert not {f.name: f for f in report.facts}["connector-paths-exact"].ok


def test_edge_bound_theorem_scale():
    # n = 256 = 8k^2s^2/alpha at s=k=2, alpha=1/2, so the bound must hold
    layout = plan_layout(256, 2, 2, Fraction(1, 2))
    result = build_min_member(layout)
    report = edge_bound_check(result)
    assert report.theorem_scale
    assert report.holds


def test_edge_bound_complete_bipartite():
    # a balanced complete bipartite graph trivially exceeds the threshold
    layout = plan_layout(64, 2, 2, Fraction(1, 2))
    g = complete_bipartite(32, 32)
    result = ConstructionResult(graph=g, layout=layout)
    report = edge_bound_check(result)
    assert report.holds
    assert report.margin_low >= 0


def test_edge_bound_desk_scale_reports(min_member_64):
    report = edge_bound_check(min_member_64)
    assert not report.theorem_scale
    assert report.margin_low <= report.margin_high
    # verdict consistent with the bracket
    if report.margin_low > 0:
        assert report.holds
    if report.margin_high < 0:
        assert not report.holds


def test_degenerate_base_flagged():
    layout = plan_layout(20, 2, 2, Fraction(1, 2))
    assert layout.base == 1
    assert layout.degenerate
    result = build_min_member(layout)
    assert result.graph.num_edges() == result.specified_edge_count
    assert certify_structure(result).ok


def _feasible_layouts(max_n):
    for n in range(8, max_n + 1):
        for s in (2, 3):
            for k in (2, 3):
                for alpha in ("1/2", "1/3", "1/5"):
                    try:
                        yield plan_layout(n, s, k, Fraction(alpha))
                    except LayoutInfeasibleError:
                        pass


def test_certificate_matches_reference():
    # every feasible layout up to n = 100: the geometry, and the certificate
    # of the member and of a copy with 1-3 flipped pairs; every other copy
    # flips pairs at connector vertices, so the connector facts see violations
    rng = random.Random(5)
    for i, layout in enumerate(_feasible_layouts(100)):
        connectors = mask_of(v for _, _, chain in layout.connectors() for v in chain)
        assert (
            layout.left_mask(), layout.right_mask(), connectors, layout.middle_mask(),
        ) == layout_masks_ref(layout)
        result = build_min_member(layout)
        flipped = result.graph.copy()
        ends = list(bits(connectors)) if i % 2 else range(layout.n)
        for _ in range(rng.randint(1, 3)):
            u = rng.choice(ends)
            v = rng.choice([w for w in range(layout.n) if w != u])
            (flipped.delete_edge if flipped.has_edge(u, v) else flipped.add_edge)(u, v)
        for g in (result.graph, flipped):
            mutated = replace(result, graph=g)
            report = certify_structure(mutated)
            got = json.loads(json.dumps(
                {"ok": report.ok, "facts": [f.to_json() for f in report.facts]}
            ))
            assert got == certify_structure_ref(mutated), (layout, g.adj)


def test_certificate_rejects_layout_of_another_order(min_member_64):
    layout = plan_layout(32, 2, 2, Fraction(1, 2))
    with pytest.raises(ValueError, match="n=32"):
        certify_structure(replace(min_member_64, layout=layout))


@pytest.mark.parametrize("key, value", [
    ("s", None), ("n", "64"), ("block_size", 4.0), ("alpha", None),
    ("alpha", "1/0"), ("left_blocks", None),
])
def test_layout_json_hostile_keys(key, value):
    doc = plan_layout(64, 2, 2, Fraction(1, 2)).to_json()
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=repr(key)):
        BlockLayout.from_json(doc)


# an edit of each key that to_json derives from the geometry
_DERIVED_EDITS = {
    "right_blocks": lambda v: v[1:] + v[:1],
    "connectors": lambda v: v[::-1],
    "pairs": lambda v: v + 1,
    "degenerate": lambda v: not v,
    "theorem_scale": lambda v: not v,
}


@pytest.mark.parametrize("key", list(_DERIVED_EDITS))
def test_layout_json_derived_keys_must_match_geometry(key):
    doc = plan_layout(64, 2, 2, Fraction(1, 2)).to_json()
    doc[key] = _DERIVED_EDITS[key](doc[key])
    with pytest.raises(ValueError, match=repr(key)):
        BlockLayout.from_json(doc)


def test_layout_json_refuses_boolean_ids():
    # False == 0 and True == 1, so a list compare alone would accept them
    doc = plan_layout(64, 2, 2, Fraction(1, 2)).to_json()
    assert doc["left_blocks"][0] == [0, 1, 2, 3]
    doc["left_blocks"][0] = [False, True, 2, 3]
    with pytest.raises(ValueError, match="'left_blocks'"):
        BlockLayout.from_json(doc)


def test_layout_json_geometry_must_fit():
    # residual -12: the blocks of this layout reach past vertex 31
    doc = BlockLayout(32, 2, 2, Fraction(1, 2), base=2, block_size=4).to_json()
    with pytest.raises(ValueError, match="does not fit in n=32"):
        BlockLayout.from_json(doc)


@pytest.mark.parametrize("key, value, message", [
    ("n", 0, "positive"), ("s", 0, "positive"), ("k", -1, "positive"),
    ("base", 0, "positive"), ("block_size", 0, "positive"),
    ("s", 10 ** 9, "does not fit"), ("base", 10 ** 6, "does not fit"),
    ("alpha", "0", "'alpha'"),
])
def test_layout_json_rejects_bad_sizes(key, value, message):
    doc = plan_layout(32, 2, 2, Fraction(1, 2)).to_json()
    doc[key] = value
    with pytest.raises(ValueError, match=message):
        BlockLayout.from_json(doc)


@pytest.mark.parametrize("s, k", [(2, 1), (1, 2), (1, 1)])
def test_layout_json_refuses_what_plan_layout_refuses(s, k):
    # this geometry fits in n = 20, but a layout needs s >= 2 and k >= 2
    doc = BlockLayout(20, s, k, Fraction(1, 2), base=2, block_size=1).to_json()
    with pytest.raises(ValueError, match="s, k >= 2"):
        BlockLayout.from_json(doc)


def test_min_member_rows_pass_validation():
    for n in range(64, 129):
        g = build_min_member(plan_layout(n, 2, 2, Fraction(1, 2))).graph
        assert g == Graph.from_edges(g.n, g.edges())
