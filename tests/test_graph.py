import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddbook.graph import (
    Graph,
    GraphFormatError,
    bfs_distances,
    bits,
    complete_bipartite,
    complete_graph,
    connected_components,
    count_edges_between,
    cycle_graph,
    decode_edge_list,
    decode_graph6,
    encode_edge_list,
    encode_graph6,
    induced_subgraph,
    is_independent,
    mask_of,
    non_edges_between,
    path_graph,
    random_graph,
    two_coloring,
)
from .conftest import petersen
from .oracles import (
    bfs_distances_ref,
    connected_components_ref,
    decode_graph6_ref,
    two_coloring_ref,
)


def test_mutation_keeps_symmetry():
    g = Graph(5)
    g.add_edge(0, 3)
    g.add_edge(3, 4)
    assert g.has_edge(3, 0) and g.has_edge(4, 3)
    g.delete_edge(0, 3)
    assert not g.has_edge(3, 0)
    assert g.degree(3) == 1


def test_self_loop_rejected():
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_from_adjacency_validates():
    with pytest.raises(ValueError):
        Graph.from_adjacency([0b010, 0b000, 0b000])  # asymmetric


def test_induced_subgraph_clique():
    k4 = complete_graph(4)
    sub, relabel = induced_subgraph(k4, [0, 1, 2])
    assert sub == complete_graph(3)
    assert relabel == {0: 0, 1: 1, 2: 2}


def test_induced_subgraph_cycle_to_path():
    c5 = cycle_graph(5)
    sub, _ = induced_subgraph(c5, [0, 1, 2])
    assert sub == path_graph(3)


def test_induced_subgraph_empty():
    g, relabel = induced_subgraph(complete_graph(4), [])
    assert g.n == 0 and relabel == {}


def test_petersen_has_induced_five_cycles():
    # brute-force 5-subsets whose induced subgraph is a 5-cycle
    g = petersen()
    found = []
    for sub in combinations(range(10), 5):
        induced, _ = induced_subgraph(g, sub)
        degs = sorted(induced.degree(v) for v in range(5))
        if degs == [2] * 5 and two_coloring(induced) is None:
            found.append(sub)
    assert found, "the Petersen graph contains induced 5-cycles"
    induced, _ = induced_subgraph(g, found[0])
    assert induced.num_edges() == 5


def test_non_edges_complete_bipartite():
    g = complete_bipartite(3, 3)
    assert non_edges_between(g, [0, 1, 2], [3, 4, 5]) == []


def test_non_edges_empty_graph():
    g = Graph(4)
    assert non_edges_between(g, [0, 1], [2, 3]) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_non_edges_six_cycle_parts():
    # parts {0,2,4} and {1,3,5} of C6: 9 pairs minus 6 cycle edges
    g = cycle_graph(6)
    missing = non_edges_between(g, [0, 2, 4], [1, 3, 5])
    assert len(missing) == 3


def test_non_edges_rejects_overlap():
    g = Graph(4)
    with pytest.raises(ValueError):
        non_edges_between(g, [0, 1], [1, 2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_edge_complement_identity(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 12)
    g = random_graph(n, rng.random(), rng)
    cut = rng.randrange(1, n)
    a = mask_of(range(cut))
    b = mask_of(range(cut, n))
    assert count_edges_between(g, a, b) + len(non_edges_between(g, a, b)) == cut * (n - cut)


def test_is_independent():
    g = cycle_graph(5)
    assert is_independent(g, [0, 2])
    assert not is_independent(g, [0, 1])


# ---------------------------------------------------------------------------
# graph6


def test_graph6_k3_frozen():
    assert encode_graph6(complete_graph(3)) == "Bw"


def test_graph6_singleton_frozen():
    assert encode_graph6(Graph(1)) == "@"


def test_graph6_empty():
    assert encode_graph6(Graph(0)) == "?"
    assert decode_graph6("?").n == 0


def test_graph6_roundtrip_random_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_graph(20, 0.5, rng)
        assert decode_graph6(encode_graph6(g)) == g


def test_graph6_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1234)
    for _ in range(50):
        n = rng.randrange(0, 24)
        g = random_graph(n, rng.random(), rng)
        ng = nx.Graph()
        ng.add_nodes_from(range(n))
        ng.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert encode_graph6(g) == theirs
        back = decode_graph6(theirs)
        assert back == g


def test_graph6_medium_header():
    g = path_graph(63)
    text = encode_graph6(g)
    assert text.startswith("~")
    assert decode_graph6(text) == g


def test_graph6_header_prefix_accepted():
    g = complete_graph(3)
    assert decode_graph6(">>graph6<<Bw") == g


def test_graph6_truncated_reports_offset():
    with pytest.raises(GraphFormatError) as exc:
        decode_graph6("B")  # K3-sized header but no body
    assert exc.value.offset is not None


def test_graph6_trailing_garbage_rejected():
    with pytest.raises(GraphFormatError):
        decode_graph6("Bww")


def test_graph6_bad_byte_rejected():
    with pytest.raises(GraphFormatError):
        decode_graph6("B\x1f")


def test_graph6_nonzero_padding_rejected():
    # K3 body with a padding bit set: 111111 -> chr(63+63)
    with pytest.raises(GraphFormatError):
        decode_graph6("B~")


def _decode_outcome(decode, data):
    try:
        return decode(data)
    except GraphFormatError as exc:
        return str(exc), exc.offset


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_graph6_decode_matches_reference(seed):
    """The in-order decoder returns the graph, or the error message and
    byte offset, of the binary-search reference, on valid encodings with
    short and 4-byte (n > 62) headers and on corrupted copies of them."""
    rng = random.Random(seed)
    n = rng.choice([rng.randrange(0, 63), rng.randrange(63, 140)])
    data = bytearray(encode_graph6(random_graph(n, rng.random(), rng)).encode())
    assert decode_graph6(bytes(data)) == decode_graph6_ref(bytes(data))
    # an all-ones last byte sets every padding bit
    corrupted = [bytes(data[:-1]) + b"~"]
    for _ in range(3):
        bad = bytearray(data)
        i = rng.randrange(len(bad))
        bad[i] = rng.choice([rng.randrange(256), 126, 62, 63 + rng.randrange(64)])
        if rng.random() < 0.3:
            del bad[rng.randrange(len(bad)):]
        corrupted.append(bytes(bad))
    for bad in corrupted:
        assert _decode_outcome(decode_graph6, bad) == _decode_outcome(decode_graph6_ref, bad)


def test_graph6_huge_header_with_short_body_fails_at_once():
    # "~~" plus six size bytes of 63 declares n = 2^36 - 1; the length
    # check must reject the three-byte body before anything is allocated
    with pytest.raises(GraphFormatError, match="truncated graph6 bit vector") as exc:
        decode_graph6("~~" + "~" * 6 + "???")
    assert exc.value.offset == 11


def test_encode_cap():
    g = Graph(2 ** 18 + 1)
    with pytest.raises(ValueError):
        encode_graph6(g)


# ---------------------------------------------------------------------------
# edge-list text format


def test_edge_list_roundtrip():
    g = petersen()
    assert decode_edge_list(encode_edge_list(g)) == g


def test_edge_list_header_mismatch():
    with pytest.raises(GraphFormatError):
        decode_edge_list("3 2\n0 1\n")


def test_edge_list_duplicate_edge():
    with pytest.raises(GraphFormatError):
        decode_edge_list("3 2\n0 1\n1 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("-1 0\n", "negative vertex count"),
        ("3 1\n0 x\n", "non-integer vertex"),
        ("3 1\n5 0\n", "vertex out of range"),
        ("3 1\n3 0\n", "vertex out of range"),
        ("3 1\n0 3\n", "vertex out of range"),
        ("3 1\n-1 0\n", "vertex out of range"),
        ("3 1\n2 2\n", "self-loop"),
        ("3 2\n0 2\n2 0\n", "duplicate edge"),
    ],
)
def test_edge_list_hostile_lines(text, message):
    with pytest.raises(GraphFormatError, match=message):
        decode_edge_list(text)


# ---------------------------------------------------------------------------
# misc helpers


def test_two_coloring_restricted():
    g = cycle_graph(5)
    assert two_coloring(g) is None
    within = mask_of([0, 1, 2, 3])
    sides = two_coloring(g, within=within)
    assert sides is not None
    assert sides[0] | sides[1] == within


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 15))
@example(0, 0)
def test_bfs_helpers_match_reference(seed, n):
    """Coloring, distances and components equal those of the hand-rolled
    loops they replaced, on the whole graph and inside random masks."""
    rng = random.Random(seed)
    g = random_graph(n, rng.choice([0.1, 0.25, 0.5]), rng)
    if rng.random() < 0.3:
        # a bipartite host, so the coloring is not always None
        left = rng.getrandbits(n) if n else 0
        for u, v in list(g.edges()):
            if (left >> u ^ left >> v) & 1 == 0:
                g.delete_edge(u, v)
    for within in (None, rng.getrandbits(n) if n else 0):
        assert two_coloring(g, within) == two_coloring_ref(g, within)
        assert connected_components(g, within) == connected_components_ref(g, within)
        for source in range(n):
            assert bfs_distances(g, source, within) == bfs_distances_ref(g, source, within)


def test_bits_and_mask_roundtrip():
    values = [0, 3, 17, 40]
    assert list(bits(mask_of(values))) == values
