import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddbook.graph import (
    Graph,
    GraphFormatError,
    bits,
    connected_components,
    decode_graph6,
    find_odd_cycle,
    first_edge_within,
    encode_graph6,
    induced_subgraph,
    is_independent,
    mask_of,
    random_graph,
    two_coloring,
)
from .conftest import petersen
from .oracles import (
    complete_graph,
    connected_components_ref,
    cycle_graph,
    decode_graph6_ref,
    encode_graph6_ref,
    find_odd_cycle_ref,
    path_graph,
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


def test_induced_subgraph_clique():
    k4 = complete_graph(4)
    sub, relabel = induced_subgraph(k4, mask_of([0, 1, 2]))
    assert sub == complete_graph(3)
    assert relabel == {0: 0, 1: 1, 2: 2}


def test_induced_subgraph_cycle_to_path():
    c5 = cycle_graph(5)
    sub, _ = induced_subgraph(c5, mask_of([0, 1, 2]))
    assert sub == path_graph(3)


def test_induced_subgraph_empty():
    g, relabel = induced_subgraph(complete_graph(4), 0)
    assert g.n == 0 and relabel == {}


def test_petersen_has_induced_five_cycles():
    # brute-force 5-subsets whose induced subgraph is a 5-cycle
    g = petersen()
    found = []
    for sub in combinations(range(10), 5):
        induced, _ = induced_subgraph(g, mask_of(sub))
        degs = sorted(induced.degree(v) for v in range(5))
        if degs == [2] * 5 and two_coloring(induced) is None:
            found.append(sub)
    assert found, "the Petersen graph contains induced 5-cycles"
    induced, _ = induced_subgraph(g, mask_of(found[0]))
    assert induced.num_edges() == 5


def test_is_independent():
    g = cycle_graph(5)
    assert is_independent(g, mask_of([0, 2]))
    assert not is_independent(g, mask_of([0, 1]))


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
    """The decoder returns the graph, or the error message and byte
    offset, of the binary-search reference, on valid encodings with
    short and 4-byte (n > 62) headers, with or without leading whitespace
    and the '>>graph6<<' prefix, and on corrupted copies of them."""
    rng = random.Random(seed)
    n = rng.choice([rng.randrange(0, 63), rng.randrange(63, 140)])
    lead = rng.choice([b"", b" ", b">>graph6<<", b" \n>>graph6<<"])
    data = bytearray(lead + encode_graph6(random_graph(n, rng.random(), rng)).encode())
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


G6_BOUNDARY_SIZES = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 62, 63, 64, 65,
                     127, 128, 129, 255, 256, 257]


@pytest.mark.parametrize("n", G6_BOUNDARY_SIZES)
def test_graph6_codec_matches_references_at_boundaries(n):
    """Around the short/long header switch (62/63) and each power-of-two
    transpose size: the encoder writes the reference's text, and the
    decoder returns the reference's graph, or its error message and byte
    offset on the first or every padding bit set, a cut body, a trailing
    byte and a bad last byte."""
    rng = random.Random(n)
    pad = -(n * (n - 1) // 2) % 6
    for g in (Graph(n), complete_graph(n), random_graph(n, 0.5, rng)):
        text = encode_graph6(g)
        assert text == encode_graph6_ref(g)
        assert decode_graph6(text) == decode_graph6_ref(text) == g
        data = text.encode()
        first_pad = bytes([(data[-1] - 63 | 1 << pad >> 1) + 63])
        bad = [data + b"?", data[:-1] + b"\x7f", data[:-1] + b"~", data[:-1],
               data[:-1] + first_pad]
        for corrupt in bad:
            assert _decode_outcome(decode_graph6, corrupt) == _decode_outcome(
                decode_graph6_ref, corrupt
            )


def test_graph6_non_ascii_text_rejected_with_offset():
    for text, offset in (("B\u00e9", 1), (" >>graph6<<B\u00e9", 12), ("B\ud800", 1)):
        with pytest.raises(GraphFormatError, match="non-ASCII") as exc:
            decode_graph6(text)
        assert exc.value.offset == offset
    with pytest.raises(GraphFormatError) as exc:
        decode_graph6(b"B\xe9")
    assert exc.value.offset == 1


@pytest.mark.parametrize("data, message, offset", [
    (b"  >>graph6<<B\x1f", "invalid byte in graph6 bit vector", 13),
    (b"~~ ??????", "invalid byte in graph6 size header", 2),
    (b"~?\x7f?", "invalid byte in graph6 size header", 2),
    (b" \t>>graph6<<?B", "trailing bytes after graph6 bit vector", 13),
])
def test_graph6_error_offset_names_the_byte_as_given(data, message, offset):
    """Offsets count from the first byte of the input, past any leading
    whitespace and prefix, and a bad size header names its bad byte."""
    for decode in (decode_graph6, decode_graph6_ref):
        with pytest.raises(GraphFormatError, match=message) as exc:
            decode(data)
        assert exc.value.offset == offset


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
# misc helpers


def test_two_coloring_restricted():
    g = cycle_graph(5)
    assert two_coloring(g) is None
    within = mask_of([0, 1, 2, 3])
    sides = two_coloring(g, within=within)
    assert sides is not None
    assert sides[0] | sides[1] == within


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 40))
@example(0, 0)
def test_bfs_helpers_match_reference(seed, n):
    """Odd cycle, coloring and components equal those of the hand-rolled
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
        assert find_odd_cycle(g, within) == find_odd_cycle_ref(g, within)
        assert two_coloring(g, within) == two_coloring_ref(g, within)
        assert connected_components(g, within) == connected_components_ref(g, within)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 14))
@example(0, 0)
def test_first_edge_within_is_first_inside_edge(seed, n):
    rng = random.Random(seed)
    g = random_graph(n, rng.choice([0.1, 0.3, 0.6]), rng)
    for mask in (0, g.vertex_mask, rng.getrandbits(n) if n else 0):
        inside = [(u, v) for u, v in combinations(range(n), 2)
                  if mask >> u & mask >> v & 1 and g.has_edge(u, v)]
        assert first_edge_within(g, mask) == min(inside, default=None)


def test_bits_and_mask_roundtrip():
    values = [0, 3, 17, 40]
    assert list(bits(mask_of(values))) == values
