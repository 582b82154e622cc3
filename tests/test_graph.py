"""Graph preprocessing and diffusion convolution against independent oracles."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcast import tensor as T
from flowcast.graph import (
    UNREACHABLE,
    GraphFormatError,
    RoadGraph,
    degree_normalize,
    hop_adjacency,
    hop_transitions,
    load_adjacency,
    multi_hop_conv,
    shortest_path_hops,
)
from flowcast.tensor import Tensor, backward

import ops
from gradcheck import grad_close, numeric_grad
from oracles import diffusion_conv


def floyd_warshall_hops(adj: np.ndarray) -> np.ndarray:
    """Independent all-pairs reference: unit edge costs, -1 if unreachable."""
    n = adj.shape[0]
    inf = n + 10
    dist = np.full((n, n), inf, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for i in range(n):
        for j in range(n):
            if i != j and adj[i, j] != 0:
                dist[i, j] = 1
    for mid in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, mid] + dist[mid, j] < dist[i, j]:
                    dist[i, j] = dist[i, mid] + dist[mid, j]
    dist[dist >= inf] = UNREACHABLE
    return dist


def random_graph(rng, n, density=0.15) -> RoadGraph:
    adj = (rng.random((n, n)) < density).astype(float) * rng.uniform(0.1, 2.0, (n, n))
    np.fill_diagonal(adj, 0.0)
    return RoadGraph.from_adjacency(adj)


def line_graph() -> RoadGraph:
    return RoadGraph(n_nodes=3, edges=[(0, 1, 1.0), (1, 2, 1.0)])


# ---------------------------------------------------------------------------
# Shortest hop distances

def test_line_graph_distances():
    s = shortest_path_hops(line_graph())
    u = UNREACHABLE
    assert s.tolist() == [[0, 1, 2], [u, 0, 1], [u, u, 0]]


def test_empty_graph_distances():
    s = shortest_path_hops(RoadGraph(n_nodes=3, edges=[]))
    assert np.array_equal(np.diag(s), np.zeros(3))
    off = s[~np.eye(3, dtype=bool)]
    assert np.all(off == UNREACHABLE)


def test_bfs_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, density=float(rng.uniform(0.05, 0.3)))
        assert np.array_equal(shortest_path_hops(g), floyd_warshall_hops(g.adjacency))


# ---------------------------------------------------------------------------
# Hop shells

def test_line_graph_hops():
    hops = hop_adjacency(shortest_path_hops(line_graph()), k=2)
    h1, h2 = hops
    assert h1[0, 1] == 1 and h1[1, 2] == 1 and h1.sum() == 2
    assert h2[0, 2] == 1 and h2.sum() == 1


def test_k1_equals_binarized_adjacency():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 12, density=0.2)
    hops = hop_adjacency(shortest_path_hops(g), k=1)
    binarized = (g.adjacency != 0).astype(float)
    np.fill_diagonal(binarized, 0.0)
    assert np.array_equal(hops[0], binarized)


def test_hop_union_covers_reachable_pairs_and_shells_are_disjoint():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, 6))
        g = random_graph(rng, n)
        s = shortest_path_hops(g)
        hops = hop_adjacency(s, k)
        union = hops.sum(axis=0)
        expected = ((s >= 1) & (s <= k)).astype(float)
        assert np.array_equal(union, expected)  # disjoint => sum == union
        for i in range(k):
            assert np.all(np.diag(hops[i]) == 0)
            for j in range(i + 1, k):
                assert np.all(hops[i] * hops[j] == 0)


# ---------------------------------------------------------------------------
# Degree normalization

def test_degree_normalize_out():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert degree_normalize(h, "out").tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_degree_normalize_in_transposes_then_normalizes():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert degree_normalize(h, "in").tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_degree_normalize_rows_stochastic():
    rng = np.random.default_rng(21)
    h = rng.random((10, 10)) * (rng.random((10, 10)) < 0.4)
    for direction in ("out", "in"):
        rows = degree_normalize(h, direction).sum(axis=1)
        nonzero = rows[rows > 0]
        assert np.max(np.abs(nonzero - 1.0)) <= 1e-12


def test_degree_normalize_zero_rows_stay_zero():
    h = np.zeros((3, 3))
    h[0, 1] = 2.0
    out = degree_normalize(h, "out")
    assert np.array_equal(out[1], np.zeros(3))
    assert np.array_equal(out[2], np.zeros(3))


# ---------------------------------------------------------------------------
# Diffusion convolution

def test_diffusion_conv_k0_is_twice_xw():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 3)))
    a = rng.random((4, 4))
    out = diffusion_conv(x, a, 0, w)
    assert np.array_equal(out.data, 2.0 * (x.data @ w.data))


def test_diffusion_conv_hand_example():
    x = Tensor([[1.0], [2.0]])
    w = Tensor([[1.0]])
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = diffusion_conv(x, a, 1, w)
    assert out.data.tolist() == [[2.0], [1.0]]


def test_diffusion_conv_matches_matrix_power_oracle():
    rng = np.random.default_rng(8)
    n, f, k = 6, 4, 3
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    x = rng.normal(size=(n, f))
    w = rng.normal(size=(f, f))

    def normalize(mat):
        deg = mat.sum(axis=1)
        inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
        return inv[:, None] * mat

    expected = (
        np.linalg.matrix_power(normalize(a), k)
        + np.linalg.matrix_power(normalize(a.T), k)
    ) @ x @ w
    out = diffusion_conv(Tensor(x), a, k, Tensor(w))
    assert np.max(np.abs(out.data - expected)) < 1e-10


# ---------------------------------------------------------------------------
# Multi-hop convolution

def _head_weights(rng, f, k):
    return [T.param(rng.normal(size=(f, f // k))) for _ in range(k)]


def test_multi_hop_conv_no_edges_gives_zero():
    rng = np.random.default_rng(14)
    f, n, k = 4, 5, 2
    g = RoadGraph(n_nodes=n, edges=[])
    trans = hop_transitions(hop_adjacency(shortest_path_hops(g), k))
    out = multi_hop_conv(
        Tensor(rng.normal(size=(n, f))),
        trans,
        _head_weights(rng, f, k),
        T.param(rng.normal(size=(f, f))),
    )
    assert np.array_equal(out.data, np.zeros((n, f)))


def test_multi_hop_conv_k1_equals_diffusion_conv():
    rng = np.random.default_rng(15)
    n, f = 6, 4
    adj = (rng.random((n, n)) < 0.4).astype(float)  # binary weights
    np.fill_diagonal(adj, 0.0)
    g = RoadGraph.from_adjacency(adj)
    trans = hop_transitions(hop_adjacency(shortest_path_hops(g), k=1))
    x = Tensor(rng.normal(size=(n, f)))
    w = Tensor(rng.normal(size=(f, f)))

    via_hops = multi_hop_conv(x, trans, [Tensor(np.eye(f))], w)
    via_diffusion = diffusion_conv(x, adj, 1, w)
    assert np.max(np.abs(via_hops.data - via_diffusion.data)) < 1e-12


def test_multi_hop_conv_matches_dense_reference():
    rng = np.random.default_rng(16)
    n, f, k = 5, 6, 2
    g = random_graph(rng, n, density=0.4)
    s = shortest_path_hops(g)
    hops = hop_adjacency(s, k)
    x = rng.normal(size=(n, f))
    w_x = [rng.normal(size=(f, f // k)) for _ in range(k)]
    w_d = rng.normal(size=(f, f))

    # dense reference: explicit degree inversions, no shared helpers
    heads = []
    for i in range(k):
        h = hops[i]
        d_out = h.sum(axis=1)
        d_in = h.T.sum(axis=1)
        fwd = np.where(d_out[:, None] > 0, h / np.where(d_out, d_out, 1)[:, None], 0)
        bwd = np.where(d_in[:, None] > 0, h.T / np.where(d_in, d_in, 1)[:, None], 0)
        heads.append((fwd + bwd) @ (x @ w_x[i]))
    expected = np.concatenate(heads, axis=1) @ w_d

    out = multi_hop_conv(
        Tensor(x), hop_transitions(hops), [Tensor(w) for w in w_x], Tensor(w_d)
    )
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_multi_hop_conv_permutation_equivariance():
    rng = np.random.default_rng(19)
    n, f, k = 7, 4, 2
    g = random_graph(rng, n, density=0.35)
    x = rng.normal(size=(n, f))
    w_x = [Tensor(rng.normal(size=(f, f // k))) for _ in range(k)]
    w_d = Tensor(rng.normal(size=(f, f)))

    perm = rng.permutation(n)
    p_mat = np.eye(n)[perm]
    g_perm = RoadGraph.from_adjacency(p_mat @ g.adjacency @ p_mat.T)

    out = multi_hop_conv(
        Tensor(x), hop_transitions(hop_adjacency(shortest_path_hops(g), k)), w_x, w_d
    ).data
    out_perm = multi_hop_conv(
        Tensor(p_mat @ x),
        hop_transitions(hop_adjacency(shortest_path_hops(g_perm), k)),
        w_x,
        w_d,
    ).data
    assert np.max(np.abs(out_perm - p_mat @ out)) < 1e-10


def test_multi_hop_conv_over_leading_axes_equals_per_step_calls():
    rng = np.random.default_rng(21)
    n, f, k = 5, 4, 2
    trans = hop_transitions(hop_adjacency(shortest_path_hops(random_graph(rng, n, 0.4)), k))
    w_x = _head_weights(rng, f, k)
    w_d = T.param(rng.normal(size=(f, f)))
    x = rng.normal(size=(2, 3, n, f))  # (B, T, N, F)
    out = multi_hop_conv(Tensor(x), trans, w_x, w_d).data
    for b in range(2):
        for t in range(3):
            step = multi_hop_conv(Tensor(x[b, t]), trans, w_x, w_d).data
            assert np.max(np.abs(out[b, t] - step)) <= 1e-12


def test_multi_hop_conv_gradients():
    rng = np.random.default_rng(20)
    n, f, k = 4, 4, 2
    g = random_graph(rng, n, density=0.5)
    trans = hop_transitions(hop_adjacency(shortest_path_hops(g), k))
    x = T.param(rng.normal(size=(n, f)))
    w_x = _head_weights(rng, f, k)
    w_d = T.param(rng.normal(size=(f, f)))
    c = Tensor(rng.normal(size=(n, f)))

    backward(ops.sum_(ops.mul(multi_hop_conv(x, trans, w_x, w_d), c)))

    def forward():
        return (multi_hop_conv(x, trans, w_x, w_d).data * c.data).sum()

    for t in [x, w_d, *w_x]:
        assert grad_close(t.grad, numeric_grad(forward, t.data))


# ---------------------------------------------------------------------------
# Adjacency file parsing

def test_load_adjacency_round_trip(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1,0.5\n1,2,2.0\n2,0,1.0\n")
    g = load_adjacency(path)
    assert g.n_nodes == 3
    assert g.adjacency[0, 1] == 0.5 and g.adjacency[2, 0] == 1.0


def test_load_adjacency_header_and_n_declaration(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("N=5\nsrc,dst,weight\n0,1,1.0\n")
    g = load_adjacency(path)
    assert g.n_nodes == 5
    assert g.adjacency[0, 1] == 1.0


def test_load_adjacency_malformed_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1,1.0\n3,zzz\n")
    with pytest.raises(GraphFormatError, match="2"):
        load_adjacency(path)


def test_load_adjacency_bad_node_count_names_file_and_line(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1,1.0\nN=abc\n")
    with pytest.raises(GraphFormatError, match=r"edges\.csv:2:"):
        load_adjacency(path)


@pytest.mark.parametrize("content, message", [
    (b"0,1,1.0\n1,\xff,1.0\n", r"edges\.csv: not UTF-8 text$"),
    (b"N=2\n-1,0,1.0\n", r"edges\.csv:2: edge \(-1,0\) out of range for N=2$"),
    (b"0,1,1.0\n1,2,1.0\nN=2\n", r"edges\.csv:2: edge \(1,2\) out of range for N=2$"),
    (b"0,1,nan\n", r"edges\.csv:1: edge weight must be finite and >= 0, got 'nan'$"),
    (b"0,1,-0.5\n", r"edges\.csv:1: edge weight must be finite and >= 0"),
    (b"N=0\n", r"edges\.csv:1: node count must be a positive integer"),
    # numpy refuses this size before allocating anything
    (b"N=1000000000000\n0,1,1.0\n", r"edges\.csv: N=1000000000000 is too large"),
], ids=["not-utf8", "negative-index", "index-past-declared-n", "nan-weight",
        "negative-weight", "zero-nodes", "too-many-nodes"])
def test_load_adjacency_bad_values_name_file_and_line(tmp_path, content, message):
    path = tmp_path / "edges.csv"
    path.write_bytes(content)
    with pytest.raises(GraphFormatError, match=message):
        load_adjacency(path)


_EDGE_LINES = st.one_of(
    st.tuples(
        st.integers(-2, 6).map(str), st.integers(-2, 6).map(str),
        st.sampled_from(["1", "0", "-1", "0.5", "nan", "inf", "x", ""]),
    ).map(",".join),
    st.integers(-2, 6).map(lambda n: f"N={n}"),
    st.sampled_from(["src,dst,weight", "# note", "N=x", "1,2", "\xff"]),
)


@given(content=st.one_of(
    st.text(),
    st.binary(),
    st.lists(_EDGE_LINES, max_size=6).map("\n".join),
))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_adjacency_fuzz_raises_only_graph_format_errors(tmp_path, content):
    path = tmp_path / "edges.csv"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)
    try:
        graph = load_adjacency(path)
    except GraphFormatError as err:
        assert str(path) in str(err)
    else:
        adj = graph.adjacency
        assert adj.shape == (graph.n_nodes,) * 2 and np.all(np.isfinite(adj) & (adj >= 0))
