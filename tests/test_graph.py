"""Graph preprocessing and diffusion convolution against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcast import tensor as T
from flowcast.graph import (
    GraphFormatError,
    RoadGraph,
    hop_shells,
    hop_transitions,
    load_adjacency,
    multi_hop_conv,
    row_normalize,
)
from flowcast.synth import make_ring_dataset, ring_graph, write_dataset_files
from flowcast.tensor import ShapeError, Tensor, backward

import ops
import oracles
from gradcheck import grad_close, numeric_grad
from oracles import (
    UNREACHABLE,
    diffusion_conv,
    graph_from_edges,
    hop_adjacency,
    shortest_path_hops,
)


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
    return RoadGraph(adj)


def line_graph() -> RoadGraph:
    return graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


# ---------------------------------------------------------------------------
# Shortest hop distances

def test_line_graph_distances():
    s = shortest_path_hops(line_graph())
    u = UNREACHABLE
    assert s.tolist() == [[0, 1, 2], [u, 0, 1], [u, u, 0]]


def test_empty_graph_distances():
    s = shortest_path_hops(RoadGraph(np.zeros((3, 3))))
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
    hops = hop_shells(line_graph(), k=2)
    h1, h2 = hops
    assert h1[0, 1] == 1 and h1[1, 2] == 1 and h1.sum() == 2
    assert h2[0, 2] == 1 and h2.sum() == 1


def test_k1_equals_binarized_adjacency():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 12, density=0.2)
    hops = hop_shells(g, k=1)
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
        hops = hop_shells(g, k)
        union = hops.sum(axis=0)
        expected = ((s >= 1) & (s <= k)).astype(float)
        assert np.array_equal(union, expected)  # disjoint => sum == union
        for i in range(k):
            assert np.all(np.diag(hops[i]) == 0)
            for j in range(i + 1, k):
                assert np.all(hops[i] * hops[j] == 0)


_GRAPHS = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        max_size=3 * n,
    ),
    st.integers(0, 3),
    st.integers(1, n + 2),
))


@given(case=_GRAPHS)
@settings(max_examples=200, deadline=None)
def test_hop_shells_match_the_bfs_distance_oracle(case):
    n, edges, zeroed, k = case
    # node n has no edge, so every graph has an isolated node; self-loops,
    # zero weights and repeated edges come from the draw, and the first
    # ``zeroed`` edges repeat once more with weight 0, which removes them,
    # as a last line does in an adjacency file; k runs past the diameter,
    # which is at most n - 1
    edges = edges + [(src, dst, 0.0) for src, dst, _ in edges[:zeroed]]
    g = graph_from_edges(n + 1, edges)
    hops = hop_shells(g, k)
    assert hops.dtype == bool and hops.shape == (k, n + 1, n + 1)
    assert np.array_equal(hops, hop_adjacency(shortest_path_hops(g), k) != 0)


def test_hop_shells_reject_k_below_one():
    with pytest.raises(ValueError, match="k must be >= 1"):
        hop_shells(line_graph(), 0)


# ---------------------------------------------------------------------------
# Degree normalization

def test_degree_normalize_out():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert row_normalize(h).tolist() == [[0.0, 1.0], [0.0, 0.0]]


def test_degree_normalize_in_transposes_then_normalizes():
    h = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert row_normalize(h.T).tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_degree_normalize_rows_stochastic():
    rng = np.random.default_rng(21)
    h = rng.random((10, 10)) * (rng.random((10, 10)) < 0.4)
    for mat in (h, h.T):
        rows = row_normalize(mat).sum(axis=1)
        nonzero = rows[rows > 0]
        assert np.max(np.abs(nonzero - 1.0)) <= 1e-12


def test_degree_normalize_zero_rows_stay_zero():
    h = np.zeros((3, 3))
    h[0, 1] = 2.0
    out = row_normalize(h)
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
    g = RoadGraph(np.zeros((n, n)))
    trans = hop_transitions(hop_shells(g, k))
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
    g = RoadGraph(adj)
    trans = hop_transitions(hop_shells(g, k=1))
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
    g_perm = RoadGraph(p_mat @ g.adjacency @ p_mat.T)

    out = multi_hop_conv(
        Tensor(x), hop_transitions(hop_shells(g, k)), w_x, w_d
    ).data
    out_perm = multi_hop_conv(
        Tensor(p_mat @ x),
        hop_transitions(hop_shells(g_perm, k)),
        w_x,
        w_d,
    ).data
    assert np.max(np.abs(out_perm - p_mat @ out)) < 1e-10


def test_multi_hop_conv_over_leading_axes_equals_per_step_calls():
    rng = np.random.default_rng(21)
    n, f, k = 5, 4, 2
    trans = hop_transitions(hop_shells(random_graph(rng, n, 0.4), k))
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
    trans = hop_transitions(hop_shells(g, k))
    x = T.param(rng.normal(size=(n, f)))
    w_x = _head_weights(rng, f, k)
    w_d = T.param(rng.normal(size=(f, f)))
    c = Tensor(rng.normal(size=(n, f)))

    backward(ops.sum_(ops.mul(multi_hop_conv(x, trans, w_x, w_d), c)))

    def forward():
        return (multi_hop_conv(x, trans, w_x, w_d).data * c.data).sum()

    for t in [x, w_d, *w_x]:
        assert grad_close(t.grad, numeric_grad(forward, t.data))


@pytest.mark.parametrize("untracked", ["none", "x", "w_x", "w_d"])
def test_multi_hop_conv_matches_composed_oracle(untracked):
    rng = np.random.default_rng(22)
    n, f, k = 6, 8, 4
    trans = hop_transitions(hop_shells(random_graph(rng, n, 0.35), k))
    x = rng.normal(size=(2, 3, n, f))  # (B, T, N, F)
    w_x = [rng.normal(size=(f, f // k)) for _ in range(k)]
    w_d = rng.normal(size=(f, f))
    c = Tensor(rng.normal(size=(2, 3, n, f)))

    def run(conv):
        xt = Tensor(x, requires_grad=untracked != "x")
        wts = [Tensor(w, requires_grad=(untracked, i) != ("w_x", 1)) for i, w in enumerate(w_x)]
        wd = Tensor(w_d, requires_grad=untracked != "w_d")
        out = conv(xt, trans, wts, wd)
        backward(ops.sum_(ops.mul(out, c)))
        return out.data, [t.grad for t in (xt, *wts, wd)]

    out, grads = run(multi_hop_conv)
    want, want_grads = run(oracles.multi_hop_conv)
    assert out.tobytes() == want.tobytes()
    assert [g is None for g in grads] == [g is None for g in want_grads]
    assert sum(g is None for g in grads) == (untracked != "none")
    for got, ref in zip(grads, want_grads):
        if ref is not None:
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_multi_hop_conv_under_no_grad_builds_no_node():
    rng = np.random.default_rng(23)
    trans = hop_transitions(hop_shells(line_graph(), 2))
    with T.no_grad():
        out = multi_hop_conv(
            T.param(rng.normal(size=(3, 4))), trans, _head_weights(rng, 4, 2),
            T.param(rng.normal(size=(4, 4))),
        )
    assert out.parents == () and not out.requires_grad


def test_multi_hop_conv_keeps_one_feature_array():
    # ref shape: 12 steps of 228 nodes at width 128 over 8 hop shells
    rng = np.random.default_rng(24)
    n, f, k = 228, 128, 8
    trans = hop_transitions(hop_shells(ring_graph(n), k))
    x = T.param(rng.normal(size=(1, 12, n, f)))
    w_x = [T.param(rng.uniform(-0.1, 0.1, (f, f // k))) for _ in range(k)]
    w_d = T.param(rng.uniform(-0.1, 0.1, (f, f)))
    tracemalloc.start()
    try:
        out = multi_hop_conv(x, trans, w_x, w_d)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond its output, the node keeps the heads' buffer, as large as x,
    # and the stacked (F, F) head weights; the composed form kept 3 times x
    assert held - out.data.nbytes <= x.data.nbytes + w_d.data.nbytes + 4096


def test_multi_hop_conv_rejects_shapes_that_do_not_fit():
    trans = hop_transitions(hop_shells(line_graph(), 2))  # 3 nodes
    w_x, w_d = [Tensor(np.ones((4, 2)))] * 2, Tensor(np.ones((4, 4)))
    with pytest.raises(ShapeError, match="do not fit"):
        multi_hop_conv(Tensor(np.ones((5, 4))), trans, w_x, w_d)
    with pytest.raises(ShapeError, match="do not fit"):
        multi_hop_conv(Tensor(np.ones((3, 3))), trans, w_x, w_d)
    with pytest.raises(ShapeError, match="do not fit"):
        multi_hop_conv(Tensor(np.ones(4)), trans, w_x, w_d)
    with pytest.raises(ShapeError, match="expected 2 head weights, got 1"):
        multi_hop_conv(Tensor(np.ones((3, 4))), trans, w_x[:1], w_d)


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


def test_load_adjacency_repeated_edge_takes_its_last_lines_weight(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1,0.5\n1,2,2.0\n0,1,3.0\n1,2,0\n")
    g = load_adjacency(path)
    assert g.adjacency.tolist() == [[0.0, 3.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert np.array_equal(hop_shells(g, 1)[0], g.adjacency != 0)


@pytest.mark.parametrize("graph", [ring_graph(8), random_graph(np.random.default_rng(31), 12, 0.3)],
                         ids=["ring", "random-weights"])
def test_written_adjacency_loads_back_byte_for_byte(tmp_path, graph):
    # each weight is written as a Python float's repr: a numpy scalar's
    # repr (np.float64(...) under numpy 2) would not parse back
    dataset, _ = make_ring_dataset(n_nodes=graph.n_nodes, steps=4)
    paths = write_dataset_files(tmp_path, dataset, graph)
    assert load_adjacency(paths["adjacency"]).adjacency.tobytes() == graph.adjacency.tobytes()


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


@pytest.mark.parametrize("weight, message", [
    (-0.5, r"^edge \(1,2\) weight must be finite and >= 0, got -0\.5$"),
    (float("nan"), r"^edge \(1,2\) weight must be finite and >= 0, got nan$"),
    (float("inf"), r"^edge \(1,2\) weight must be finite and >= 0, got inf$"),
], ids=["negative-weight", "nan-weight", "inf-weight"])
def test_road_graph_rejects_bad_edges_before_filling_the_adjacency(weight, message):
    # as load_adjacency does per line, the graph refuses a bad weight in the
    # matrix it is built from, so no consumer reads it; a bad node index
    # cannot reach a matrix, and load_adjacency names its file and line
    adj = np.zeros((3, 3))
    adj[0, 1], adj[1, 2] = 1.0, weight
    with pytest.raises(ValueError, match=message):
        RoadGraph(adj)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0), (2, 2, 2)],
                         ids=["non-square", "vector", "empty", "stack"])
def test_road_graph_rejects_an_adjacency_that_is_not_a_square_matrix(shape):
    with pytest.raises(ValueError, match=r"^adjacency must be a non-empty square matrix"):
        RoadGraph(np.ones(shape))


def test_road_graph_holds_a_read_only_copy_of_its_matrix():
    # a write into the caller's array, or into the graph's, would skip the
    # weight check and split the graph from the GraphInputs built from it
    adj = np.zeros((3, 3))
    adj[0, 1] = 1.0
    g = RoadGraph(adj)
    adj[0, 1] = np.inf
    assert g.adjacency[0, 1] == 1.0 and g.adjacency.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        g.adjacency[1, 2] = np.nan


def test_road_graphs_compare_by_identity():
    # the generated field-wise == would ask numpy for one truth value of a matrix
    g = RoadGraph(np.ones((2, 2)))
    assert g == g and g != RoadGraph(np.ones((2, 2)))
    assert g in [RoadGraph(np.ones((2, 2))), g]


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
