import math
import time
from decimal import ROUND_CEILING, Decimal, getcontext

import numpy as np
import pytest

from ambsim import topology


def random_connected_graph(rng, n, extra=0.3):
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        j = int(order[k])
        i = int(order[rng.integers(0, k)])
        edges.add((min(i, j), max(i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.add((i, j))
    return topology.make_graph(n, edges)


def row_supports_oracle(p):
    # One np.flatnonzero per row: the reference the vectorized row supports match.
    n = p.shape[0]
    supports = [np.flatnonzero(p[i]) for i in range(n)]
    k = max(len(cols) for cols in supports)
    columns = np.tile(np.arange(n), (k, 1))
    weights = np.zeros((k, n))
    for i, cols in enumerate(supports):
        columns[: len(cols), i] = cols
        weights[: len(cols), i] = p[i, cols]
    return columns, weights


def bfs_connected(n, edges):
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


class TestGraph:
    def test_testbed_shape(self):
        g = topology.testbed_graph()
        assert g.n == 10
        assert len(g.edges) == 16

    def test_testbed_degree_of_hub(self):
        g = topology.testbed_graph()
        assert g.degree(1) == 6
        assert g.neighbor_lists()[1] == [0, 2, 3, 6, 7, 9]

    def test_testbed_is_built_once_with_its_documented_edges(self):
        g = topology.testbed_graph()
        assert topology.testbed_graph() is g
        assert g == topology.Graph(n=10, edges=frozenset({
            (1, 9), (0, 9), (8, 9), (5, 9), (5, 8), (4, 5), (3, 5), (0, 5),
            (0, 1), (1, 2), (1, 3), (1, 6), (1, 7), (6, 7), (3, 7), (2, 3)}))

    def test_testbed_connected_by_independent_bfs(self):
        g = topology.testbed_graph()
        assert bfs_connected(g.n, g.edges)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            topology.make_graph(4, [(0, 1), (2, 3)])

    def test_rejects_self_loop_and_out_of_range(self):
        with pytest.raises(ValueError, match="self loop"):
            topology.make_graph(3, [(0, 0), (0, 1), (1, 2)])
        with pytest.raises(ValueError, match="out of range"):
            topology.Graph(n=2, edges=frozenset({(0, 5)}))

    def test_duplicate_edges_collapse(self):
        g = topology.make_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert len(g.edges) == 2

    def test_single_node_is_connected(self):
        g = topology.make_graph(1, [])
        assert g.n == 1


class TestEdgeListFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n")
        g = topology.load_edge_list(path)
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 7\n")
        with pytest.raises(ValueError, match="out of range"):
            topology.load_edge_list(path)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1 2\n")
        with pytest.raises(ValueError, match="expected"):
            topology.load_edge_list(path)


class TestConsensusMatrix:
    def test_two_node_complete_by_hand(self):
        # Eigendecomposition of the 2x2 case done by hand: eigenvalues 1 and 0.5.
        g = topology.complete_graph(2)
        m = topology.weight_matrix(g, "metropolis")
        assert np.allclose(m, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        cm = topology.build_consensus_matrix(g)
        assert np.allclose(cm.matrix, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
        assert cm.lambda2 == pytest.approx(0.5, abs=1e-9)

    def test_single_node(self):
        cm = topology.build_consensus_matrix(topology.make_graph(1, []))
        assert cm.matrix.shape == (1, 1)
        assert cm.matrix[0, 0] == 1.0
        assert cm.lambda2 == 0.0

    @pytest.mark.parametrize("scheme", ["lazy-metropolis"])
    def test_invariants_on_random_graphs(self, scheme):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8, 13, 21):
            g = random_connected_graph(rng, n)
            cm = topology.build_consensus_matrix(g, scheme)
            p = cm.matrix
            ones = np.ones(n)
            assert np.abs(p @ ones - ones).max() <= 1e-12
            assert np.abs(ones @ p - ones).max() <= 1e-12
            assert np.linalg.eigvalsh(p)[0] >= -1e-10
            # support only on diagonal + edges
            allowed = g.adjacency() + np.eye(n)
            assert not np.any((p > 0) & (allowed == 0))
            if n > 1:
                assert 0.0 <= cm.lambda2 < 1.0

    def test_mean_preservation(self):
        rng = np.random.default_rng(3)
        g = topology.testbed_graph()
        p = topology.build_consensus_matrix(g).matrix
        for _ in range(20):
            v = rng.standard_normal(g.n)
            assert abs((p @ v).mean() - v.mean()) <= 1e-12

    def test_disagreement_contraction(self):
        rng = np.random.default_rng(11)
        g = topology.testbed_graph()
        cm = topology.build_consensus_matrix(g)
        p, lam = cm.matrix, cm.lambda2
        for _ in range(50):
            v = rng.standard_normal(g.n)
            bar = v.mean()
            lhs = np.linalg.norm(p @ v - bar)
            rhs = lam * np.linalg.norm(v - bar)
            assert lhs <= rhs * (1 + 1e-9)

    def test_uniform_scheme_rejected_when_not_psd(self):
        # The 4-cycle max-degree matrix has eigenvalue -1/3.
        with pytest.raises(ValueError, match="positive semidefinite"):
            topology.build_consensus_matrix(topology.ring_graph(4), "uniform")

    def test_uniform_scheme_on_star_is_valid(self):
        g = topology.make_graph(4, [(0, 1), (0, 2), (0, 3)])
        cm = topology.build_consensus_matrix(g, "uniform")
        assert np.linalg.eigvalsh(cm.matrix)[0] >= -1e-10

    def test_weight_matrix_matches_per_node_degree_reference(self):
        rng = np.random.default_rng(5)
        graphs = [topology.testbed_graph(), topology.ring_graph(7), topology.complete_graph(5),
                  random_connected_graph(rng, 12)]
        for g in graphs:
            deg = [g.degree(i) for i in range(g.n)]
            for scheme in topology.SCHEMES:
                ref = np.zeros((g.n, g.n))
                for i, j in g.edges:
                    if scheme == "uniform":
                        ref[i, j] = ref[j, i] = 1.0 / (max(deg) + 1.0)
                    else:
                        ref[i, j] = ref[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
                np.fill_diagonal(ref, 1.0 - ref.sum(axis=1))
                if scheme == "lazy-metropolis":
                    ref = (np.eye(g.n) + ref) / 2.0
                got = topology.weight_matrix(g, scheme)
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_row_supports_list_nonzeros_in_ascending_order(self):
        cm = topology.build_consensus_matrix(topology.testbed_graph())
        assert cm.columns.shape == cm.weights.shape == (7, 10)
        for i, neighbours in enumerate(topology.testbed_graph().neighbor_lists()):
            cols = sorted(neighbours + [i])
            assert list(cm.columns[: len(cols), i]) == cols
            assert np.array_equal(cm.weights[: len(cols), i], cm.matrix[i, cols])
            assert not cm.weights[len(cols):, i].any()
        rng = np.random.default_rng(29)
        empty_row = np.array([[0.5, 0.0, 0.5], [0.0, -0.0, 0.0], [0.5, 0.0, 0.5]])
        negative = np.array([[0.0, -0.25, 1.25], [-0.25, 0.0, 1.25], [1.25, 1.25, -1.5]])
        dense_row = np.diag([1.0, 2.0, 3.0, 4.0])
        dense_row[2] = [-1.0, 0.5, 2.0, 0.25]
        matrices = [np.ones((1, 1)), np.zeros((1, 1)), np.zeros((3, 3)), empty_row, negative,
                    dense_row, np.full((5, 5), 0.2)]
        for n in (2, 7, 16, 40):
            for density in (0.1, 0.5, 0.9):
                a = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
                matrices.append(a + a.T)
        for p in matrices:
            got, want = topology.row_supports(p), row_supports_oracle(p)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    def test_one_eigensolve_per_build(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        graphs = [topology.make_graph(1, []), topology.ring_graph(4), topology.testbed_graph()]
        for g in graphs:
            for scheme in topology.SCHEMES:
                calls.clear()
                try:
                    topology.build_consensus_matrix(g, scheme)
                except ValueError as exc:
                    assert "positive semidefinite" in str(exc)
                assert len(calls) == 1, (g.n, scheme)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown weighting scheme"):
            topology.weight_matrix(topology.complete_graph(3), "magic")


class TestSecondEigenvalue:
    def test_hand_case(self):
        assert topology.second_eigenvalue(np.array([[0.75, 0.25], [0.25, 0.75]])) == \
            pytest.approx(0.5, abs=1e-9)

    def test_identity_flags_degenerate(self):
        assert topology.second_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-9)

    def test_ring_against_dense_solver(self):
        cm = topology.build_consensus_matrix(topology.ring_graph(4))
        oracle = np.linalg.eigvalsh(cm.matrix)[-2]
        assert 0.0 < cm.lambda2 < 1.0
        assert cm.lambda2 == pytest.approx(oracle, abs=1e-9)

    def test_random_graphs_against_dense_solver(self):
        rng = np.random.default_rng(23)
        for n in (3, 6, 9, 17):
            g = random_connected_graph(rng, n)
            p = topology.weight_matrix(g, "lazy-metropolis")
            oracle = np.linalg.eigvalsh(p)[-2]
            assert topology.second_eigenvalue(p) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("scheme", ["metropolis", "uniform"])
    def test_tied_spectrum_returns_positive_third(self, scheme):
        # The 4-cycle's spectrum is {1, 1/3, 1/3, -1/3}: two eigenvalues tie
        # in modulus with opposite signs, which no power iteration settles.
        p = topology.weight_matrix(topology.ring_graph(4), scheme)
        start = time.perf_counter()
        lam = topology.second_eigenvalue(p)
        assert time.perf_counter() - start < 0.5
        assert lam == pytest.approx(1 / 3, abs=1e-12)
        assert lam == sorted(np.linalg.eigvalsh(p), key=abs)[-2]

    def test_testbed_metropolis_matches_reference_value(self):
        # Diagnostic: the plain metropolis weights on the testbed graph mix
        # with second eigenvalue about 0.888, the value reported for the
        # original 10-node deployment.
        p = topology.weight_matrix(topology.testbed_graph(), "metropolis")
        lam = topology.second_eigenvalue(p)
        oracle = sorted(np.linalg.eigvalsh(p), key=abs)[-2]
        assert lam == pytest.approx(oracle, abs=1e-9)
        assert lam == pytest.approx(0.888, abs=5e-4)


def rounds_oracle(n, lipschitz, eps, lam):
    getcontext().prec = 60
    arg = 2 * Decimal(n).sqrt() * (1 + 2 * Decimal(lipschitz) / Decimal(eps))
    value = arg.ln() / (1 - Decimal(str(lam)))
    return int(value.to_integral_value(rounding=ROUND_CEILING))


class TestMinConsensusRounds:
    def test_reference_case(self):
        assert topology.min_consensus_rounds(10, 1.0, 0.1, 0.888) == 44
        assert rounds_oracle(10, 1, Decimal("0.1"), "0.888") == 44

    def test_limiting_case(self):
        # eps so large the bracket tends to 1: ceil(ln 2) = 1.
        assert topology.min_consensus_rounds(1, 1.0, 1e12, 0.0) == 1

    def test_matches_arbitrary_precision_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            lip = float(rng.uniform(0.1, 5.0))
            eps = float(rng.uniform(1e-3, 2.0))
            lam = float(rng.uniform(0.0, 0.99))
            assert topology.min_consensus_rounds(n, lip, eps, lam) == \
                rounds_oracle(n, Decimal(str(lip)), Decimal(str(eps)), str(lam))

    def test_monotonicity(self):
        base = topology.min_consensus_rounds(10, 1.0, 0.1, 0.888)
        assert topology.min_consensus_rounds(10, 1.0, 0.2, 0.888) <= base
        assert topology.min_consensus_rounds(10, 1.0, 0.05, 0.888) >= base
        assert topology.min_consensus_rounds(10, 2.0, 0.1, 0.888) >= base
        assert topology.min_consensus_rounds(10, 1.0, 0.1, 0.9) >= base

    def test_rejects_non_mixing_matrix(self):
        with pytest.raises(ValueError, match="undefined"):
            topology.min_consensus_rounds(10, 1.0, 0.1, 1.0)
