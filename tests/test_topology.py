"""Graph construction and Metropolis weights, with the contraction factor
of the weights from the test oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqn_mesh.topology import (
    CommGraph,
    load_graph,
    metropolis_weights,
    random_connected_graph,
    save_graph,
)
from oracle import spectral_contraction


def tree_safe_kappa(n, kappa):
    # keep the edge target at or above the spanning-tree minimum
    return min(1.0, max(kappa, (2.0 * n - 1.0) / (n * (n - 1.0))))


def neighbors(graph, i):
    # agents adjacent to i, i excluded, read off the edge list
    out = [b for a, b in graph.edges if a == i] + [a for a, b in graph.edges if b == i]
    return tuple(sorted(out))


def connectivity_ratio(graph):
    # fraction of all agent pairs that share an edge
    total_pairs = graph.n_agents * (graph.n_agents - 1) / 2
    return len(graph.edges) / total_pairs


def bfs_connected(n_agents, edges):
    # independent connectivity oracle for the union-find in CommGraph
    adj = {i: set() for i in range(n_agents)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(seen) == n_agents


class TestCommGraph:
    def test_canonicalizes_edges(self):
        g = CommGraph(3, ((2, 0), (1, 2)))
        assert g.edges == ((0, 2), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            CommGraph(3, ((0, 0), (0, 1), (1, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CommGraph(3, ((0, 3), (0, 1), (1, 2)))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            CommGraph(3, ((0, 1), (1, 0), (1, 2)))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            CommGraph(4, ((0, 1), (2, 3)))

    def test_single_agent_graph(self):
        g = CommGraph(1, ())
        assert g.degrees().tolist() == [0]

    def test_neighbors_and_degrees(self):
        g = CommGraph(4, ((0, 1), (0, 2), (0, 3)))
        assert neighbors(g, 0) == (1, 2, 3)
        assert neighbors(g, 2) == (0,)
        assert g.degrees().tolist() == [3, 1, 1, 1]

    @given(n=st.integers(2, 25), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_connectivity_matches_bfs_oracle(self, n, seed):
        g = random_connected_graph(n, tree_safe_kappa(n, 0.4), seed)
        assert bfs_connected(g.n_agents, g.edges)


class TestRandomConnectedGraph:
    def test_exact_edge_count(self):
        g = random_connected_graph(10, 0.6, 0)
        assert len(g.edges) == round(0.6 * 45)

    def test_complete_graph(self):
        g = random_connected_graph(5, 1.0, 3)
        assert len(g.edges) == 10

    def test_rejects_kappa_below_tree(self):
        with pytest.raises(ValueError, match="fewer than"):
            random_connected_graph(20, 0.05, 0)

    def test_seed_determinism(self):
        a = random_connected_graph(12, 0.5, 7)
        b = random_connected_graph(12, 0.5, 7)
        assert a.edges == b.edges

    def test_connectivity_ratio_matches_target(self):
        g = random_connected_graph(10, 0.6, 1)
        assert connectivity_ratio(g) == pytest.approx(len(g.edges) / 45)


class TestMetropolisWeights:
    def test_triangle_unit_epsilon(self):
        g = CommGraph(3, ((0, 1), (0, 2), (1, 2)))
        w = metropolis_weights(g, epsilon=1.0)
        assert np.allclose(w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_two_node_unit_epsilon(self):
        g = CommGraph(2, ((0, 1),))
        w = metropolis_weights(g, epsilon=1.0)
        assert np.allclose(w, np.full((2, 2), 0.5), atol=1e-15)

    def test_star_unit_epsilon(self):
        g = CommGraph(4, ((0, 1), (0, 2), (0, 3)))
        w = metropolis_weights(g, epsilon=1.0)
        expect = np.array(
            [
                [0.25, 0.25, 0.25, 0.25],
                [0.25, 0.75, 0.0, 0.0],
                [0.25, 0.0, 0.75, 0.0],
                [0.25, 0.0, 0.0, 0.75],
            ]
        )
        assert np.allclose(w, expect, atol=1e-15)

    def test_rejects_nonpositive_epsilon(self):
        g = CommGraph(2, ((0, 1),))
        with pytest.raises(ValueError, match="positive"):
            metropolis_weights(g, epsilon=0.0)

    def test_zero_weight_off_edges(self):
        g = random_connected_graph(8, 0.4, 2)
        w = metropolis_weights(g)
        present = set(g.edges)
        for i in range(8):
            for j in range(i + 1, 8):
                if (i, j) not in present:
                    assert w[i, j] == 0.0

    @given(
        n=st.integers(3, 30),
        kappa_pct=st.integers(40, 100),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graph_invariants(self, n, kappa_pct, seed):
        g = random_connected_graph(n, tree_safe_kappa(n, kappa_pct / 100.0), seed)
        w = metropolis_weights(g)
        ones = np.ones(n)
        assert np.max(np.abs(w @ ones - ones)) <= 1e-12
        assert np.max(np.abs(w.T @ ones - ones)) <= 1e-12
        assert np.min(w) >= 0.0
        assert np.allclose(w, w.T, atol=1e-15)
        assert 0.0 <= spectral_contraction(w) < 1.0


class TestSpectralContraction:
    def test_identity_has_unit_contraction(self):
        assert spectral_contraction(np.eye(4)) == pytest.approx(1.0)

    def test_averaging_matrix_has_zero_contraction(self):
        assert spectral_contraction(np.full((5, 5), 0.2)) == pytest.approx(0.0, abs=1e-12)

    def test_single_node(self):
        assert spectral_contraction(np.ones((1, 1))) == pytest.approx(0.0, abs=1e-15)

    @given(n=st.integers(3, 20), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mixing_contracts_disagreement(self, n, seed):
        g = random_connected_graph(n, 0.5, seed)
        w = metropolis_weights(g)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        y -= y.mean()
        mixed = w @ y
        assert np.linalg.norm(mixed) <= spectral_contraction(w) * np.linalg.norm(y) + 1e-12
        # the mean is preserved by double stochasticity
        assert abs(mixed.mean()) <= 1e-12 * (1 + np.abs(y).max())


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = random_connected_graph(9, 0.5, 11)
        path = tmp_path / "graph.json"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.n_agents == g.n_agents
        assert loaded.edges == g.edges
        assert loaded.seed == g.seed

    def test_file_is_plain_json(self, tmp_path):
        g = random_connected_graph(4, 0.8, 0)
        path = tmp_path / "graph.json"
        save_graph(g, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"n_agents", "edges", "seed"}
