"""Communication graphs and consensus mixing matrices.

Agents exchange state only along the edges of an undirected connected
graph.  Mixing uses symmetric Metropolis weights, which are doubly
stochastic by construction.  The contraction factor of a mixing matrix
(largest singular value after removing the averaging component) governs
how fast disagreement between agents decays under repeated mixing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "CommGraph",
    "MixingMatrix",
    "random_connected_graph",
    "connectivity_ratio",
    "metropolis_weights",
    "spectral_contraction",
    "load_graph",
    "save_graph",
]


@dataclass(frozen=True)
class CommGraph:
    """Undirected connected graph over agents 0..n_agents-1.

    Edges are stored as sorted (i, j) pairs with i < j.  Self-loops are
    rejected; mixing always includes an agent's own state implicitly.
    """

    n_agents: int
    edges: tuple[tuple[int, int], ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("graph needs at least one agent")
        canon = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (0 <= i < self.n_agents and 0 <= j < self.n_agents):
                raise ValueError(f"edge ({i}, {j}) out of range")
            e = (min(i, j), max(i, j))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        # union-find; the test suite cross-checks with a BFS oracle
        parent = list(range(self.n_agents))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges:
            parent[find(i)] = find(j)
        root = find(0)
        return all(find(a) == root for a in range(self.n_agents))

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Agents adjacent to ``i``, excluding ``i`` itself."""
        out = [b for a, b in self.edges if a == i] + [a for a, b in self.edges if b == i]
        return tuple(sorted(out))

    def degrees(self) -> np.ndarray:
        """Degree of every agent, self excluded."""
        deg = np.zeros(self.n_agents, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights plus their contraction factor."""

    w: np.ndarray
    contraction: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("mixing matrix must be square")
        n = w.shape[0]
        ones = np.ones(n)
        if np.max(np.abs(w @ ones - ones)) > 1e-12 or np.max(np.abs(ones @ w - ones)) > 1e-12:
            raise ValueError("mixing matrix must be doubly stochastic within 1e-12")
        if np.min(w) < 0:
            raise ValueError("mixing matrix entries must be nonnegative")
        object.__setattr__(self, "w", w)
        if np.isnan(self.contraction):
            object.__setattr__(self, "contraction", spectral_contraction(w))

    @property
    def n_agents(self) -> int:
        return self.w.shape[0]


def random_connected_graph(n_agents: int, kappa_target: float, seed: int) -> CommGraph:
    """Sample a connected graph whose connectivity ratio hits a target.

    A random spanning tree guarantees connectivity; extra edges are then
    drawn uniformly without replacement from the remaining pairs until
    the edge count reaches ``round(kappa_target * n_agents*(n_agents-1)/2)``.

    Parameters
    ----------
    n_agents : int
        Number of agents, at least 2.
    kappa_target : float
        Desired ratio of edges to all possible pairs, in (0, 1].
    seed : int
        Seed for the generator; the same seed reproduces the same graph.
    """
    if n_agents < 2:
        raise ValueError("need at least two agents")
    if not 0.0 < kappa_target <= 1.0:
        raise ValueError("kappa_target must lie in (0, 1]")
    total_pairs = n_agents * (n_agents - 1) // 2
    n_edges = round(kappa_target * total_pairs)
    if n_edges < n_agents - 1:
        raise ValueError(
            f"kappa_target {kappa_target} gives {n_edges} edges, fewer than the "
            f"{n_agents - 1} needed for connectivity"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_agents)
    edges = set()
    for k in range(1, n_agents):
        j = int(rng.integers(k))
        a, b = int(order[k]), int(order[j])
        edges.add((min(a, b), max(a, b)))
    spare = [
        (i, j)
        for i in range(n_agents)
        for j in range(i + 1, n_agents)
        if (i, j) not in edges
    ]
    extra = n_edges - len(edges)
    if extra > 0:
        picks = rng.choice(len(spare), size=extra, replace=False)
        for p in sorted(int(p) for p in picks):
            edges.add(spare[p])
    return CommGraph(n_agents=n_agents, edges=tuple(sorted(edges)), seed=seed)


def connectivity_ratio(graph: CommGraph) -> float:
    """Fraction of all agent pairs that share an edge."""
    total_pairs = graph.n_agents * (graph.n_agents - 1) / 2
    return len(graph.edges) / total_pairs


def metropolis_weights(graph: CommGraph, epsilon: float = 0.01) -> MixingMatrix:
    """Build Metropolis mixing weights for a graph.

    Each edge (i, j) gets weight 1 / (max(deg_i, deg_j) + epsilon) and the
    diagonal absorbs the remainder so every row sums to one.  Symmetry of
    the edge weights makes the matrix doubly stochastic.

    Parameters
    ----------
    graph : CommGraph
    epsilon : float
        Positive regularizer keeping the diagonal strictly positive.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = graph.n_agents
    deg = graph.degrees()
    w = np.zeros((n, n))
    for i, j in graph.edges:
        wij = 1.0 / (max(deg[i], deg[j]) + epsilon)
        w[i, j] = wij
        w[j, i] = wij
    for i in range(n):
        w[i, i] = 1.0 - np.sum(w[i]) + w[i, i]
    return MixingMatrix(w=w)


def spectral_contraction(w: np.ndarray) -> float:
    """Largest singular value of ``w`` minus the uniform averaging matrix."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    dev = w - np.full((n, n), 1.0 / n)
    return float(np.linalg.svd(dev, compute_uv=False)[0])


def save_graph(graph: CommGraph, path: str | Path) -> None:
    payload = {
        "n_agents": graph.n_agents,
        "edges": [[i, j] for i, j in graph.edges],
        "seed": graph.seed,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_graph(path: str | Path) -> CommGraph:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"graph file {path} does not hold a JSON object")
    try:
        return CommGraph(
            n_agents=int(payload["n_agents"]),
            edges=tuple((int(i), int(j)) for i, j in payload["edges"]),
            seed=payload.get("seed"),
        )
    except KeyError as exc:  # a field the file lacks
        raise ValueError(f"graph file {path} has no {exc} field") from exc
    except (TypeError, ValueError) as exc:  # a field of the wrong shape or value
        raise ValueError(f"graph file {path}: {exc}") from exc
