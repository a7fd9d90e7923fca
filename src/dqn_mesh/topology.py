"""Communication graphs and their consensus mixing weights.

Agents exchange state only along the edges of an undirected connected
graph.  Mixing uses symmetric Metropolis weights, which are doubly
stochastic and nonnegative by construction; their regularizer is the
module constant METROPOLIS_EPSILON, read when the weights are built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CommGraph",
    "random_connected_graph",
    "metropolis_weights",
    "load_graph",
    "save_graph",
]

# the Metropolis regularizer, which keeps every diagonal weight positive
METROPOLIS_EPSILON = 0.01


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

    def degrees(self) -> np.ndarray:
        """Degree of every agent, self excluded."""
        deg = np.zeros(self.n_agents, dtype=np.int64)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


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


def metropolis_weights(graph: CommGraph) -> np.ndarray:
    """Metropolis mixing weights for a graph, as an (N, N) array.

    Each edge (i, j) gets weight 1 / (max(deg_i, deg_j) + METROPOLIS_EPSILON)
    and the diagonal absorbs the remainder so every row sums to one.
    Symmetry of the edge weights makes the matrix doubly stochastic.
    """
    n = graph.n_agents
    deg = graph.degrees()
    w = np.zeros((n, n))
    for i, j in graph.edges:
        wij = 1.0 / (max(deg[i], deg[j]) + METROPOLIS_EPSILON)
        w[i, j] = wij
        w[j, i] = wij
    for i in range(n):
        w[i, i] = 1.0 - np.sum(w[i]) + w[i, i]
    return w


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
