"""Worker graphs, doubly stochastic mixing matrices, and spectral helpers.

Everything here is a pure function over immutable inputs; it is safe to
call from any number of threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "ConsensusMatrix",
    "make_graph",
    "complete_graph",
    "ring_graph",
    "testbed_graph",
    "load_edge_list",
    "weight_matrix",
    "build_consensus_matrix",
    "row_supports",
    "second_eigenvalue",
    "min_consensus_rounds",
]

SCHEMES = ("lazy-metropolis", "metropolis", "uniform")

# 10-node testbed network used by the bundled experiments (16 edges).
_TESTBED_EDGES = (
    (9, 1), (9, 0), (9, 8), (9, 5), (8, 5), (4, 5), (3, 5), (0, 5),
    (0, 1), (2, 1), (3, 1), (6, 1), (7, 1), (7, 6), (7, 3), (2, 3),
)


@dataclass(frozen=True)
class Graph:
    """Undirected connected worker graph with nodes ``0 .. n-1``.

    Construction rejects self loops, out-of-range endpoints, and
    disconnected graphs (averaging consensus cannot mix across
    components). Use :func:`make_graph` to build one from any iterable
    of edge pairs.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        for edge in self.edges:
            i, j = edge
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {edge} out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self loop {edge} is not allowed")
            if i > j:
                raise ValueError(f"edge {edge} must be stored low-high; use make_graph")
        if not self._is_connected():
            raise ValueError(
                "graph is not connected; consensus cannot average across components"
            )

    def _is_connected(self) -> bool:
        seen = {0}
        frontier = [0]
        adj = self.neighbor_lists()
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == self.n

    def neighbor_lists(self) -> list:
        """Adjacency lists, each sorted ascending."""
        adj = [[] for _ in range(self.n)]
        for i, j in sorted(self.edges):
            adj[i].append(j)
            adj[j].append(i)
        return [sorted(a) for a in adj]

    def degree(self, node: int) -> int:
        return sum(1 for i, j in self.edges if i == node or j == node)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a


def make_graph(n: int, edges) -> Graph:
    """Build a :class:`Graph`, normalizing edge order and dropping duplicates."""
    return Graph(n=int(n), edges=frozenset(tuple(sorted((int(i), int(j)))) for i, j in edges))


def complete_graph(n: int) -> Graph:
    return make_graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def ring_graph(n: int) -> Graph:
    if n < 2:
        return make_graph(n, ())
    return make_graph(n, ((i, (i + 1) % n) for i in range(n)))


@functools.cache
def testbed_graph() -> Graph:
    """The 10-node testbed topology used throughout the bundled experiments.

    The graph is immutable, so it is built and checked once and every call
    returns that one instance.
    """
    return make_graph(10, _TESTBED_EDGES)


def load_edge_list(path) -> Graph:
    """Read a graph from a text file: first line ``n``, then one ``i j`` per line.

    Indices are 0-based. Out-of-range endpoints and self loops are
    rejected with the offending line in the message; repeated edges are
    collapsed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the node count, got {lines[0]!r}")
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path}:{lineno}: edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"{path}:{lineno}: self loop ({i}, {j}) is not allowed")
        edges.append((i, j))
    return make_graph(n, edges)


@dataclass(frozen=True)
class ConsensusMatrix:
    """A validated mixing matrix, its second eigenvalue and its row supports
    (``columns`` and ``weights``, as returned by :func:`row_supports`)."""

    matrix: np.ndarray
    lambda2: float
    columns: np.ndarray
    weights: np.ndarray


def weight_matrix(graph: Graph, scheme: str = "lazy-metropolis") -> np.ndarray:
    """Raw weight matrix for ``graph`` under ``scheme`` (no validation).

    Schemes
    -------
    ``metropolis``
        M[i, j] = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal fills
        each row to one. Symmetric and doubly stochastic but not
        necessarily positive semidefinite.
    ``lazy-metropolis``
        (I + M) / 2 with M as above; positive semidefinite by
        construction. This is the default used by the simulator.
    ``uniform``
        P[i, j] = 1 / (max_degree + 1) on edges; diagnostic scheme, not
        necessarily positive semidefinite.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weighting scheme {scheme!r}; choose from {SCHEMES}")
    n = graph.n
    i, j = np.array(sorted(graph.edges), dtype=int).reshape(-1, 2).T
    deg = np.bincount(np.concatenate([i, j]), minlength=n).astype(float)
    if scheme == "uniform":
        w = 1.0 / (deg.max() + 1.0)
    else:
        w = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    p = np.zeros((n, n))
    p[i, j] = w
    p[j, i] = w
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    if scheme == "lazy-metropolis":
        p = (np.eye(n) + p) / 2.0
    return p


def build_consensus_matrix(graph: Graph, scheme: str = "lazy-metropolis") -> ConsensusMatrix:
    """Build the mixing matrix for ``graph`` and verify all its invariants.

    The returned matrix is symmetric, doubly stochastic (row and column
    sums within 1e-12 of one), positive semidefinite (smallest eigenvalue
    at least -1e-10), supported only on the diagonal and the graph's
    edges, and has second eigenvalue strictly below one.
    """
    p = weight_matrix(graph, scheme)
    n = graph.n
    ones = np.ones(n)
    if np.abs(p @ ones - ones).max() > 1e-12 or np.abs(ones @ p - ones).max() > 1e-12:
        raise ValueError(f"{scheme}: matrix is not doubly stochastic")
    if np.abs(p - p.T).max() > 1e-12:
        raise ValueError(f"{scheme}: matrix is not symmetric")
    if p.min() < 0.0:
        raise ValueError(f"{scheme}: negative entry {p.min()}")
    allowed = graph.adjacency() + np.eye(n)
    if np.any((p > 0) & (allowed == 0)):
        raise ValueError(f"{scheme}: support outside the graph's edges")
    spectrum = np.linalg.eigvalsh(p)
    if spectrum[0] < -1e-10:
        raise ValueError(
            f"{scheme}: matrix is not positive semidefinite (min eigenvalue {spectrum[0]:.3e}); "
            "use the lazy-metropolis scheme"
        )
    lam2 = second_eigenvalue(spectrum)
    if n > 1 and lam2 >= 1.0:
        raise ValueError(f"{scheme}: second eigenvalue {lam2} >= 1, matrix does not mix")
    return ConsensusMatrix(p, lam2, *row_supports(p))


def row_supports(p: np.ndarray) -> tuple:
    """Each row's nonzero columns in ascending order, with their entries.

    Returns ``(columns, weights)`` shaped ``(k, n)``: ``columns[c, i]`` is
    the c-th nonzero column of row ``i`` and ``weights[c, i]`` its entry, so
    a consensus round gathers from neighbours in O(|E| d). Rows with fewer
    than ``k`` nonzeros are padded after their last neighbour with their own
    index and weight 0.
    """
    n = p.shape[0]
    rows, cols = np.nonzero(p)
    counts = np.bincount(rows, minlength=n)
    rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    columns = np.tile(np.arange(n), (counts.max(), 1))
    weights = np.zeros(columns.shape)
    columns[rank, rows] = cols
    weights[rank, rows] = p[rows, cols]
    return columns, weights


def second_eigenvalue(p) -> float:
    """Second eigenvalue of a symmetric doubly stochastic matrix.

    The entry of the spectrum with the second-largest modulus, read from
    one dense symmetric eigensolve (``numpy.linalg.eigvalsh``) or, if ``p``
    is 1-D, from ``p`` as that ascending spectrum. Exact ties in modulus go
    to the larger eigenvalue, so the spectrum {1, 1/3, 1/3, -1/3} gives
    1/3. For a single node the value is 0 by convention. A returned value
    of 1.0 flags a matrix that does not mix (for example the identity).
    """
    a = np.asarray(p, dtype=float)
    if a.ndim != 1:
        if a.shape != (len(a), len(a)):
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        a = np.linalg.eigvalsh(a)
    if len(a) == 1:
        return 0.0
    return float(a[np.argsort(np.abs(a), kind="stable")[-2]])


def min_consensus_rounds(n: int, func_lipschitz: float, eps: float, lambda2: float) -> int:
    """Rounds sufficient to drive per-node consensus error below ``eps``.

    Evaluates ``ceil(ln(2 sqrt(n) (1 + 2 L / eps)) / (1 - lambda2))`` with
    the natural logarithm. Nonincreasing in ``eps``, nondecreasing in the
    Lipschitz constant and in ``lambda2``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if func_lipschitz <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {func_lipschitz}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 <= lambda2 < 1.0:
        raise ValueError(f"bound is undefined for lambda2={lambda2}; need 0 <= lambda2 < 1")
    value = math.log(2.0 * math.sqrt(n) * (1.0 + 2.0 * func_lipschitz / eps)) / (1.0 - lambda2)
    return int(math.ceil(value))
