#!/usr/bin/env python3
"""Mixing matrices on the 10-node testbed graph.

Builds the bundled testbed topology, compares weighting schemes, and
shows how the second eigenvalue controls both the disagreement decay per
consensus round and the sufficient round count for a target accuracy.
"""

import numpy as np

from ambsim import engine, topology

graph = topology.testbed_graph()
print(f"testbed graph: {graph.n} nodes, {len(graph.edges)} edges")
print(f"degrees: {[graph.degree(i) for i in range(graph.n)]}")

# The simulator's default scheme is lazy Metropolis (positive semidefinite
# by construction). The plain Metropolis variant mixes faster and matches
# the 0.888 second eigenvalue reported for the original deployment, but it
# is not positive semidefinite on this graph.
lazy = topology.build_consensus_matrix(graph, "lazy-metropolis")
plain = topology.weight_matrix(graph, "metropolis")
print(f"\nlambda2 lazy-metropolis : {lazy.lambda2:.6f}")
print(f"lambda2 plain metropolis: {topology.second_eigenvalue(plain):.6f}  (reference: 0.888)")

print("\ndisagreement decay under repeated averaging (random node values):")
rng = np.random.default_rng(0)
values = rng.standard_normal((graph.n, 3)) * 10
mean = values.mean(axis=0)
initial = np.linalg.norm(values - mean)
current = values
print(f"  round  0: disagreement {initial:9.4f}  bound {initial:9.4f}")
for r in range(1, 11):
    current = engine.average_consensus(lazy, current, 1)
    err = np.linalg.norm(current - mean)
    print(f"  round {r:2d}: disagreement {err:9.4f}  bound {lazy.lambda2 ** r * initial:9.4f}")

print("\nsufficient rounds for per-node accuracy eps (Lipschitz constant 1):")
for eps in (1.0, 0.5, 0.1, 0.01):
    r_lazy = topology.min_consensus_rounds(graph.n, 1.0, eps, lazy.lambda2)
    r_plain = topology.min_consensus_rounds(graph.n, 1.0, eps, 0.888)
    print(f"  eps {eps:5g}: lazy {r_lazy:4d} rounds, plain-metropolis {r_plain:4d} rounds")
