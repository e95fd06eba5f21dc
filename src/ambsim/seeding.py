"""Deterministic stream splitting for every random draw in a run.

Each stochastic quantity (a batch time, a data sample, a pause, ...) is
drawn from a generator derived from a root seed plus an integer path
(stream tag, node, epoch, ...). Draws therefore never depend on execution
order, host parallelism, or how many values another component consumed.

Some families draw a block from one address instead of one scalar per
address. The pause after gradient k of node i in epoch t is element k of
stream ``(PAUSES, i, t)``, and node i's consensus round count in epoch t
is element i of stream ``(ROUNDS, t)``. numpy's block draws are
prefix-stable, so an element never depends on the block's length.
"""

from __future__ import annotations

import numpy as np

# Stream tags. Each family of draws owns one branch of the seed tree.
TIMING = 0
SAMPLES = 1
PAUSES = 2
ROUNDS = 3
HOLDOUT = 4
PROBES = 5
MODEL = 6


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for branch ``path`` of the seed tree at ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))
