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

:func:`substream` is the reference: the generator of a path is numpy's
``PCG64`` seeded by ``SeedSequence(seed, spawn_key=path)``. A run derives
the seeds of its per-(node, epoch) streams in one vectorized pass instead:
:func:`seed_words` evaluates ``SeedSequence``'s fixed 32-bit hash for many
paths at once, and :class:`StreamTable` keeps the 32-byte result of each
address for a block of epochs. The addresses and every drawn value are
those of :func:`substream`, bit for bit.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream tags. Each family of draws owns one branch of the seed tree.
TIMING = 0
SAMPLES = 1
PAUSES = 2
ROUNDS = 3
HOLDOUT = 4
PROBES = 5
MODEL = 6

# numpy's SeedSequence constants (pool of 4 uint32 words; O'Neill's seed_seq hash).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF
_POOL = 4


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for branch ``path`` of the seed tree at ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def _hashmix(value, const: int):
    """``SeedSequence``'s hashmix of an int or a uint32 array; returns (hash, next constant)."""
    nxt = const * _MULT_A & _MASK
    value = (value ^ const) * nxt & _MASK
    return value ^ value >> 16, nxt


def _mix(x, y):
    x = (_MIX_L * x & _MASK) - (_MIX_R * y & _MASK) & _MASK
    return x ^ x >> 16


def seed_words(seed: int, *path) -> np.ndarray:
    """PCG64 seed words of ``substream(seed, *path)`` for every address ``path`` spans.

    Each element of ``path`` is an int or an integer array; they broadcast
    together, and the result has their broadcast shape plus a last axis of
    4 ``uint64`` words (the state and increment ``SeedSequence`` gives
    ``PCG64``). The seed may be any size, as in ``SeedSequence``; path
    elements must lie in [0, 2**32), where ``SeedSequence`` reads each as
    one word.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    shape = np.broadcast_shapes(*(np.shape(element) for element in path))
    # The seed heads the entropy, zero-padded to the pool size. It is the
    # same for every address, so the pool it leaves is mixed once, in ints.
    seed = int(seed)
    head = []
    while seed or not head:
        head.append(seed & _MASK)
        seed >>= 32
    head += [0] * (_POOL - len(head))
    const = _INIT_A
    pool = []
    for word in head[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    # Path words as uint32 arrays of at least one dimension; arithmetic wraps mod 2**32.
    words = head[_POOL:]
    for element in path:
        element = np.atleast_1d(element)
        if element.size and not (0 <= element.min() and element.max() <= _MASK):
            raise ValueError(f"path elements must lie in [0, 2**32), got {element}")
        words.append(element.astype(np.uint32))
    for word in words:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight output words cycle through the pool.
    consts = [_INIT_B]
    for _ in range(2 * _POOL):
        consts.append(consts[-1] * _MULT_B & _MASK)
    consts = np.array(consts, dtype=np.uint32)
    pool = np.stack(np.broadcast_arrays(*(np.asarray(p, dtype=np.uint32) for p in pool)), axis=-1)
    state = (pool[..., list(range(_POOL)) * 2] ^ consts[:-1]) * consts[1:]
    state ^= state >> np.uint32(16)
    out = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return out.reshape(shape + (_POOL,))


class _SeedWords(ISeedSequence):
    """Seed words computed ahead, handed to ``PCG64`` as its seed sequence."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words are {_POOL} uint64 words for PCG64, "
                             f"not {n_words} of {np.dtype(dtype)}")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator of one address from its 4 seed words (a row of :func:`seed_words`)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


class StreamTable:
    """Seed words of the streams ``(family, node, epoch, *lane)`` of a block of epochs.

    The table covers nodes ``0..n-1``, epochs ``first..last`` and, when
    ``lanes`` is positive, lanes ``0..lanes-1``, in 32 bytes per address.
    ``generators(nodes, epoch, *lane)`` lists, for each node in ``nodes``,
    the generator that equals ``substream(seed, family, node, epoch, *lane)``
    bit for bit.
    """

    def __init__(self, seed: int, family: int, n: int, first: int, last: int, lanes: int = 0):
        path = [family, np.arange(n), np.arange(first, last + 1)[:, None]]
        if lanes:
            path.append(np.arange(lanes)[:, None, None])
        self.first = first
        self.words = seed_words(seed, *path)

    def generators(self, nodes, epoch: int, *lane: int) -> list:
        words = self.words[(*lane, epoch - self.first)]
        return [generator(words[node]) for node in nodes]
