"""Dual-averaging core: dual state, the regularized primal map, and the schedule.

The primal iterate is the minimizer over a Euclidean ball of
``<w, z> + beta(t) * h(w)`` with ``h(w) = ||w||^2 / 2``, which is exactly
1-strongly convex, so the closed form below applies verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Schedule", "DualState", "beta", "primal_update", "apply_consensus_result", "initial_dual_state"]


@dataclass(frozen=True)
class Schedule:
    """Regularization schedule ``beta(t) = offset + sqrt(t / work_scale)``.

    ``offset`` matches the gradient smoothness constant of the objective;
    ``work_scale`` is the expected potential work per epoch and controls
    how fast the square-root term grows. ``beta`` is strictly increasing
    in ``t`` for any valid schedule.
    """

    offset: float
    work_scale: float

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")
        if self.work_scale <= 0:
            raise ValueError(f"work_scale must be positive, got {self.work_scale}")


@dataclass(frozen=True)
class DualState:
    """Accumulated dual variable ``z`` at epoch index ``t`` (``t >= 1``, ``z = 0`` at ``t = 1``)."""

    z: np.ndarray
    t: int


def initial_dual_state(dim: int) -> DualState:
    return DualState(z=np.zeros(dim), t=1)


def beta(schedule: Schedule, t: int) -> float:
    """Evaluate the schedule at epoch ``t >= 1``."""
    if t < 1:
        raise ValueError(f"epoch index must be at least 1, got {t}")
    return schedule.offset + math.sqrt(t / schedule.work_scale)


def primal_update(z: np.ndarray, beta_value: float, radius: float) -> np.ndarray:
    """Minimize ``<w, z> + beta_value * ||w||^2 / 2`` over the ball ``||w|| <= radius``.

    Closed form: ``-z / beta_value`` when that point lies inside the
    ball, otherwise its radial projection ``-radius * z / ||z||``. Each row
    of a 2-D ``z`` is mapped on its own, with norms over the last axis.
    """
    if beta_value <= 0:
        raise ValueError(f"beta must be positive, got {beta_value}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    w = -np.asarray(z, dtype=float) / beta_value
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    # Rows inside the ball are scaled by radius / radius == 1.0 exactly.
    return w * (radius / np.maximum(norm, radius))


def apply_consensus_result(state: DualState, averaged: np.ndarray) -> DualState:
    """Adopt the consensus output as the next dual variable and advance the epoch."""
    averaged = np.asarray(averaged, dtype=float)
    if averaged.shape != state.z.shape:
        raise ValueError(f"dimension mismatch: state {state.z.shape}, averaged {averaged.shape}")
    return DualState(z=averaged, t=state.t + 1)
