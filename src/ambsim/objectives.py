"""Stochastic objectives: losses, gradients, samplers, and regularity constants.

Models are immutable after construction. Sample streams are split per
(node, epoch) from the model's own seed, so parallel nodes never share
generator state and the first ``k`` samples of a stream do not depend on
how many are requested. ``draw(node, epoch, count)`` addresses the
stream's generators itself: lane k is ``(SAMPLES, node, epoch, k)``.
``draw_rows(counts, lanes)`` draws several such streams into one array,
each into its own slice, and ``loss_and_grad_rows`` scores such an array
row by row against one weight vector per row, which is how the engine
scores many nodes at once.

All batch reductions use elementwise products followed by numpy sums (no
BLAS): pairwise along a row, in row order down a column. So results are
bit-stable across hosts with different threading configurations. Softmax
scores own their order instead: each class score adds its feature products
left to right from 0.0, and the softmax denominator adds the class
exponentials in class order, so no score depends on how numpy splits a sum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import seeding

__all__ = [
    "EstimatedConstants",
    "LinearRegressionObjective",
    "MulticlassLogisticObjective",
    "make_linear_regression",
    "make_logistic_regression",
    "load_labeled_csv",
    "gradient_variance_at",
    "estimate_constants",
]


# Softmax scores are computed for blocks of rows whose (classes, rows) slab
# holds about this many scores, so that a block's product buffer (1 MiB at 32
# features per call) stays in a core's cache whatever the row count.
_SLAB_VALUES = 2**12

# Features whose (classes, rows) product slabs one np.einsum call writes.
_FEATURES_PER_CALL = 32


def _normals_into(out: np.ndarray, counts, rngs) -> np.ndarray:
    """Stream j's first standard normals into slice j of ``out``; slice j has ``counts[j]`` rows."""
    end = 0
    for count, rng in zip(counts, rngs):
        start, end = end, end + count
        rng.standard_normal(out=out[start:end])
    return out


@dataclass(frozen=True)
class EstimatedConstants:
    grad_smoothness: float
    loss_lipschitz: float
    grad_variance: float


class _RowModel:
    """The calls both models build on their ``draw_rows`` and ``loss_and_grad_rows``."""

    def _draw(self, count: int, seed: int, *prefix: int):
        """First ``count`` samples of the stream whose lane k is ``substream(seed, *prefix, k)``."""
        return self.draw_rows([count], lambda k: [seeding.substream(seed, *prefix, k)])

    def loss_and_grad(self, w, x, y, count: int):
        """Per-row losses of every row, and the mean gradient of the first ``count`` rows.

        The mean is ``np.mean``'s sum-then-divide, and the gradient is zero
        when ``count`` is 0.
        """
        losses, rows = self.loss_and_grad_rows(w, x, y, count)
        return losses, np.add.reduce(rows, axis=0).reshape(self.dim) / max(count, 1)


class LinearRegressionObjective(_RowModel):
    """Least-squares streaming regression against a hidden parameter vector.

    The hidden target is drawn from a standard normal; features are
    standard normal and labels are ``x . w_star`` plus centered Gaussian
    noise. The per-sample loss is half the squared residual, so the
    gradient is ``(x . w - y) x`` and the optimum value is half the noise
    variance.
    """

    kind = "linear_regression"

    def __init__(self, dim: int, noise_var: float, seed: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        if noise_var < 0:
            raise ValueError(f"noise variance must be non-negative, got {noise_var}")
        self.dim = int(dim)
        self.noise_var = float(noise_var)
        self.seed = int(seed)
        self.w_star = seeding.substream(seed, seeding.MODEL).standard_normal(dim)

    @property
    def optimum_value(self) -> float:
        return self.noise_var / 2.0

    def draw_rows(self, counts, lanes):
        """The first ``counts[j]`` samples of stream j, for each j, one stream after another.

        ``lanes(k)`` lists the lane-k generators of the streams. Features come
        from lane 0 and label noise from lane 1; a noise-free model never
        builds lane 1.
        """
        x = _normals_into(np.empty((sum(counts), self.dim)), counts, lanes(0))
        labels = (x * self.w_star).sum(axis=1)
        if self.noise_var > 0:
            noise = _normals_into(np.empty(len(x)), counts, lanes(1))
            labels = labels + math.sqrt(self.noise_var) * noise
        return x, labels

    def draw(self, node: int, epoch: int, count: int):
        """First ``count`` samples of the (node, epoch) stream."""
        return self._draw(count, self.seed, seeding.SAMPLES, node, epoch)

    def holdout(self, count: int):
        return self._draw(count, self.seed, seeding.HOLDOUT)

    def loss_and_grad_rows(self, w, x, y, count: int):
        """Per-row losses of every row, and the per-row gradients of the first ``count`` rows.

        ``w`` is one weight vector, or one per row. The residual is computed once.
        """
        residual = (x * w).sum(axis=1) - y
        return 0.5 * residual * residual, x[:count] * residual[:count, None]

    def loss_batch(self, w, x, y) -> np.ndarray:
        return self.loss_and_grad(w, x, y, 0)[0]

    def grad_mean(self, w, x, y) -> np.ndarray:
        return self.loss_and_grad(w, x, y, len(x))[1]


class MulticlassLogisticObjective(_RowModel):
    """Softmax cross-entropy over flattened class-by-feature weights.

    The primal variable has dimension ``classes * feat_dim``; row ``i`` of
    its reshaped form scores class ``i``. Logits are max-shifted before
    exponentiation so large weights cannot overflow. At ``w = 0`` the
    loss equals ``ln(classes)`` for every sample.

    ``source`` is either a synthetic Gaussian-cluster generator (class
    centers drawn once from the model seed, features are a center plus
    unit noise, last coordinate fixed at one as a bias) or a preloaded
    ``(features, labels)`` pair from :func:`load_labeled_csv`.
    """

    kind = "logistic_regression"

    def __init__(self, classes: int, feat_dim: int, seed: int,
                 data=None, cluster_spread: float = 2.0):
        if classes < 2:
            raise ValueError(f"need at least 2 classes, got {classes}")
        if feat_dim < 1:
            raise ValueError(f"feature dimension must be positive, got {feat_dim}")
        self.classes = int(classes)
        self.feat_dim = int(feat_dim)
        self.dim = self.classes * self.feat_dim
        self.seed = int(seed)
        if data is None:
            rng = seeding.substream(seed, seeding.MODEL)
            self.centers = cluster_spread * rng.standard_normal((classes, feat_dim - 1))
            self.data = None
        else:
            features, labels = data
            if features.shape[1] != feat_dim:
                raise ValueError(
                    f"data source has {features.shape[1]} columns per sample, model expects {feat_dim}"
                )
            if labels.min() < 0 or labels.max() >= classes:
                raise ValueError("data source labels outside the configured class range")
            self.centers = None
            self.data = (np.asarray(features, dtype=float), np.asarray(labels, dtype=int))

    optimum_value = None

    def draw_rows(self, counts, lanes):
        """The first ``counts[j]`` samples of stream j, for each j, one stream after another.

        ``lanes(k)`` lists the lane-k generators of the streams. Lane 0 picks
        the labels, or the rows of a preloaded data set; lane 1 gives the
        synthetic features' noise, and a data set never builds it.
        """
        high = self.classes if self.data is None else len(self.data[1])
        picks = np.concatenate([rng.integers(0, high, size=count)
                                for count, rng in zip(counts, lanes(0))])
        if self.data is not None:
            features, labels = self.data
            return features[picks], labels[picks]
        noise = _normals_into(np.empty((len(picks), self.feat_dim - 1)), counts, lanes(1))
        x = np.ones((len(picks), self.feat_dim))
        np.add(self.centers[picks], noise, out=x[:, : self.feat_dim - 1])
        return x, picks

    def draw(self, node: int, epoch: int, count: int):
        return self._draw(count, self.seed, seeding.SAMPLES, node, epoch)

    def holdout(self, count: int):
        return self._draw(count, self.seed, seeding.HOLDOUT)

    def _logits(self, weights, x) -> np.ndarray:
        """Class scores under ``weights``, shaped (classes, feat_dim) or one such per row.

        The scores are class-major: element (c, k) is row k's score for
        class c, the sum from 0.0 of ``weights[..., c, f] * x[k, f]`` with
        the features added left to right. Rows go in blocks of about
        ``_SLAB_VALUES`` scores. Per block, one ``np.einsum`` call writes the
        (classes, rows) product slabs of ``_FEATURES_PER_CALL`` features
        after slab 0, which holds the running sum, and ``np.add.reduce`` adds
        the slabs into slab 0 in index order. It keeps that order only because
        the slabs are C-ordered, so the summed axis is the outer one; over an
        inner axis numpy adds pairwise.
        """
        rows, classes, feat_dim = x.shape[0], self.classes, self.feat_dim
        shared = weights.ndim == 2
        # einsum writes these broadcast products faster than np.multiply,
        # which slows down when a broadcast operand's inner axis is short. It
        # may give 0.0 for a -0.0 product, which changes no sum from 0.0.
        spec = "fc,fb->fcb" if shared else "fcb,fb->fcb"
        step = max(1, _SLAB_VALUES // classes)
        k = min(_FEATURES_PER_CALL, feat_dim)
        buffer = np.empty((k + 1) * classes * min(step, rows))
        logits = np.empty((classes, rows))
        for start in range(0, rows, step):
            block = slice(start, start + step)
            xt = np.ascontiguousarray(x[block].T)
            wt = weights.T if shared else weights[block].transpose(2, 1, 0)
            terms = buffer[: (k + 1) * classes * xt.shape[1]].reshape(k + 1, classes, -1)
            terms[0] = 0.0
            for f in range(0, feat_dim, k):
                count = min(k, feat_dim - f)
                np.einsum(spec, wt[f:f + count], xt[f:f + count], out=terms[1:count + 1])
                np.add.reduce(terms[:count + 1], axis=0, out=terms[0])
            logits[:, block] = terms[0]
        return logits

    def _log_probs(self, weights, x) -> np.ndarray:
        """Class-major softmax log-probabilities; the exponentials are added in class order."""
        log_probs = self._logits(weights, x)
        log_probs -= log_probs.max(axis=0)
        exps = np.exp(log_probs)
        total = exps[0]
        for row in exps[1:]:
            total += row
        log_probs -= np.log(total)
        return log_probs

    def loss_and_grad_rows(self, w, x, y, count: int):
        """Per-row losses of every row, and the per-row (classes, feat_dim) gradients of the
        first ``count`` rows.

        ``w`` is one weight vector, or one per row. The log-probabilities are
        computed once.
        """
        w = np.asarray(w, dtype=float)
        weights = w.reshape(*w.shape[:-1], self.classes, self.feat_dim)
        log_probs = self._log_probs(weights, x)
        rows = np.arange(x.shape[0])
        probs = np.exp(log_probs[:, :count])
        probs[y[:count], rows[:count]] -= 1.0
        # C order, so that the engine's sums down the first axis add rows in order.
        grads = np.empty((count, self.classes, self.feat_dim))
        np.multiply(probs.T[:, :, None], x[:count, None, :], out=grads)
        return -log_probs[y, rows], grads

    def loss_batch(self, w, x, y) -> np.ndarray:
        return self.loss_and_grad(w, x, y, 0)[0]

    def grad_mean(self, w, x, y) -> np.ndarray:
        return self.loss_and_grad(w, x, y, len(x))[1]


def make_linear_regression(dim: int, noise_var: float, seed: int) -> LinearRegressionObjective:
    """Streaming least-squares model; see :class:`LinearRegressionObjective`."""
    return LinearRegressionObjective(dim, noise_var, seed)


def make_logistic_regression(classes: int, feat_dim: int, seed: int,
                             csv_path=None, cluster_spread: float = 2.0) -> MulticlassLogisticObjective:
    """Softmax classifier over synthetic clusters or a local labeled CSV file."""
    data = load_labeled_csv(csv_path, feat_dim) if csv_path is not None else None
    return MulticlassLogisticObjective(classes, feat_dim, seed, data=data,
                                       cluster_spread=cluster_spread)


def load_labeled_csv(path, feat_dim: int):
    """Load ``label,f1,...,fk`` rows, scale features into [0, 1], append a bias one.

    Rows must all have ``feat_dim - 1`` feature columns (the bias is
    appended here). Feature values above 1 anywhere trigger a global
    divide by 255, the usual raw-pixel convention; the scaling applied is
    recorded by the caller-visible contract, not guessed per row.
    """
    rows = []
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != feat_dim:
                raise ValueError(
                    f"{path}:{lineno}: expected 1 label + {feat_dim - 1} features, got {len(row)} columns"
                )
            labels.append(int(float(row[0])))
            rows.append([float(v) for v in row[1:]])
    if not rows:
        raise ValueError(f"{path}: no samples found")
    features = np.asarray(rows, dtype=float)
    if features.max(initial=0.0) > 1.0:
        features = features / 255.0
    out = np.ones((features.shape[0], feat_dim))
    out[:, : feat_dim - 1] = features
    return out, np.asarray(labels, dtype=int)


def gradient_variance_at(model, w, sample_count: int, seed: int) -> float:
    """Monte-Carlo estimate of E||grad f(w, x) - grad F(w)||^2 at a fixed ``w``."""
    if sample_count < 2:
        raise ValueError("need at least 2 samples to estimate a variance")
    x, y = model._draw(sample_count, seed, seeding.PROBES)
    grads = model.loss_and_grad_rows(np.asarray(w, dtype=float), x, y, sample_count)[1]
    grads = grads.reshape(sample_count, model.dim)
    center = np.mean(grads, axis=0)
    return float(np.mean(((grads - center) ** 2).sum(axis=1)))


def _probe_slopes(model, probe_count: int, seed: int, radius: float):
    """The smoothness and Lipschitz estimates of :func:`estimate_constants`.

    Returns ``(smoothness, lipschitz, rng)``, where ``rng`` is the probe
    generator after the draws these estimates take, from which
    :func:`estimate_constants` goes on to draw its variance probe centers.
    """
    if probe_count < 2:
        raise ValueError(f"probe_count must be at least 2, got {probe_count}")
    rng = seeding.substream(seed, seeding.PROBES, 2)
    x, y = model.draw_rows([probe_count], lambda k: [seeding.substream(seed, seeding.PROBES, 3 + k)])
    dim = model.dim
    points = np.empty((probe_count, dim))
    shrink = np.empty(probe_count)
    directions = np.empty((probe_count, dim))
    for i in range(probe_count):
        points[i] = rng.standard_normal(dim)
        shrink[i] = rng.uniform(0.0, 1.0) ** (1.0 / min(dim, 64))
        directions[i] = rng.standard_normal(dim)
    points *= (radius * shrink / np.linalg.norm(points, axis=1))[:, None]
    features = np.zeros((probe_count, dim))
    features[:, : x.shape[1]] = x
    has_feature = np.flatnonzero(np.linalg.norm(features, axis=1) > 0)
    # Each probe's gradient at its point, then at the point moved by ``step``
    # along the random direction and along the feature direction.
    rows = np.concatenate([np.arange(probe_count), np.arange(probe_count), has_feature])
    moves = np.concatenate([directions, features[has_feature]])
    moves /= np.linalg.norm(moves, axis=1)[:, None]
    step = 1e-3 * radius
    at = points[rows]
    at[probe_count:] += step * moves
    grads = model.loss_and_grad_rows(at, x[rows], y[rows], len(rows))[1].reshape(len(rows), dim)
    base = grads[:probe_count]
    lipschitz = float(np.linalg.norm(base, axis=1).max())
    smooth = float((np.linalg.norm(grads[probe_count:] - base[rows[probe_count:]], axis=1)
                    / step).max())
    return smooth, lipschitz, rng


def estimate_constants(model, probe_count: int, seed: int, radius: float = 1.0) -> EstimatedConstants:
    """Probe-based estimates of the model's regularity constants.

    Gradient smoothness is the largest observed ratio
    ``||grad f(w, x) - grad f(w', x)|| / ||w - w'||`` over probe pairs;
    pairs are taken both in random directions and along each probe
    sample's own feature direction, which is where curvature peaks for
    linear models. The loss Lipschitz estimate is the largest gradient
    norm seen over the probe ball. The variance estimate is the largest
    per-point gradient variance across probe centers. Estimates are
    returned to the caller and never overwrite constants already set on
    the model.
    """
    smooth, lipschitz, rng = _probe_slopes(model, probe_count, seed, radius)
    centers = rng.standard_normal((max(2, probe_count // 8), model.dim))
    centers *= (radius / np.linalg.norm(centers, axis=1))[:, None]
    variance = max(gradient_variance_at(model, w, max(8, probe_count), seed + 7919 * j)
                   for j, w in enumerate(centers, 1))
    return EstimatedConstants(
        grad_smoothness=smooth,
        loss_lipschitz=lipschitz,
        grad_variance=variance,
    )
