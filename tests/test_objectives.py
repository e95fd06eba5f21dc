import itertools
import math

import numpy as np
import pytest

from ambsim import objectives, seeding


def central_difference(model, w, x, y, rel_tol=1e-5):
    """Gradient check oracle: central differences along every coordinate."""
    w = np.asarray(w, dtype=float)
    grad = oracle_sample_grad(model, w, x, y)
    h = 1e-6 * max(1.0, np.linalg.norm(w))

    def loss(at):
        return model.loss_and_grad_rows(at, x[None, :], np.array([y]), 0)[0][0]

    approx = np.zeros_like(grad)
    for k in range(w.size):
        e = np.zeros(w.size)
        e[k] = h
        approx[k] = (loss(w + e) - loss(w - e)) / (2 * h)
    denom = max(np.linalg.norm(grad), 1e-8)
    assert np.linalg.norm(approx - grad) / denom <= rel_tol


def oracle_draw(model, lanes, count):
    """One stream's first ``count`` samples, drawn as one array per lane."""
    if model.kind == "linear_regression":
        x = lanes(0).standard_normal((count, model.dim))
        labels = (x * model.w_star).sum(axis=1)
        if model.noise_var > 0:
            labels = labels + math.sqrt(model.noise_var) * lanes(1).standard_normal(count)
        return x, labels
    if model.data is not None:
        features, labels = model.data
        idx = lanes(0).integers(0, features.shape[0], size=count)
        return features[idx], labels[idx]
    labels = lanes(0).integers(0, model.classes, size=count)
    noise = lanes(1).standard_normal((count, model.feat_dim - 1))
    x = np.ones((count, model.feat_dim))
    x[:, : model.feat_dim - 1] = model.centers[labels] + noise
    return x, labels


def oracle_logits(model, weights, x):
    """Row-major class scores, each its feature products added left to right from 0.0.

    ``weights`` is (classes, feat_dim) or one such per row.
    """
    logits = np.zeros((x.shape[0], model.classes))
    for f in range(model.feat_dim):
        logits += weights[..., f] * x[:, f, None]
    return logits


def oracle_log_probs(model, weights, x):
    """Row-major softmax log-probabilities, with the exponentials added in class order."""
    logits = oracle_logits(model, weights, x)
    stable = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(stable)
    total = exps[:, 0].copy()
    for cls in range(1, model.classes):
        total += exps[:, cls]
    return stable - np.log(total)[:, None]


def oracle_rows(model, w, x, y, count):
    """Per-row losses and the first ``count`` gradient rows, from the row-major oracle."""
    weights = w.reshape(*w.shape[:-1], model.classes, model.feat_dim)
    log_probs = oracle_log_probs(model, weights, x)
    probs = np.exp(log_probs[:count])
    probs[np.arange(count), y[:count]] -= 1.0
    return -log_probs[np.arange(len(x)), y], probs[:, :, None] * x[:count, None, :]


def oracle_loss_batch(model, w, x, y):
    """The per-row losses as ``loss_batch`` computed them before ``loss_and_grad``."""
    if model.kind == "linear_regression":
        residual = (x * w).sum(axis=1) - y
        return 0.5 * residual * residual
    weights = np.asarray(w, dtype=float).reshape(model.classes, model.feat_dim)
    log_probs = oracle_log_probs(model, weights, x)
    return -log_probs[np.arange(x.shape[0]), y]


def oracle_grad_mean(model, w, x, y):
    """The mean gradient as ``grad_mean`` computed it before ``loss_and_grad``."""
    if model.kind == "linear_regression":
        residual = (x * w).sum(axis=1) - y
        return np.mean(x * residual[:, None], axis=0)
    weights = np.asarray(w, dtype=float).reshape(model.classes, model.feat_dim)
    probs = np.exp(oracle_log_probs(model, weights, x))
    probs[np.arange(x.shape[0]), y] -= 1.0
    return (probs[:, :, None] * x[:, None, :]).mean(axis=0).reshape(model.dim)


def oracle_sample_grad(model, w, x, y):
    """One sample's gradient, the per-sample reference the row kernel is checked against."""
    if model.kind == "linear_regression":
        x = np.asarray(x, dtype=float)
        return (float((x * w).sum()) - float(y)) * x
    weights = np.asarray(w, dtype=float).reshape(model.classes, model.feat_dim)
    x = np.asarray(x, dtype=float)
    probs = np.exp(model._log_probs(weights, x[None, :])[:, 0])
    probs[int(y)] -= 1.0
    return (probs[:, None] * x[None, :]).reshape(model.dim)


def loop_gradient_variance_at(model, w, sample_count, seed):
    """The per-sample ``oracle_sample_grad`` loop that ``gradient_variance_at`` replaced."""
    x, y = model.draw_rows([sample_count], lambda k: [seeding.substream(seed, seeding.PROBES, k)])
    w = np.asarray(w, dtype=float)
    grads = np.stack([oracle_sample_grad(model, w, x[i], y[i]) for i in range(sample_count)])
    center = np.mean(grads, axis=0)
    return float(np.mean(((grads - center) ** 2).sum(axis=1)))


def loop_estimate_constants(model, probe_count, seed, radius):
    """The per-probe ``oracle_sample_grad`` loop that ``estimate_constants`` replaced."""
    def norm(v):
        return math.sqrt(float((v * v).sum()))

    rng = seeding.substream(seed, seeding.PROBES, 2)
    x, y = model.draw_rows([probe_count],
                           lambda k: [seeding.substream(seed, seeding.PROBES, 3 + k)])
    dim = model.dim
    smooth = 0.0
    lipschitz = 0.0
    step = 1e-3 * radius
    for i in range(probe_count):
        w = rng.standard_normal(dim)
        w *= radius * rng.uniform(0.0, 1.0) ** (1.0 / min(dim, 64)) / norm(w)
        g = oracle_sample_grad(model, w, x[i], y[i])
        lipschitz = max(lipschitz, norm(g))
        directions = [rng.standard_normal(dim)]
        feature_dir = np.zeros(dim)
        flat = np.asarray(x[i], dtype=float).ravel()
        feature_dir[: flat.size] = flat
        if norm(feature_dir) > 0:
            directions.append(feature_dir)
        for direction in directions:
            direction = direction / norm(direction)
            g2 = oracle_sample_grad(model, w + step * direction, x[i], y[i])
            smooth = max(smooth, norm(g2 - g) / step)
    variance = 0.0
    for j in range(max(2, probe_count // 8)):
        w = rng.standard_normal(dim)
        w *= radius / norm(w)
        variance = max(variance, loop_gradient_variance_at(model, w, max(8, probe_count),
                                                           seed + 7919 * (j + 1)))
    return smooth, lipschitz, variance


def csv_softmax(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(8)
    rows = zip(rng.integers(0, 3, 30).tolist(), rng.integers(0, 256, (30, 4)).tolist())
    path.write_text("".join(f"{label},{','.join(map(str, px))}\n" for label, px in rows))
    return objectives.make_logistic_regression(3, 5, seed=9, csv_path=path)


ESTIMATOR_MODELS = [
    *(pytest.param(lambda _, d=d, v=v: objectives.make_linear_regression(d, v, seed=d),
                   id=f"linear-d{d}-noise{v}")
      for d in (1, 2, 7, 50, 300) for v in (0.0, 1e-3)),
    *(pytest.param(lambda _, c=c, f=f: objectives.make_logistic_regression(c, f, seed=c + f),
                   id=f"softmax-{c}x{f}")
      for c in (2, 10) for f in (1, 3, 21)),
    pytest.param(csv_softmax, id="softmax-csv"),
]


class TestLinearRegression:
    def test_zero_residual_gradient(self):
        model = objectives.make_linear_regression(8, 0.0, seed=1)
        x, y = model.draw(0, 1, 1)
        grad = oracle_sample_grad(model, model.w_star, x[0], y[0])
        assert np.linalg.norm(grad) <= 1e-10

    def test_hand_gradient(self):
        model = objectives.make_linear_regression(3, 0.0, seed=1)
        x = np.array([1.0, 0.0, 0.0])
        grad = oracle_sample_grad(model, np.zeros(3), x, 1.0)
        assert np.allclose(grad, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        model = objectives.make_linear_regression(6, 0.5, seed=2)
        rng = np.random.default_rng(0)
        x, y = model.draw(0, 1, 10)
        for k in range(10):
            central_difference(model, rng.standard_normal(6), x[k], y[k])

    def test_optimum_value(self):
        model = objectives.make_linear_regression(4, 1e-3, seed=3)
        assert model.optimum_value == pytest.approx(5e-4)

    def test_stream_prefix_stability(self):
        model = objectives.make_linear_regression(5, 0.1, seed=4)
        x5, y5 = model.draw(2, 7, 5)
        x9, y9 = model.draw(2, 7, 9)
        assert np.array_equal(x5, x9[:5])
        assert np.array_equal(y5, y9[:5])

    def test_streams_are_node_and_epoch_specific(self):
        model = objectives.make_linear_regression(5, 0.1, seed=4)
        a, _ = model.draw(0, 1, 3)
        b, _ = model.draw(1, 1, 3)
        c, _ = model.draw(0, 2, 3)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_full_scale_regression_configuration(self):
        # The 10^5-dimensional setting constructs and streams fine; desk
        # runs keep dim at 100.
        model = objectives.make_linear_regression(100_000, 1e-3, seed=6)
        x, y = model.draw(0, 1, 2)
        assert x.shape == (2, 100_000)
        assert np.isfinite(y).all()


class TestLogisticRegression:
    def test_loss_at_zero_is_log_classes(self):
        model = objectives.make_logistic_regression(10, 6, seed=5)
        x, y = model.draw(0, 1, 20)
        losses = model.loss_batch(np.zeros(model.dim), x, y)
        assert np.abs(losses - math.log(10)).max() <= 1e-12

    def test_hand_gradient_two_classes(self):
        model = objectives.MulticlassLogisticObjective(2, 1, seed=1)
        grad = oracle_sample_grad(model, np.zeros(2), np.array([1.0]), 0)
        assert np.allclose(grad, [-0.5, 0.5], atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        model = objectives.make_logistic_regression(3, 4, seed=6)
        rng = np.random.default_rng(1)
        x, y = model.draw(0, 1, 10)
        for k in range(10):
            central_difference(model, 0.5 * rng.standard_normal(model.dim), x[k], y[k])

    def test_losses_are_nonnegative(self):
        model = objectives.make_logistic_regression(4, 5, seed=7)
        rng = np.random.default_rng(2)
        x, y = model.draw(0, 1, 50)
        losses = model.loss_batch(rng.standard_normal(model.dim), x, y)
        assert losses.min() >= 0.0

    def test_softmax_stable_for_large_weights(self):
        model = objectives.make_logistic_regression(3, 4, seed=8)
        x, y = model.draw(0, 1, 5)
        losses = model.loss_batch(1e6 * np.ones(model.dim), x, y)
        assert np.isfinite(losses).all()

    def test_csv_source(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,10,200\n1,255,3\n1,128,128\n")
        model = objectives.make_logistic_regression(2, 3, seed=9, csv_path=path)
        x, y = model.draw(0, 1, 8)
        assert x.shape == (8, 3)
        assert np.all(x[:, -1] == 1.0)
        assert x[:, :2].max() <= 1.0
        assert set(np.unique(y)) <= {0, 1}

    def test_csv_dimension_mismatch(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1,2,3\n")
        with pytest.raises(ValueError, match="expected 1 label"):
            objectives.make_logistic_regression(2, 3, seed=9, csv_path=path)

    def test_full_scale_classifier_configuration(self):
        # Ten classes over 785 features (784 pixels plus bias).
        model = objectives.make_logistic_regression(10, 785, seed=10)
        assert model.dim == 7850
        x, y = model.draw(0, 1, 3)
        assert x.shape == (3, 785)
        assert np.all(x[:, -1] == 1.0)


class TestMinibatchGradient:
    def test_single_sample(self):
        model = objectives.make_linear_regression(4, 0.2, seed=10)
        x, y = model.draw(0, 1, 1)
        w = np.ones(4)
        got = model.grad_mean(w, x, y)
        assert np.allclose(got, oracle_sample_grad(model, w, x[0], y[0]), atol=1e-15)

    def test_identical_samples(self):
        model = objectives.make_linear_regression(4, 0.2, seed=11)
        x, y = model.draw(0, 1, 1)
        got = model.grad_mean(np.ones(4), np.repeat(x, 6, axis=0), np.repeat(y, 6))
        assert np.allclose(got, oracle_sample_grad(model, np.ones(4), x[0], y[0]), atol=1e-14)

    @pytest.mark.parametrize("maker,args", [
        (objectives.make_linear_regression, (5, 0.3)),
        (objectives.make_logistic_regression, (3, 4)),
    ])
    def test_equals_sum_then_divide_oracle(self, maker, args):
        model = maker(*args, seed=12)
        x, y = model.draw(0, 1, 17)
        w = 0.3 * np.ones(model.dim)
        got = model.grad_mean(w, x, y)
        oracle = np.zeros(model.dim)
        for k in range(17):
            oracle += oracle_sample_grad(model, w, x[k], y[k])
        oracle /= 17
        assert np.linalg.norm(got - oracle) <= 1e-12 * max(1.0, np.linalg.norm(oracle))

    def test_permutation_invariance(self):
        model = objectives.make_linear_regression(5, 0.3, seed=13)
        x, y = model.draw(0, 1, 31)
        w = np.ones(5)
        base = model.grad_mean(w, x, y)
        perm = np.random.default_rng(0).permutation(31)
        other = model.grad_mean(w, x[perm], y[perm])
        assert np.linalg.norm(base - other) <= 1e-12 * max(1.0, np.linalg.norm(base))

    def test_linear_sample_grad_is_grad_mean_of_one_row_bit_for_bit(self):
        # Both reduce x * w with numpy's pairwise sum, not BLAS, so neither
        # depends on which BLAS numpy links.
        model = objectives.make_linear_regression(50, 0.2, seed=15)
        x, y = model.draw(0, 1, 300)
        w = np.random.default_rng(1).standard_normal(50)
        for k in range(300):
            one_row = model.grad_mean(w, x[k:k + 1], y[k:k + 1])
            assert oracle_sample_grad(model, w, x[k], y[k]).tobytes() == one_row.tobytes()

    def test_softmax_grad_mean_matches_per_class_loop_bit_for_bit(self):
        # The oracle is the per-class loop that the broadcast replaced. With a
        # single feature column the loop's mean is a pairwise sum and the
        # broadcast's a running one, so the shapes start at two features.
        rng = np.random.default_rng(2)
        for trial in range(100):
            classes, feat, rows = (int(v) for v in rng.integers((2, 2, 1), (12, 30, 200)))
            model = objectives.make_logistic_regression(classes, feat, seed=trial)
            x = rng.standard_normal((rows, feat))
            y = rng.integers(0, classes, rows)
            w = rng.standard_normal(model.dim)
            probs = np.exp(model._log_probs(w.reshape(classes, feat), x).T)
            probs[np.arange(rows), y] -= 1.0
            oracle = np.empty((classes, feat))
            for cls in range(classes):
                oracle[cls] = np.mean(x * probs[:, cls, None], axis=0)
            assert model.grad_mean(w, x, y).tobytes() == oracle.reshape(-1).tobytes()

    @pytest.mark.parametrize("maker, shapes", [
        (objectives.make_linear_regression, [(1, 0.2), (2, 0.0), (8, 0.1), (50, 0.3)]),
        (objectives.make_logistic_regression, [(2, 1), (2, 5), (3, 4), (10, 13)]),
    ])
    def test_loss_and_grad_matches_separate_passes_bit_for_bit(self, maker, shapes):
        # A dim-1 linear model sums its one column pairwise; wider ones add rows in order.
        rng = np.random.default_rng(3)
        for args in shapes:
            model = maker(*args, seed=16)
            for trial, rows in enumerate((1, 2, 7, 33, 200)):
                x, y = model.draw(trial, 1, rows)
                w = rng.standard_normal(model.dim)
                for count in sorted({0, 1, rows // 2, rows - 1, rows}):
                    losses, grad = model.loss_and_grad(w, x, y, count)
                    assert losses.tobytes() == oracle_loss_batch(model, w, x, y).tobytes()
                    oracle = (oracle_grad_mean(model, w, x[:count], y[:count]) if count
                              else np.zeros(model.dim))
                    assert grad.tobytes() == oracle.tobytes()
                assert model.loss_batch(w, x, y).tobytes() == losses.tobytes()
                assert model.grad_mean(w, x, y).tobytes() == grad.tobytes()

    @pytest.mark.parametrize("model", [
        objectives.make_linear_regression(1, 0.2, seed=4),
        objectives.make_linear_regression(7, 0.0, seed=4),
        objectives.make_linear_regression(30, 0.5, seed=4),
        objectives.make_logistic_regression(2, 1, seed=4),
        objectives.make_logistic_regression(4, 6, seed=4),
        objectives.MulticlassLogisticObjective(
            3, 5, seed=4, data=(np.random.default_rng(6).random((40, 5)),
                                np.random.default_rng(7).integers(0, 3, 40))),
    ], ids=["linear-d1", "linear-noise-free", "linear-d30", "softmax-1-feature",
            "softmax", "softmax-data"])
    def test_row_draws_match_one_stream_at_a_time_bit_for_bit(self, model):
        # Streams of 0, 1 and several rows, drawn into one chunk in order.
        counts = [3, 0, 1, 17, 64, 2]
        streams = [(node, 5) for node in range(len(counts))]

        def lanes(node, epoch):
            return lambda k: seeding.substream(model.seed, seeding.SAMPLES, node, epoch, k)

        x, y = model.draw_rows(counts, lambda k: [lanes(*s)(k) for s in streams])
        wants = [oracle_draw(model, lanes(*s), c) for s, c in zip(streams, counts)]
        assert x.tobytes() == np.concatenate([w[0] for w in wants]).tobytes()
        assert y.tobytes() == np.concatenate([w[1] for w in wants]).tobytes()
        assert x.dtype == wants[0][0].dtype and y.dtype == wants[0][1].dtype
        for (node, epoch), count, (want_x, want_y) in zip(streams, counts, wants):
            got_x, got_y = model.draw(node, epoch, count)
            assert got_x.tobytes() == want_x.tobytes() and got_y.tobytes() == want_y.tobytes()
        got_x, got_y = model.draw_rows([counts[0]], lambda k: [lanes(0, 5)(k)])
        assert got_x.tobytes() == wants[0][0].tobytes()
        assert got_y.tobytes() == wants[0][1].tobytes()

    @pytest.mark.parametrize("model", [objectives.make_linear_regression(4, 0.2, seed=14),
                                       objectives.make_logistic_regression(3, 4, seed=14)],
                             ids=["linear", "softmax"])
    def test_zero_rows_give_the_zero_vector(self, model):
        x, y = model.draw(0, 1, 0)
        got = model.grad_mean(np.ones(model.dim), x, y)
        assert got.shape == (model.dim,)
        assert got.tobytes() == np.zeros(model.dim).tobytes()


def spread(rng, shape):
    """Normals scaled over 12 orders of magnitude, with zeros of both signs among them."""
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    return values


class TestClassMajorKernel:
    @pytest.mark.parametrize("feat_dim", [1, 2, 7, 8, 9, 16, 17, 21, 32, 33, 65, 128, 129,
                                          300, 785])
    def test_matches_the_left_to_right_loop_bit_for_bit(self, feat_dim):
        # Row counts straddle the kernel's row blocks. Gradient rows are not
        # blocked, so at most 100 are asked for, and one weight vector per
        # row is left out above 2**21 weights, for memory.
        rng = np.random.default_rng(feat_dim)
        for classes in (2, 3, 10):
            model = objectives.make_logistic_regression(classes, feat_dim, seed=classes)
            block = objectives._SLAB_VALUES // classes
            for rows in (1, block - 1, block, block + 1, 3000):
                x = spread(rng, (rows, feat_dim))
                y = rng.integers(0, classes, rows)
                count = min(rows, 100)
                shapes = [(model.dim,)] + ([(rows, model.dim)] if rows * model.dim <= 2**21 else [])
                for shape in shapes:
                    w = spread(rng, shape)
                    weights = w.reshape(*shape[:-1], classes, feat_dim)
                    case = (classes, rows, shape)
                    want = oracle_logits(model, weights, x).T
                    assert model._logits(weights, x).tobytes() == want.tobytes(), case
                    losses, grads = model.loss_and_grad_rows(w, x, y, count)
                    want_losses, want_grads = oracle_rows(model, w, x, y, count)
                    assert losses.tobytes() == want_losses.tobytes(), case
                    assert grads.tobytes() == want_grads.tobytes(), case
                    if len(shape) == 1:
                        assert model.loss_batch(w, x, y).tobytes() == want_losses.tobytes(), case


class TestEstimateConstants:
    def test_smoothness_tracks_second_moment_scale(self):
        # For least squares the per-sample curvature along the feature
        # direction is exactly ||x||^2, so the max-ratio estimate must sit
        # just above the empirical second-moment average and within the
        # chi-squared tail of it.
        dim = 200
        model = objectives.make_linear_regression(dim, 0.0, seed=15)
        est = objectives.estimate_constants(model, probe_count=128, seed=21, radius=5.0)
        rngs = np.random.default_rng(1), np.random.default_rng(2)
        x, _ = model.draw_rows([4096], lambda k: [rngs[k]])
        oracle = float(np.mean((x * x).sum(axis=1)))
        assert oracle <= est.grad_smoothness <= 1.6 * oracle

    def test_variance_near_optimum_is_feature_induced(self):
        dim = 12
        model = objectives.make_linear_regression(dim, 0.0, seed=16)
        delta = 1e-2 * np.ones(dim) / math.sqrt(dim)
        got = objectives.gradient_variance_at(model, model.w_star + delta, 4000, seed=3)
        # For unit-normal features the gradient variance at w* + delta is
        # (dim + 1) * ||delta||^2 exactly.
        analytic = (dim + 1) * float(np.dot(delta, delta))
        assert got == pytest.approx(analytic, rel=0.15)

    def test_label_noise_floor_at_optimum(self):
        dim = 10
        noise = 0.5
        model = objectives.make_linear_regression(dim, noise, seed=17)
        got = objectives.gradient_variance_at(model, model.w_star, 4000, seed=4)
        assert got == pytest.approx(noise * dim, rel=0.15)

    def test_smoke_minimum_probes(self):
        model = objectives.make_linear_regression(3, 0.1, seed=18)
        est = objectives.estimate_constants(model, probe_count=2, seed=5, radius=1.0)
        assert math.isfinite(est.grad_smoothness)
        assert math.isfinite(est.loss_lipschitz)
        assert math.isfinite(est.grad_variance)

    def test_rejects_single_probe(self):
        model = objectives.make_linear_regression(3, 0.1, seed=19)
        with pytest.raises(ValueError):
            objectives.estimate_constants(model, probe_count=1, seed=6)

    @pytest.mark.parametrize("make", ESTIMATOR_MODELS)
    def test_match_the_per_sample_loops_bit_for_bit(self, make, tmp_path):
        model = make(tmp_path)
        cases = itertools.product((2, 9, 48, 64), (0, 17, 2**40 + 7))
        for (probes, seed), radius in zip(cases, itertools.cycle((0.5, 1.0, 5.0))):
            est = objectives.estimate_constants(model, probes, seed, radius)
            got = (est.grad_smoothness, est.loss_lipschitz, est.grad_variance)
            want = loop_estimate_constants(model, probes, seed, radius)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (probes, seed, radius)
            w = radius * np.random.default_rng(probes).standard_normal(model.dim)
            got = objectives.gradient_variance_at(model, w, probes + 2, seed)
            want = loop_gradient_variance_at(model, w, probes + 2, seed)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (probes, seed)


class TestSampleLanes:
    @pytest.mark.parametrize("model, lanes", [
        (objectives.make_linear_regression(4, 0.0, seed=3), [0]),
        (objectives.make_linear_regression(4, 0.1, seed=3), [0, 1]),
        (objectives.make_logistic_regression(3, 4, seed=3), [0, 1]),
        (objectives.MulticlassLogisticObjective(
            3, 5, seed=3, data=(np.ones((6, 5)), np.arange(6) % 3)), [0]),
    ], ids=["linear-noise-free", "linear", "softmax", "softmax-data"])
    def test_draws_build_only_the_lanes_they_read(self, monkeypatch, model, lanes):
        built = []
        substream = seeding.substream

        def spy(seed, *path):
            built.append(path)
            return substream(seed, *path)

        monkeypatch.setattr(seeding, "substream", spy)
        model.holdout(5)
        model.draw(2, 3, 5)
        assert built == ([(seeding.HOLDOUT, k) for k in lanes]
                         + [(seeding.SAMPLES, 2, 3, k) for k in lanes])
