import math

import numpy as np
import pytest

from ambsim import dualavg


class TestSchedule:
    def test_values(self):
        assert dualavg.beta(dualavg.Schedule(1.0, 4.0), 4) == pytest.approx(2.0)
        assert dualavg.beta(dualavg.Schedule(0.0, 1.0), 9) == pytest.approx(3.0)

    def test_rejects_epoch_below_one(self):
        with pytest.raises(ValueError):
            dualavg.beta(dualavg.Schedule(1.0, 4.0), 0)

    def test_strictly_increasing(self):
        s = dualavg.Schedule(2.0, 7.0)
        values = [dualavg.beta(s, t) for t in range(1, 200)]
        assert all(b < a for b, a in zip(values, values[1:]))

    def test_inverse_sum_bound(self):
        # Direct summation against the closed-form cap 2 sqrt(mu tau).
        s = dualavg.Schedule(1.0, 2.0)
        tau = 100
        total = sum(1.0 / dualavg.beta(s, t) for t in range(1, tau))
        assert total <= 2.0 * math.sqrt(s.work_scale * tau)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            dualavg.Schedule(-1.0, 1.0)
        with pytest.raises(ValueError):
            dualavg.Schedule(1.0, 0.0)


class TestPrimalUpdate:
    def test_zero_dual_gives_zero(self):
        assert np.array_equal(dualavg.primal_update(np.zeros(3), 2.0, 1.0), np.zeros(3))

    def test_interior_case(self):
        w = dualavg.primal_update(np.array([2.0, 0.0]), 4.0, 1.0)
        assert np.allclose(w, [-0.5, 0.0], atol=1e-15)

    def test_projected_case(self):
        w = dualavg.primal_update(np.array([8.0, 0.0]), 4.0, 1.0)
        assert np.allclose(w, [-1.0, 0.0], atol=1e-15)

    def test_norm_never_exceeds_radius(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z = rng.standard_normal(6) * rng.uniform(0, 50)
            radius = rng.uniform(0.1, 5.0)
            w = dualavg.primal_update(z, rng.uniform(0.1, 10.0), radius)
            assert np.linalg.norm(w) <= radius + 1e-12

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.standard_normal(4)
            beta_value = rng.uniform(0.5, 5.0)
            c = rng.uniform(0.01, 100.0)
            a = dualavg.primal_update(z, beta_value, 2.0)
            b = dualavg.primal_update(c * z, c * beta_value, 2.0)
            assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(a))

    def test_interior_first_order_optimality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = rng.standard_normal(5)
            beta_value = float(np.linalg.norm(z)) + rng.uniform(1.0, 3.0)
            w = dualavg.primal_update(z, beta_value, 1.0)
            if np.linalg.norm(w) < 1.0 - 1e-9:
                assert np.linalg.norm(z + beta_value * w) <= 1e-10

    def test_is_the_argmin_against_sampled_candidates(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(4) * 3.0
        beta_value, radius = 1.5, 1.0

        def objective(w):
            return float(np.dot(w, z)) + beta_value * 0.5 * float(np.dot(w, w))

        w_opt = dualavg.primal_update(z, beta_value, radius)
        best = objective(w_opt)
        for _ in range(500):
            cand = rng.standard_normal(4)
            cand *= rng.uniform(0, radius) / np.linalg.norm(cand)
            assert best <= objective(cand) + 1e-12

    def test_rows_match_per_row_calls_bit_for_bit(self):
        rng = np.random.default_rng(6)
        beta_value, radius = 2.5, 1.5
        z = rng.standard_normal((12, 7)) * rng.uniform(0.1, 8.0, size=(12, 1))
        z[3] = 0.0
        z[7] = 0.0
        z[9] = [-beta_value * radius] + [0.0] * 6  # lands exactly on the sphere
        rows = dualavg.primal_update(z, beta_value, radius)
        norms = np.linalg.norm(-z / beta_value, axis=1)
        assert (norms < radius).any() and (norms > radius).any() and norms[9] == radius
        assert rows.shape == z.shape
        for i in range(len(z)):
            row = dualavg.primal_update(z[i], beta_value, radius)
            assert np.array_equal(rows[i].view(np.uint64), row.view(np.uint64))
        assert not rows[3].any() and not rows[7].any()
        assert np.array_equal(rows[9], [radius] + [0.0] * 6)


class TestDualState:
    def test_initial_state(self):
        state = dualavg.initial_dual_state(3)
        assert state.t == 1
        assert np.array_equal(state.z, np.zeros(3))

    def test_consensus_result_advances_epoch(self):
        state = dualavg.initial_dual_state(2)
        nxt = dualavg.apply_consensus_result(state, np.array([1.0, -1.0]))
        assert nxt.t == 2
        assert np.array_equal(nxt.z, [1.0, -1.0])

    def test_epoch_counter_after_many_updates(self):
        state = dualavg.initial_dual_state(2)
        for _ in range(17):
            state = dualavg.apply_consensus_result(state, state.z + 1.0)
        assert state.t == 18

    def test_error_free_recursion(self):
        # With the exact average handed over, the dual follows z <- mean + grad.
        state = dualavg.DualState(z=np.array([2.0, 4.0]), t=5)
        target = np.array([3.0, 3.0]) + np.array([0.5, -0.5])
        nxt = dualavg.apply_consensus_result(state, target)
        assert np.array_equal(nxt.z, target)
        assert nxt.t == 6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dualavg.apply_consensus_result(dualavg.initial_dual_state(2), np.zeros(3))
