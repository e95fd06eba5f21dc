import collections
import json

import numpy as np
import pytest

from ambsim import cli, dualavg, engine, objectives, seeding, timing, topology
from test_cli import paused_config

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1, 2**64, 2**130]


def same_stream(got, want):
    """Equal PCG64 state, then equal first draws."""
    assert got.bit_generator.state == want.bit_generator.state
    assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
    assert got.integers(0, 2**63, size=3).tobytes() == want.integers(0, 2**63, size=3).tobytes()


class TestSeedWords:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", [seeding.TIMING, seeding.PAUSES])
    def test_node_epoch_table_matches_substream(self, seed, family):
        table = seeding.StreamTable(seed, family, 4, 7, 9)
        assert table.words.shape == (3, 4, 4) and table.words.dtype == np.uint64
        for epoch in (7, 8, 9):
            for node, rng in zip([3, 0, 2, 1], table.generators([3, 0, 2, 1], epoch)):
                same_stream(rng, seeding.substream(seed, family, node, epoch))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_lanes_match_substream(self, seed):
        table = seeding.StreamTable(seed, seeding.SAMPLES, 3, 1, 2, lanes=2)
        for epoch in (1, 2):
            for lane in (0, 1):
                for node, rng in enumerate(table.generators(range(3), epoch, lane)):
                    same_stream(rng, seeding.substream(seed, seeding.SAMPLES, node, epoch, lane))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_round_words_and_edge_elements_match_substream(self, seed):
        epochs = np.array([1, 2, 5, 2**31, 2**32 - 1])
        words = seeding.seed_words(seed, seeding.ROUNDS, epochs)
        for epoch, row in zip(epochs, words):
            same_stream(seeding.generator(row), seeding.substream(seed, seeding.ROUNDS, int(epoch)))
        edge = (2**32 - 1, 0, 2**32 - 1, 1)
        same_stream(seeding.generator(seeding.seed_words(seed, *edge)),
                    seeding.substream(seed, *edge))
        same_stream(seeding.generator(seeding.seed_words(seed)), seeding.substream(seed))

    def test_paths_broadcast(self):
        words = seeding.seed_words(3, seeding.SAMPLES, np.arange(5), np.arange(1, 3)[:, None], 1)
        assert words.shape == (2, 5, 4)
        assert np.array_equal(words[1, 4], seeding.seed_words(3, seeding.SAMPLES, 4, 2, 1))

    @pytest.mark.parametrize("path", [(0, 2**32), (0, np.array([1, 2**32 + 5])), (0, -1),
                                      (np.array([[0], [-3]]),), (2**70,)])
    def test_path_elements_outside_one_word_are_rejected(self, path):
        with pytest.raises(ValueError, match="path elements"):
            seeding.seed_words(1, *path)

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            seeding.seed_words(-1, 0, 1, 2)


class TestEngineStreams:
    @pytest.mark.parametrize("model", [
        timing.ShiftedExponential(rate=1.0, shift=0.5, reference_batch=10),
        timing.GroupedPauseTiming.default_groups(nodes_per_group=1),
    ])
    def test_every_hot_stream_matches_substream(self, model):
        objective = objectives.make_linear_regression(3, 0.1, seed=2**64 + 9)
        cfg = engine.RunConfig(
            mode="amb", graph=topology.ring_graph(5), objective=objective, timing=model,
            schedule=dualavg.Schedule(offset=5.0, work_scale=50.0), comm_time=1.0, tau=6,
            radius=3.0, seed=2**32 + 3, compute_time=4.0, rounds=("uniform", 1, 4))
        streams = engine._Streams(cfg, 2, 5)
        for epoch in range(2, 6):
            same_stream(streams.rounds(epoch), seeding.substream(cfg.seed, seeding.ROUNDS, epoch))
            timing_rngs = streams.timing(epoch)
            lanes = streams.lanes([4, 0, 2], epoch)
            assert len(timing_rngs) == 5
            for node in range(5):
                same_stream(timing_rngs[node],
                            seeding.substream(cfg.seed, model.stream, node, epoch))
            for lane in (0, 1):
                for node, rng in zip([4, 0, 2], lanes(lane)):
                    same_stream(rng, seeding.substream(objective.seed, seeding.SAMPLES,
                                                       node, epoch, lane))

    def test_a_model_without_a_stream_gets_none(self):
        cfg = engine.RunConfig(
            mode="fmb", graph=topology.complete_graph(2),
            objective=objectives.make_linear_regression(2, 0.0, seed=1),
            timing=timing.DeterministicTiming(period=1.0), schedule=dualavg.Schedule(1.0, 1.0),
            comm_time=0.0, tau=1, radius=1.0, seed=1, batch=4)
        assert engine._Streams(cfg, 1, 1).timing(1) == [None, None]


def count_substream_tags(monkeypatch):
    """Patch ``seeding.substream`` to count its calls by stream tag."""
    tags = collections.Counter()
    substream = seeding.substream

    def counted(seed, *path):
        tags[path[0] if path else None] += 1
        return substream(seed, *path)

    monkeypatch.setattr(seeding, "substream", counted)
    return tags


class TestRunPathSeeding:
    """A run derives its per-(node, epoch) streams from tables, not scalar substream calls."""

    HOT = (seeding.TIMING, seeding.PAUSES, seeding.SAMPLES, seeding.ROUNDS)

    def test_ring_amb_run(self, monkeypatch):
        tags = count_substream_tags(monkeypatch)
        model = objectives.make_linear_regression(4, 0.01, seed=8)
        cfg = engine.RunConfig(
            mode="amb", graph=topology.ring_graph(30), objective=model,
            timing=timing.ShiftedExponential(rate=2 / 3, shift=1.0, reference_batch=20),
            schedule=dualavg.Schedule(offset=10.0, work_scale=300.0), comm_time=1.0, tau=6,
            radius=4.0, seed=12, compute_time=2.5, rounds=("uniform", 2, 5),
            holdout=model.holdout(50))
        trace = engine.run(cfg)
        assert trace.processed_total > 0
        assert not any(tags[tag] for tag in self.HOT), tags
        # The cold holdout stream still goes through the patched function.
        assert tags[seeding.HOLDOUT] > 0

    def test_paired_grouped_pause_compare(self, monkeypatch, tmp_path):
        path = paused_config(tmp_path, tmp_path / "out", run={"holdout": 40})
        payload = json.loads(path.read_text())
        payload["consensus"] = {"rounds": ["uniform", 2, 4]}
        path.write_text(json.dumps(payload))
        tags = count_substream_tags(monkeypatch)
        assert cli.main(["compare", str(path)]) == 0
        assert len((tmp_path / "out" / "compare.csv").read_text().splitlines()) == 2
        assert not any(tags[tag] for tag in self.HOT), tags
        assert tags[seeding.HOLDOUT] > 0
