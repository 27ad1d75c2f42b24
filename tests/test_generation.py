"""Candidate-set density, synthetic corruption, and the clean scorer."""

import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import idgp.generation as generation_mod
from idgp.data import PLLDataset
from idgp.errors import DataInvariantError, NumericError
from idgp.generation import (
    CleanScorerConfig,
    candidate_set_density,
    corrupt_instance_dependent,
    corrupt_uniform,
    make_clean_dataset,
    train_clean_scorer,
)
from idgp.rng import substream


def blobs(seed=0, n_per=50, c=4, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(c, 2))
    X = np.vstack([ctr + rng.normal(0, spread, (n_per, 2)) for ctr in centers])
    y = np.repeat(np.arange(c), n_per)
    perm = rng.permutation(len(y))
    return make_clean_dataset(X[perm], y[perm], c)


class TestDensity:
    def test_hand_values_two_classes(self):
        theta = np.array([0.7, 0.3])
        z = np.array([0.2, 0.4])
        assert candidate_set_density((0,), theta, z) == pytest.approx(
            0.7 * 0.8 * 0.6, rel=1e-12)  # = 0.336
        assert candidate_set_density((0, 1), theta, z) == pytest.approx(
            0.224 + 0.036, rel=1e-12)  # = 0.26

    def test_subset_sum_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            c = int(rng.integers(2, 8))
            theta = rng.dirichlet(np.ones(c))
            z = rng.uniform(0.05, 0.95, size=c)
            total = 0.0
            for size in range(1, c + 1):
                for s in itertools.combinations(range(c), size):
                    total += candidate_set_density(s, theta, z)
            assert total == pytest.approx(float((theta * (1 - z)).sum()), abs=1e-12)

    def test_identity_hand_value(self):
        theta = np.array([0.7, 0.3])
        z = np.array([0.2, 0.4])
        total = sum(candidate_set_density(s, theta, z)
                    for s in [(0,), (1,), (0, 1)])
        assert total == pytest.approx(0.74, rel=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            candidate_set_density((), np.array([0.5, 0.5]), np.array([0.3, 0.3]))


class TestCorruptionSubstreams:
    """A corruption builds exactly one substream, whatever its rows draw."""

    @pytest.mark.parametrize("mode", ["uniform", "instance"])
    def test_one_corrupt_substream_per_corruption(self, monkeypatch, mode):
        built = []

        def spy(seed, name, *extra):
            built.append((name, extra))
            return substream(seed, name, *extra)

        monkeypatch.setattr(generation_mod, "substream", spy)
        # at c=3 and flip probability 0.95 most sets come out full and drop a label
        ds = blobs(seed=4, n_per=100, c=3)
        if mode == "uniform":
            corrupt_uniform(ds, 0.95, 6)
        else:
            corrupt_instance_dependent(ds, np.full((ds.n, ds.c), 3.0), 6)  # expit(3) = 0.953
        assert built == [("corrupt", ())]


class TestInstanceDependentCorruption:
    def test_seeded_trace_matches_hand_rule(self):
        # row i reads c + 1 uniforms of the one stream substream(seed, "corrupt"):
        # label k joins when the k-th falls below its probability, and a full set
        # then loses the wrong label at index floor(u * (c - 1)) of the last, u
        def hand_rule(ds, probs, seed):
            u = substream(seed, "corrupt").random((ds.n, ds.c + 1))
            mask = np.zeros((ds.n, ds.c), dtype=bool)
            for i, label in enumerate(ds.true_labels.tolist()):
                members = u[i, :ds.c] < probs[i]
                members[label] = True
                if members.all():
                    wrong = sorted(set(range(ds.c)) - {label})
                    members[wrong[int(u[i, ds.c] * (ds.c - 1))]] = False
                mask[i] = members
            return mask

        ds = blobs(seed=2, n_per=5)
        scores = np.random.default_rng(3).normal(size=(ds.n, ds.c)) * 2.0
        out, _ = corrupt_instance_dependent(ds, scores, 11)
        assert np.array_equal(out.mask, hand_rule(ds, expit(scores), 11))
        out, _ = corrupt_uniform(ds, 0.4, 2 ** 40 + 9)
        assert np.array_equal(out.mask, hand_rule(ds, np.full((ds.n, ds.c), 0.4), 2 ** 40 + 9))
        # at c=3 and p=0.95 most sets come out full, so most rows drop a label
        ds = blobs(seed=4, n_per=100, c=3)
        out, _ = corrupt_uniform(ds, 0.95, 6)
        u = substream(6, "corrupt").random((ds.n, 4))
        full = [np.delete(u[i, :3] < 0.95, label).all()
                for i, label in enumerate(ds.true_labels.tolist())]
        assert np.mean(full) > 0.8
        assert np.array_equal(out.mask, hand_rule(ds, np.full((ds.n, ds.c), 0.95), 6))

    def test_flip_probabilities_are_sigmoid(self):
        # score 2 -> p=0.881, score -1 -> 0.269, score 0 -> 0.5
        assert expit(2.0) == pytest.approx(0.8808, abs=1e-4)
        assert expit(-1.0) == pytest.approx(0.2689, abs=1e-4)
        assert expit(0.0) == 0.5
        n = 20000
        ds = make_clean_dataset(np.zeros((n, 1)), np.zeros(n, dtype=int), 3)
        scores = np.tile(np.array([2.0, -1.0, 0.0]), (n, 1))
        out, report = corrupt_instance_dependent(ds, scores, 5)
        occ = out.occurrence_matrix()
        freq = occ.mean(axis=0)
        # label 1 joins via sigmoid(-1) but leaves half the time the set
        # came out full, which needs label 2 (prob 0.5) to have joined too
        p1, p2 = expit(-1.0), expit(0.0)
        assert freq[1] == pytest.approx(p1 - p1 * p2 * 0.5, abs=0.02)
        assert freq[2] == pytest.approx(p2 - p1 * p2 * 0.5, abs=0.02)

    def test_saturated_scores_trigger_drop_one(self):
        n, c = 200, 4
        ds = make_clean_dataset(np.zeros((n, 1)), np.zeros(n, dtype=int), c)
        # a score of 50 puts every sigmoid at ~1; at +-1000 (a --scorer-clamp of
        # 1000 allows such scores) exp under- or overflows, which must not warn
        for score, size in ((50.0, c - 1), (1000.0, c - 1), (-1000.0, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out, report = corrupt_instance_dependent(ds, np.full((n, c), score), 6)
            for i, s in enumerate(out.candidates):
                assert len(s) == size
                assert int(ds.true_labels[i]) in s
            assert report.avg_set_size == pytest.approx(size)
        # with every set full, each true label's c - 1 wrong labels are dropped
        # equally often: 1/4 at c=5, where 0.03 is over 4 standard deviations
        n, c = 20000, 5
        labels = np.arange(n) % c
        ds = make_clean_dataset(np.zeros((n, 1)), labels, c)
        out, _ = corrupt_instance_dependent(ds, np.full((n, c), 50.0), 6)
        assert np.count_nonzero(out.mask, axis=1).tolist() == [c - 1] * n
        for label in range(c):
            dropped = 1.0 - out.mask[labels == label].mean(axis=0)
            assert dropped[label] == 0.0
            assert np.abs(np.delete(dropped, label) - 1 / (c - 1)).max() <= 0.03

    def test_reproducible_given_seed(self):
        ds = blobs(seed=4)
        scores = np.random.default_rng(5).normal(size=(ds.n, ds.c))
        a, ra = corrupt_instance_dependent(ds, scores, 9)
        b, rb = corrupt_instance_dependent(ds, scores, 9)
        assert a.candidates == b.candidates
        assert ra.to_metadata() == rb.to_metadata()
        c_, _ = corrupt_instance_dependent(ds, scores, 10)
        assert c_.candidates != a.candidates

    def test_requires_true_labels_and_clean_sets(self):
        ds = blobs(seed=6)
        scores = np.zeros((ds.n, ds.c))
        unlabeled = PLLDataset(features=ds.features, mask=ds.mask,
                               c=ds.c, true_labels=None)
        with pytest.raises(DataInvariantError):
            corrupt_instance_dependent(unlabeled, scores, 0)
        ambiguous, _ = corrupt_uniform(ds, 0.5, 0)
        with pytest.raises(DataInvariantError, match="already ambiguous"):
            corrupt_instance_dependent(ambiguous, scores, 0)

    def test_rejects_nonfinite_scores(self):
        ds = blobs(seed=7)
        scores = np.zeros((ds.n, ds.c))
        scores[0, 0] = np.nan
        with pytest.raises(NumericError):
            corrupt_instance_dependent(ds, scores, 0)


def test_package_imports_without_scipy():
    # the flip-probability sigmoid is numpy; a fresh process must not load scipy
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, idgp, idgp.cli, idgp.gradcheck; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


class TestUniformCorruption:
    def test_tiny_p_gives_singletons(self):
        ds = blobs(seed=8, n_per=100)
        out, report = corrupt_uniform(ds, 1e-12, 3)
        assert all(len(s) == 1 for s in out.candidates)
        assert report.avg_set_size == 1.0

    def test_mean_set_size_binomial(self):
        n, c, p = 10 ** 4, 10, 0.3
        ds = make_clean_dataset(np.zeros((n, 1)),
                                np.random.default_rng(0).integers(0, c, n), c)
        out, report = corrupt_uniform(ds, p, 12)
        expected = 1 + (c - 1) * p
        sigma = np.sqrt((c - 1) * p * (1 - p) / n)
        assert abs(report.avg_set_size - expected) <= 3 * sigma

    def test_invariants_always_hold(self):
        ds = blobs(seed=9)
        for p in (0.1, 0.5, 0.9):
            out, _ = corrupt_uniform(ds, p, 1)
            for i, s in enumerate(out.candidates):
                assert int(ds.true_labels[i]) in s
                assert 1 <= len(s) <= ds.c - 1

    @pytest.mark.parametrize("mode", ("uniform", "instance"))
    def test_prefix_corrupts_as_the_whole(self, mode):
        # row i reads only its own c + 1 uniforms of the stream, so the first k
        # rows corrupt the same alone as within the whole dataset; at c=4 about
        # a fifth of the sets come out full and drop a label
        ds = blobs(seed=16)
        scores = np.random.default_rng(17).normal(size=(ds.n, ds.c)) * 2.0

        def corrupt(rows):
            if mode == "uniform":
                return corrupt_uniform(ds.subset(rows), 0.6, 5)[0].mask
            return corrupt_instance_dependent(ds.subset(rows), scores[rows], 5)[0].mask

        whole = corrupt(np.arange(ds.n))
        for k in (1, ds.n - 1):
            assert np.array_equal(corrupt(np.arange(k)), whole[:k])

    def test_p_out_of_range(self):
        ds = blobs(seed=10)
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="p must lie"):
                corrupt_uniform(ds, p, 0)

    def test_report_metadata(self):
        ds = blobs(seed=11)
        _, report = corrupt_uniform(ds, 0.25, 42)
        meta = report.to_metadata()
        assert meta["mode"] == "uniform"
        assert meta["seed"] == 42
        assert meta["params"]["p"] == 0.25
        assert 1.0 <= meta["avg_set_size"] <= ds.c - 1
        assert len(meta["per_class_ambiguity"]) == ds.c


class TestCleanScorer:
    def test_separable_two_class_blobs(self):
        rng = np.random.default_rng(13)
        X = np.vstack([rng.normal(-4, 0.5, (100, 2)), rng.normal(4, 0.5, (100, 2))])
        y = np.repeat([0, 1], 100)
        ds = make_clean_dataset(X, y, 2)
        scores, _ = train_clean_scorer(ds, CleanScorerConfig(epochs=30, seed=0))
        acc = float(np.mean(scores.argmax(axis=1) == y))
        assert acc >= 0.99

    def test_constant_features_give_near_uniform_probs(self):
        n, c = 400, 4
        labels = np.tile(np.arange(c), n // c)
        ds = make_clean_dataset(np.ones((n, 3)), labels, c)
        scores, _ = train_clean_scorer(
            ds, CleanScorerConfig(epochs=200, lr=0.05, seed=1))
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.max(np.abs(probs - 1.0 / c)) < 0.05

    def test_deterministic_given_seed(self):
        ds = blobs(seed=14)
        cfg = CleanScorerConfig(epochs=5, seed=7)
        s1, _ = train_clean_scorer(ds, cfg)
        s2, _ = train_clean_scorer(ds, cfg)
        assert np.array_equal(s1, s2)

    def test_linear_option(self):
        ds = blobs(seed=15)
        scores, net = train_clean_scorer(
            ds, CleanScorerConfig(hidden=0, epochs=5, seed=0))
        assert len(net.weights) == 1
        assert scores.shape == (ds.n, ds.c)
