"""Splitting, accuracy, and multi-seed aggregation."""

import numpy as np
import pytest

from idgp.errors import DataFormatError, DataInvariantError
from idgp.evaluation import (
    SplitSpec,
    accuracy,
    aggregate,
    read_report_csv,
    split,
    write_report_csv,
)
from idgp.generation import corrupt_uniform, make_clean_dataset
from idgp.network import TransformConfig
from idgp.trainer import TrainConfig, init_state


def toy_dataset(seed=0, n=60, c=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.integers(0, c, size=n)
    clean = make_clean_dataset(X, y, c)
    return corrupt_uniform(clean, 0.3, seed)[0]


class TestSplit:
    def test_exact_sizes_for_ten(self):
        ds = toy_dataset(n=10)
        tr, va, te = split(ds, SplitSpec(0.8, 0.1, 0.1, seed=0))
        assert (tr.n, va.n, te.n) == (8, 1, 1)

    def test_same_seed_same_partition(self):
        ds = toy_dataset(n=50)
        a = split(ds, SplitSpec(seed=3))
        b = split(ds, SplitSpec(seed=3))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_partition_is_exhaustive_and_disjoint(self):
        ds = toy_dataset(n=53)
        parts = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=1))
        rows = np.vstack([p.features for p in parts])
        assert rows.shape[0] == ds.n
        original = {tuple(r) for r in ds.features}
        assert {tuple(r) for r in rows} == original

    def test_zero_fraction_part_is_none(self):
        ds = toy_dataset(n=20)
        tr, va, te = split(ds, SplitSpec(0.9, 0.0, 0.1, seed=0))
        assert va is None and tr.n == 18 and te.n == 2

    def test_empty_nonzero_part_rejected(self):
        ds = toy_dataset(n=3)
        with pytest.raises(DataInvariantError, match="empty"):
            split(ds, SplitSpec(0.9, 0.05, 0.05, seed=0))

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            SplitSpec(1.2, -0.1, -0.1)


class TestAccuracy:
    def _constant_net(self, ds, bias):
        state = init_state(TrainConfig(epochs=0, hidden=4, seed=0), ds)
        for W in state.f.weights:
            W[:] = 0.0
        for b in state.f.biases:
            b[:] = 0.0
        state.f.biases[-1][:] = bias
        return state.f

    def test_constant_net_on_balanced_data(self):
        n, c = 200, 4
        labels = np.tile(np.arange(c), n // c)
        ds = make_clean_dataset(np.zeros((n, 2)), labels, c)
        net = self._constant_net(ds, np.zeros(c))
        # ties resolve to label 0, which is exactly 1/c of the data
        assert accuracy(net, ds, TransformConfig()) == pytest.approx(1.0 / c)

    def test_oracle_net_is_perfect(self):
        n, c = 40, 2
        X = np.linspace(-1, 1, n)[:, None]
        y = (X[:, 0] > 0).astype(int)
        ds = make_clean_dataset(np.hstack([X, X]), y, c)
        state = init_state(TrainConfig(epochs=0, hidden=0, seed=0), ds)
        state.f.weights[0][:] = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        state.f.biases[0][:] = 0.0
        assert accuracy(state.f, ds, TransformConfig()) == 1.0

    def test_requires_labels(self):
        ds = toy_dataset()
        from idgp.data import PLLDataset
        bare = PLLDataset(features=ds.features, candidates=ds.candidates, c=ds.c)
        net = self._constant_net(ds, np.zeros(ds.c))
        with pytest.raises(DataInvariantError):
            accuracy(net, bare, TransformConfig())

    def test_dimension_mismatch(self):
        ds = toy_dataset()
        net = self._constant_net(ds, np.zeros(ds.c))
        from idgp.data import PLLDataset
        bad = PLLDataset(features=np.zeros((5, 7)), candidates=((0,),) * 5,
                         c=3, true_labels=np.zeros(5, dtype=int))
        with pytest.raises(DataInvariantError, match="features"):
            accuracy(net, bad, TransformConfig())

    def test_class_count_mismatch(self):
        ds = toy_dataset()
        from idgp.data import PLLDataset
        wide = PLLDataset(features=ds.features, candidates=ds.candidates, c=ds.c + 1,
                          true_labels=ds.true_labels)
        net = self._constant_net(wide, np.zeros(ds.c + 1))
        with pytest.raises(DataInvariantError,
                           match=f"predicts {ds.c + 1} classes, dataset has {ds.c}"):
            accuracy(net, ds, TransformConfig())

    def test_missing_labels_reported_before_class_mismatch(self):
        ds = toy_dataset()
        from idgp.data import PLLDataset
        bare = PLLDataset(features=ds.features, candidates=ds.candidates, c=ds.c + 1)
        net = self._constant_net(ds, np.zeros(ds.c))
        with pytest.raises(DataInvariantError, match="true labels"):
            accuracy(net, bare, TransformConfig())


class TestAggregate:
    def test_identical_values_zero_std(self):
        mean, std = aggregate([0.8, 0.8, 0.8])
        assert mean == pytest.approx(0.8, rel=1e-15)
        assert std == pytest.approx(0.0, abs=1e-15)

    def test_two_value_hand_computation(self):
        mean, std = aggregate([0.6, 0.8])
        assert mean == pytest.approx(0.7, rel=1e-12)
        assert std == pytest.approx(np.sqrt(((0.6 - 0.7) ** 2 + (0.8 - 0.7) ** 2) / 1),
                                    rel=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            aggregate([0.5])


def test_report_csv_roundtrip(tmp_path):
    # a quoted newline and comma stay inside their field
    rows = [{"method": "idgp", "dataset": "toy", "seed_count": 3,
             "mean_acc": 0.91, "std_acc": 0.02},
            {"method": "idgp\nv2, tuned", "dataset": "toy", "seed_count": 3,
             "mean_acc": 0.5, "std_acc": 0.1}]
    path = tmp_path / "report.csv"
    write_report_csv(path, rows)
    back = read_report_csv(path)
    assert [row["method"] for row in back] == ["idgp", "idgp\nv2, tuned"]
    assert float(back[0]["mean_acc"]) == 0.91


def test_report_csv_non_utf8_names_line(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b"method,dataset,seed_count,mean_acc,std_acc\n"
                     b"idgp,toy,3,0.9,0.01\nidgp,t\xffy,3,0.8,0.02\n")
    with pytest.raises(DataFormatError) as info:
        read_report_csv(path)
    assert str(info.value) == f"{path}:3: not UTF-8 text"
