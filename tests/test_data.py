"""Dataset container, candidate-set invariants, and bit-exact file I/O."""

import numpy as np
import pytest

from idgp.data import (
    PLLDataset,
    load_dataset,
    occurrence_vector,
    read_sidecar,
    write_dataset,
    write_sidecar,
)
from idgp.errors import DataFormatError, DataInvariantError


def random_dataset(rng, n=None, q=None, c=None, with_labels=True):
    n = n or int(rng.integers(1, 20))
    q = q or int(rng.integers(1, 6))
    c = c or int(rng.integers(2, 7))
    features = rng.normal(scale=10.0, size=(n, q)) * rng.choice(
        [1e-8, 1e-3, 1.0, 1e6], size=(n, q))
    labels = rng.integers(0, c, size=n)
    candidates = []
    for y in labels:
        extra = [j for j in range(c) if j != y and rng.random() < 0.4]
        if len(extra) == c - 1:
            extra.pop(rng.integers(len(extra)))
        candidates.append(tuple(sorted([int(y)] + extra)))
    return PLLDataset(features=features, candidates=tuple(candidates), c=c,
                      true_labels=labels if with_labels else None)


class TestInvariants:
    def test_header_counts(self, tmp_path):
        text = "2 3 4\n0.5 1.0 -2.0 | 1 2 | 1\n3.0 4.0 5.0 | 3 | 3\n"
        path = tmp_path / "d.pll"
        path.write_text(text)
        ds = load_dataset(path)
        assert (ds.n, ds.q, ds.c) == (2, 3, 4)
        assert ds.candidates == ((0, 1), (2,))
        assert list(ds.true_labels) == [0, 2]

    def test_full_candidate_set_rejected(self, tmp_path):
        text = "1 2 4\n0.0 1.0 | 1 2 3 4\n"
        path = tmp_path / "d.pll"
        path.write_text(text)
        with pytest.raises(DataInvariantError, match="full candidate set at instance 0"):
            load_dataset(path)

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(DataInvariantError, match="empty candidate set"):
            PLLDataset(features=np.zeros((1, 2)), candidates=((),), c=3)

    def test_true_label_outside_set_rejected(self):
        with pytest.raises(DataInvariantError, match="not in candidate set"):
            PLLDataset(features=np.zeros((1, 2)), candidates=((0, 1),), c=3,
                       true_labels=np.array([2]))

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(DataInvariantError, match="non-finite"):
            PLLDataset(features=np.array([[np.nan, 0.0]]), candidates=((0,),), c=2)

    def test_label_out_of_range(self):
        with pytest.raises(DataInvariantError, match="out of range"):
            PLLDataset(features=np.zeros((1, 2)), candidates=((5,),), c=3)

    def test_empty_features_rejected(self):
        with pytest.raises(DataInvariantError):
            PLLDataset(features=np.zeros((1, 0)), candidates=((0,),), c=2)

    def test_loaded_set_sizes_in_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            ds = random_dataset(rng)
            for s in ds.candidates:
                assert 1 <= len(s) <= ds.c - 1


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_random_datasets_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(1)
        for i in range(100):
            ds = random_dataset(rng, with_labels=bool(i % 2))
            path = tmp_path / f"ds_{i}.pll"
            write_dataset(ds, path, fmt)
            back = load_dataset(path, fmt)
            assert np.array_equal(ds.features, back.features)
            assert ds.candidates == back.candidates
            assert ds.c == back.c
            if ds.true_labels is None:
                assert back.true_labels is None
            else:
                assert np.array_equal(ds.true_labels, back.true_labels)

    def test_large_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n=1000, q=4, c=5)
        path = tmp_path / "big.pll"
        write_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(ds.features, back.features)
        assert ds.candidates == back.candidates

    def test_singleton_dataset_roundtrips(self, tmp_path):
        ds = PLLDataset(features=np.array([[0.25]]), candidates=((1,),), c=2)
        path = tmp_path / "one.pll"
        write_dataset(ds, path)
        back = load_dataset(path)
        assert back.n == 1 and back.candidates == ((1,),)

    def test_extreme_float_values_bit_exact(self, tmp_path):
        vals = np.array([[1e-308, -1.7976931348623157e308, 0.1 + 0.2,
                          np.pi, 5e-324]])
        ds = PLLDataset(features=vals, candidates=((0,),), c=2)
        for fmt in ("text", "jsonl"):
            path = tmp_path / f"x.{fmt}"
            write_dataset(ds, path, fmt)
            back = load_dataset(path, fmt)
            assert np.array_equal(back.features, vals)

    def test_labels_one_indexed_in_file(self, tmp_path):
        ds = PLLDataset(features=np.zeros((1, 1)), candidates=((0,),), c=2,
                        true_labels=np.array([0]))
        path = tmp_path / "d.pll"
        write_dataset(ds, path)
        row = path.read_text().splitlines()[1]
        assert row.endswith("| 1 | 1")


HEAD = '{"n": 1, "q": 1, "c": 3}\n'
ROW = '{"n": 2, "q": 1, "c": 3}\n{"features": [0.5], "candidates": [1]}\n'


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "nope.pll")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_text("1 2\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_dataset(path)

    def test_malformed_feature_has_line_number(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_text("1 2 3\n0.5 zap | 1\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_dataset(path)

    def test_feature_count_mismatch(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_text("1 3 3\n0.5 1.0 | 1\n")
        with pytest.raises(DataFormatError, match="expected 3 features"):
            load_dataset(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_text("2 1 3\n0.5 | 1\n")
        with pytest.raises(DataFormatError, match="only 1 rows"):
            load_dataset(path)

    def test_jsonl_bad_json(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"n": 1, "q": 1, "c": 2}\n{oops\n')
        with pytest.raises(DataFormatError, match=":2"):
            load_dataset(path, "jsonl")

    @pytest.mark.parametrize("fmt, text, line", [
        pytest.param("jsonl", ROW + "3\n", 3, id="jsonl-row-not-object"),
        pytest.param("jsonl", HEAD + '{"features": [0.5], "candidates": ["x"]}\n', 2,
                     id="jsonl-candidate-string"),
        pytest.param("jsonl", HEAD + '{"features": ["a"], "candidates": [1]}\n', 2,
                     id="jsonl-feature-string"),
        pytest.param("jsonl", HEAD + '{"features": [[1.0]], "candidates": [1]}\n', 2,
                     id="jsonl-feature-nested"),
        pytest.param("jsonl", HEAD + '{"features": [0.5], "candidates": null}\n', 2,
                     id="jsonl-candidates-null"),
        pytest.param("jsonl", '{"n": "x", "q": 1, "c": 3}\n', 1, id="jsonl-header-string"),
        pytest.param("jsonl", '{"n": -1, "q": 1, "c": 3}\n', 1, id="jsonl-negative-n"),
        pytest.param("jsonl", '{"n": 1, "q": -1, "c": 3}\n{"features": []}\n', 1,
                     id="jsonl-negative-q"),
        pytest.param("text", "-1 2 3\n", 1, id="text-negative-n"),
        pytest.param("text", "1 -2 3\n0.5 | 1\n", 1, id="text-negative-q"),
        pytest.param("text", "1 1 3\n0.\udcff | 1\n", 2, id="text-not-utf8"),
        pytest.param("jsonl", HEAD + '{"features": [0.5], "candidates": "12"}\n', 2,
                     id="jsonl-candidates-string"),
        pytest.param("jsonl", HEAD + '{"features": ["1.5"], "candidates": [1]}\n', 2,
                     id="jsonl-feature-numeric-string"),
        pytest.param("jsonl", HEAD + '{"features": [true], "candidates": [1]}\n', 2,
                     id="jsonl-feature-bool"),
        pytest.param("jsonl", HEAD + '{"features": [0.5], "candidates": [1.5]}\n', 2,
                     id="jsonl-candidate-float"),
        pytest.param("jsonl", HEAD + '{"features": [0.5], "candidates": [true]}\n', 2,
                     id="jsonl-candidate-bool"),
        pytest.param("jsonl", HEAD + '{"features": [0.5], "candidates": [1], '
                     '"true_label": "1"}\n', 2, id="jsonl-label-string"),
        pytest.param("jsonl", '{"n": 1.7, "q": 1, "c": 3}\n'
                     '{"features": [0.5], "candidates": [1]}\n', 1, id="jsonl-header-float"),
        pytest.param("jsonl", HEAD + "[" * 100000 + "\n", 2, id="jsonl-deep-nesting"),
        pytest.param("jsonl", '{"n": ' + "1" * 5000 + ', "q": 1, "c": 3}\n', 1,
                     id="jsonl-header-too-many-digits"),
        pytest.param("jsonl", HEAD + '{"features": [' + "1" * 400 + '], "candidates": [1]}\n',
                     2, id="jsonl-feature-overflows-float"),
        pytest.param("text", "0 100000000000000000000 3\n", 1, id="text-huge-q-no-rows"),
        pytest.param("text", "1 1000000000000 3\n0.5 | 1\n", 1, id="text-huge-q"),
        pytest.param("text", "1 1 100000000000000000000000\n0.5 | 1\n", 1,
                     id="text-huge-c"),
        pytest.param("jsonl", '{"n": 1, "q": 1, "c": 100000000000000000000000}\n'
                     '{"features": [0.5], "candidates": [1]}\n', 1, id="jsonl-huge-c"),
    ])
    def test_malformed_input_names_line(self, tmp_path, fmt, text, line):
        path = tmp_path / "d.data"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(DataFormatError, match=rf"d\.data:{line}: "):
            load_dataset(path, fmt)

    def test_huge_true_label_is_out_of_range(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_text("1 1 3\n0.5 | 1 | " + "9" * 30 + "\n")
        with pytest.raises(DataInvariantError, match="true label out of"):
            load_dataset(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(DataFormatError, match="unknown format"):
            load_dataset(tmp_path / "d.pll", "parquet")

    def test_json_lines_is_not_a_format(self, tmp_path):
        with pytest.raises(DataFormatError, match="unknown format"):
            load_dataset(tmp_path / "d.pll", "json-lines")


class TestOccurrence:
    def test_examples(self):
        assert occurrence_vector([0, 1], 3).tolist() == [1.0, 1.0, 0.0]
        assert occurrence_vector([2], 3).tolist() == [0.0, 0.0, 1.0]

    def test_sum_equals_set_size(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = int(rng.integers(2, 12))
            size = int(rng.integers(1, c))
            s = rng.choice(c, size=size, replace=False)
            assert occurrence_vector(s, c).sum() == size

    def test_out_of_range(self):
        with pytest.raises(DataInvariantError):
            occurrence_vector([3], 3)


def test_sidecar_roundtrip(tmp_path):
    meta = {"mode": "uniform", "seed": 3, "params": {"p": 0.25}}
    data_path = tmp_path / "set.pll"
    write_sidecar(data_path, meta)
    assert (tmp_path / "set.meta").exists()
    assert read_sidecar(data_path) == meta


def test_occurrence_matrix_matches_vectors():
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, n=30)
    mat = ds.occurrence_matrix()
    for i, s in enumerate(ds.candidates):
        assert np.array_equal(mat[i], occurrence_vector(s, ds.c))
