"""Dataset container, candidate-set invariants, and bit-exact file I/O."""

import tracemalloc
import zipfile

import numpy as np
import pytest

from idgp import data
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
    @pytest.mark.parametrize("fmt", ["text", "npz"])
    def test_random_datasets_roundtrip(self, tmp_path, fmt):
        rng = np.random.default_rng(1)
        for i in range(100):
            ds = random_dataset(rng, with_labels=bool(i % 2))
            path = tmp_path / f"ds_{i}.{fmt}"  # the suffix picks the format
            write_dataset(ds, path)
            back = load_dataset(path)
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
        for name in ("x.pll", "x.npz"):
            path = tmp_path / name
            write_dataset(ds, path)
            back = load_dataset(path)
            assert np.array_equal(back.features, vals)

    def test_labels_one_indexed_in_file(self, tmp_path):
        ds = PLLDataset(features=np.zeros((1, 1)), candidates=((0,),), c=2,
                        true_labels=np.array([0]))
        path = tmp_path / "d.pll"
        write_dataset(ds, path)
        row = path.read_text().splitlines()[1]
        assert row.endswith("| 1 | 1")


def reference_bytes(ds):
    """The text file as one ``"\\n".join`` of every formatted line, built here."""
    labels = ds.true_labels
    lines = [f"{ds.n} {ds.q} {ds.c}"]
    for i, s in enumerate(ds.candidates):
        row = " ".join(repr(float(v)) for v in ds.features[i])
        row += " | " + " ".join(str(j + 1) for j in s)
        if labels is not None:
            row += f" | {labels[i] + 1}"
        lines.append(row)
    return ("\n".join(lines) + "\n").encode()


class TestStreamedIO:
    # only the last suffix picks npz
    @pytest.mark.parametrize("suffix", [pytest.param(".pll", id="text"),
                                        pytest.param(".npz.pll", id="npz-then-text-suffix")])
    @pytest.mark.parametrize("with_labels", [True, False])
    def test_written_bytes_equal_joined_lines(self, tmp_path, suffix, with_labels):
        rng = np.random.default_rng(7)
        for i in range(20):
            ds = random_dataset(rng, with_labels=with_labels)
            path = tmp_path / f"ds_{i}{suffix}"
            write_dataset(ds, path)
            assert path.read_bytes() == reference_bytes(ds)

    @pytest.fixture(scope="class")
    def big(self, tmp_path_factory):
        """A 20000 x 64 dataset and its text file, written untraced."""
        rng = np.random.default_rng(3)
        ds = PLLDataset(features=rng.normal(size=(20000, 64)),
                        candidates=[(int(y),) for y in rng.integers(0, 10, 20000)], c=10)
        path = tmp_path_factory.mktemp("big") / "big.pll"
        write_dataset(ds, path)
        return ds, path

    @staticmethod
    def traced_peak(fn):
        """Bytes ``fn()`` allocated at its peak, above what was live when it started."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            return tracemalloc.get_traced_memory()[1] - start, result
        finally:
            tracemalloc.stop()

    def test_write_holds_one_row(self, big, tmp_path):
        ds, path = big
        out = tmp_path / "again.pll"
        peak, _ = self.traced_peak(lambda: write_dataset(ds, out))
        assert peak <= 1 << 20, f"write peaked {peak / 2 ** 20:.1f} MB above its start"
        assert out.read_bytes() == path.read_bytes()

    def test_load_holds_lines_not_file_copies(self, big):
        # the arrays plus one block of lines: a budget that does not grow with the text
        ds, path = big
        peak, back = self.traced_peak(lambda: load_dataset(path))
        budget = back.features.nbytes + (8 << 20)
        assert peak <= budget, (f"load peaked {(peak - back.features.nbytes) / 2 ** 20:.1f} MB "
                                "above its features")
        assert np.array_equal(back.features, ds.features)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 1000])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("with_labels", [True, False])
    def test_rows_straddling_block_cuts_parse_as_one_block(self, tmp_path, monkeypatch,
                                                           block, newline, with_labels):
        ds = random_dataset(np.random.default_rng(block), n=40, with_labels=with_labels)
        path = tmp_path / "d.pll"
        write_dataset(ds, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        assert path.stat().st_size < data.READ_BLOCK
        whole = load_dataset(path)
        monkeypatch.setattr(data, "READ_BLOCK", block)
        cut = load_dataset(path)
        assert cut.features.tobytes() == whole.features.tobytes() == ds.features.tobytes()
        assert cut.candidates == whole.candidates == ds.candidates
        assert cut.c == ds.c
        if with_labels:
            assert cut.true_labels.tobytes() == whole.true_labels.tobytes()
        else:
            assert cut.true_labels is None and whole.true_labels is None


class TestStreamedErrorOrder:
    """Each line is decoded and parsed when the parser reaches it, so the
    fault reported is the first faulty line in file order, whatever its kind
    and whichever block it lies in; later blocks are never read."""

    BLOCK = 16

    def load_error(self, tmp_path, monkeypatch, content: bytes) -> str:
        path = tmp_path / "d.pll"
        path.write_bytes(content)
        assert len(content) > 2 * self.BLOCK  # at least three blocks
        monkeypatch.setattr(data, "READ_BLOCK", self.BLOCK)
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        return str(info.value)

    def test_row_fault_wins_over_later_non_utf8(self, tmp_path, monkeypatch):
        # line 2's bad index lies in the first block, line 5's 0xff in a later one
        content = b"4 1 3\n0.5 | x\n0.5 | 1\n0.5 | 2\n0.\xff | 1\n"
        message = self.load_error(tmp_path, monkeypatch, content)
        assert message == f"{tmp_path / 'd.pll'}:2: malformed candidate index"

    def test_row_fault_wins_over_later_non_utf8_in_one_block(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_bytes(b"4 1 3\n0.5 | x\n0.5 | 1\n0.5 | 2\n0.\xff | 1\n")
        assert path.stat().st_size < data.READ_BLOCK
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:2: malformed candidate index"

    def test_malformed_row_wins_over_too_few_rows(self, tmp_path, monkeypatch):
        content = b"5 1 3\n0.5 | 1\n0.5 | 2\n0.5 | y\n0.5 | 3\n"
        message = self.load_error(tmp_path, monkeypatch, content)
        assert message == f"{tmp_path / 'd.pll'}:4: malformed candidate index"

    def test_too_few_rows_after_the_last_block(self, tmp_path, monkeypatch):
        content = b"5 1 3\n0.5 | 1\n0.5 | 2\n0.5 | 3\n0.5 | 1\n"
        message = self.load_error(tmp_path, monkeypatch, content)
        assert message == f"{tmp_path / 'd.pll'}: header says n=5 but only 4 rows"


def write_npz(path, compression=zipfile.ZIP_STORED, **members):
    """An npz file of ``members``: each an array (pickled if it holds objects),
    a ``(descr, shape)`` pair that writes only that .npy header, or raw bytes."""
    with zipfile.ZipFile(path, "w", compression=compression) as zf:
        for key, value in members.items():
            with zf.open(f"{key}.npy", "w") as fh:
                if isinstance(value, bytes):
                    fh.write(value)
                elif isinstance(value, tuple):
                    np.lib.format.write_array_header_1_0(
                        fh, {"descr": value[0], "fortran_order": False, "shape": value[1]})
                else:
                    np.lib.format.write_array(fh, value)


class TestNpz:
    DIMS = np.array([2, 1, 3])
    GOOD = dict(dims=DIMS, features=np.array([[0.5], [-0.5]]),
                mask=np.array([[True, False, True], [False, True, False]]))

    def test_layout(self, tmp_path):
        ds = random_dataset(np.random.default_rng(5), n=7, q=3, c=4)
        path = tmp_path / "d.npz"
        write_dataset(ds, path)
        with np.load(path, allow_pickle=False) as npz:
            assert sorted(npz.files) == ["dims", "features", "labels", "mask"]
            assert npz["dims"].dtype == np.int64 and npz["dims"].tolist() == [7, 3, 4]
            assert npz["features"].dtype == np.float64
            assert np.array_equal(npz["mask"], ds.mask) and npz["mask"].dtype == bool
            assert npz["labels"].dtype == np.int64
            assert np.array_equal(npz["labels"], ds.true_labels)
        write_dataset(PLLDataset(ds.features, ds.mask, ds.c), path)
        with np.load(path, allow_pickle=False) as npz:
            assert "labels" not in npz.files

    def test_format_is_read_from_the_bytes_not_the_name(self, tmp_path):
        ds = random_dataset(np.random.default_rng(6))
        npz, text = tmp_path / "d.npz", tmp_path / "d.pll"
        write_dataset(ds, npz)
        write_dataset(ds, text)
        npz.rename(tmp_path / "npz.pll")
        text.rename(tmp_path / "text.npz")
        for name in ("npz.pll", "text.npz"):
            back = load_dataset(tmp_path / name)
            assert np.array_equal(back.features, ds.features)
            assert back.candidates == ds.candidates

    def test_good_file_loads(self, tmp_path):
        write_npz(tmp_path / "d.npz", **self.GOOD)
        ds = load_dataset(tmp_path / "d.npz")
        assert ds.candidates == ((0, 2), (1,)) and ds.true_labels is None

    @pytest.mark.parametrize("change, message", [
        pytest.param({"mask": None}, "missing key 'mask'", id="missing-key"),
        pytest.param({"extra": DIMS}, "unexpected key 'extra'", id="extra-key"),
        pytest.param({"features": np.array([[0.5], [-0.5]], dtype=np.float32)},
                     "features: dtype float32, expected float64", id="float32-features"),
        pytest.param({"mask": np.ones((2, 2), dtype=bool)},
                     r"mask: shape \(2, 2\), expected \(2, 3\)", id="mask-shape"),
        pytest.param({"labels": np.array([0, 1], dtype=np.int32)},
                     "labels: dtype int32, expected int64", id="int32-labels"),
        pytest.param({"dims": np.array([2, -1, 3])}, r"dims: negative header field",
                     id="negative-dims"),
        pytest.param({"features": np.array([[{"a": 1}], [None]], dtype=object)},
                     "features: dtype object, expected float64", id="pickled-object-array"),
    ])
    def test_malformed_npz_names_key(self, tmp_path, change, message):
        arrays = {k: v for k, v in {**self.GOOD, **change}.items() if v is not None}
        path = tmp_path / "d.npz"
        write_npz(path, **arrays)
        with pytest.raises(DataFormatError, match=message):
            load_dataset(path)

    def test_duplicate_key_is_format_error(self, tmp_path):
        path = tmp_path / "d.npz"
        write_npz(path, **self.GOOD)
        with zipfile.ZipFile(path, "a") as zf, pytest.warns(UserWarning, match="Duplicate"):
            zf.writestr("mask.npy", b"")
        with pytest.raises(DataFormatError, match="a key appears twice"):
            load_dataset(path)

    @pytest.mark.parametrize("change, message", [
        pytest.param({"mask": np.array([[True, True, True], [False, True, False]])},
                     "full candidate set at instance 0", id="full-set"),
        pytest.param({"labels": np.array([0, 0])}, "true label not in candidate set at instance 1",
                     id="label-outside-set"),
        pytest.param({"labels": np.array([0, 2 ** 62])}, "true label out of range at instance 1",
                     id="huge-label"),
    ])
    def test_invariants_apply_to_npz(self, tmp_path, change, message):
        write_npz(tmp_path / "d.npz", **{**self.GOOD, **change})
        with pytest.raises(DataInvariantError, match=message):
            load_dataset(tmp_path / "d.npz")

    @pytest.mark.parametrize("arrays", [
        # the dims agree with the declared features, which cannot fit in the file
        pytest.param(dict(dims=np.array([10 ** 6, 10 ** 5, 4]), features=("<f8", (10 ** 6, 10 ** 5)),
                          mask=("|b1", (10 ** 6, 4))), id="features-and-dims"),
        pytest.param(dict(dims=np.array([2, 1, 3]), features=("<f8", (10 ** 6, 10 ** 5))),
                     id="features-only"),
        pytest.param(dict(dims=np.array([1, 1, 2 ** 40]), features=np.zeros((1, 1)),
                          mask=("|b1", (1, 2 ** 40))), id="mask"),
    ])
    def test_huge_declared_shape_allocates_nothing(self, tmp_path, arrays):
        path = tmp_path / "d.npz"
        write_npz(path, **{"mask": self.GOOD["mask"], **arrays})
        assert path.stat().st_size < 2048
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError):
                load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # numpy's .npy header parser raises more than ValueError on damaged headers
    @pytest.mark.parametrize("header", [
        pytest.param("{[1]: 2}", id="unhashable-key"),
        pytest.param("(", id="unclosed-bracket"),
        pytest.param("{'descr': ').da,ed,o', 'fortran_order': False, 'shape': (3,), }",
                     id="descr-not-python"),
    ])
    def test_damaged_npy_header_names_key(self, tmp_path, header):
        path = tmp_path / "d.npz"
        encoded = header.encode("latin1")
        write_npz(path, **{**self.GOOD, "dims": np.lib.format.magic(1, 0)
                           + len(encoded).to_bytes(2, "little") + encoded})
        with pytest.raises(DataFormatError, match="dims: unreadable"):
            load_dataset(path)

    @pytest.mark.parametrize("compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED,
                                             zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA],
                             ids=["stored", "deflated", "bzip2", "lzma"])
    def test_every_damaged_byte_raises_only_package_errors(self, tmp_path, compression):
        path = tmp_path / "d.npz"
        write_npz(path, compression, **self.GOOD)
        valid = path.read_bytes()
        for at in range(len(valid)):
            for damage in (0x00, valid[at] ^ 0xFF):
                path.write_bytes(valid[:at] + bytes([damage]) + valid[at + 1:])
                try:
                    load_dataset(path)
                except (DataFormatError, DataInvariantError):
                    pass

    @pytest.mark.parametrize("data", [b"PK\x03\x04", b"PK\x03\x04 not a zip archive"])
    def test_bad_zip_is_format_error(self, tmp_path, data):
        path = tmp_path / "d.npz"
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match="zip: unreadable"):
            load_dataset(path)


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path / "nope.pll")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_text("1 2\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_dataset(path)

    def test_unallocatable_candidate_mask_is_invariant_error(self, tmp_path):
        # 2 x 2**56 passes the header checks, but the (n, c) bool mask is 128 PiB
        path = tmp_path / "d.pll"
        path.write_text(f"2 1 {2 ** 56}\n0.5 | 1\n-0.5 | 2\n")
        with pytest.raises(DataInvariantError, match=f"n=2 rows and c={2 ** 56} classes"):
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

    @pytest.mark.parametrize("text, line", [
        pytest.param("-1 2 3\n", 1, id="text-negative-n"),
        pytest.param("1 -2 3\n0.5 | 1\n", 1, id="text-negative-q"),
        pytest.param("1 1 3\n0.\udcff | 1\n", 2, id="text-not-utf8"),
        pytest.param("0 100000000000000000000 3\n", 1, id="text-huge-q-no-rows"),
        pytest.param("1 1000000000000 3\n0.5 | 1\n", 1, id="text-huge-q"),
        pytest.param("1 1 100000000000000000000000\n0.5 | 1\n", 1, id="text-huge-c"),
        pytest.param("1 1 2\n0.5 | 1\n0.7 | 2\n", 3, id="text-extra-row"),
        # only \n ends a line: row 2 reads the candidates "1\u20280.7"
        pytest.param("2 1 3\n0.5 | 1\u20280.7 | 2\n0.9 | q\n", 2, id="text-line-separator-in-row"),
        pytest.param("2 1 3\r0.5 | 1\r0.7 | 2\r", 1, id="text-bare-cr-is-one-line"),
    ])
    def test_malformed_input_names_line(self, tmp_path, text, line):
        path = tmp_path / "d.data"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(DataFormatError, match=rf"d\.data:{line}: "):
            load_dataset(path)

    def test_form_feed_between_features_is_whitespace(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_bytes(b"1 2 3\n0.5\x0c0.25 | 1 2\n")
        ds = load_dataset(path)
        assert ds.features.tolist() == [[0.5, 0.25]] and ds.candidates == ((0, 1),)

    @pytest.mark.parametrize("q, message", [
        (15, "2: expected 15 features, got 1"),
        (16, "1: n=1 rows of q=16 features cannot fit in the file"),
    ])
    def test_feature_room_is_the_file_size(self, tmp_path, q, message):
        # the file is 15 bytes, so a header may declare up to 15 features
        path = tmp_path / "d.pll"
        path.write_bytes(f"1 {q} 3\n0.5 | 1\n".encode())
        assert path.stat().st_size == 15
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}:{message}"

    def test_huge_true_label_is_out_of_range(self, tmp_path):
        path = tmp_path / "d.pll"
        path.write_text("1 1 3\n0.5 | 1 | " + "9" * 30 + "\n")
        with pytest.raises(DataInvariantError, match="true label out of"):
            load_dataset(path)

    def test_huge_candidate_index_is_out_of_range(self, tmp_path):
        path = tmp_path / "d.data"
        path.write_text("1 1 3\n0.5 | " + "9" * 30 + "\n")
        with pytest.raises(DataInvariantError, match="label index out of range"):
            load_dataset(path)

    def test_json_lines_is_not_a_format(self, tmp_path):
        # the retired JSON-lines format is read as text, and its header refused
        path = tmp_path / "d.jsonl"
        path.write_text('{"n": 1, "q": 1, "c": 2}\n{"features": [0.5], "candidates": [1]}\n')
        with pytest.raises(DataFormatError, match=r"d\.jsonl:1: header must be 'n q c'"):
            load_dataset(path)


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
