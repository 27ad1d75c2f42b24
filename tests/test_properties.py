"""Property tests of the file boundary: round trips and arbitrary input bytes.

Dataset files of both formats (the path's suffix picks text or npz on
write, and the first bytes on load) and model files must round-trip bit for
bit (a model whose transform overflows at a net's clamp is instead refused),
and any bytes given to ``load_dataset`` or ``load_model`` may only raise a
package error, never a bare Python exception.  The lines the block reader
``read_lines`` yields must be the file's bytes split at ``\\n`` and decoded,
for any bytes, whatever its block size.  ``PLLDataset`` validation must
agree with a per-row reference check.  The floored transform of clamped
scores, which the trainer feeds to the posterior means without a check,
must be finite and at least ``PARAM_FLOOR`` under every transform and clamp
a ``TrainConfig`` accepts.  The runs are derandomized so tier-1 stays
repeatable.
"""

import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idgp.cli import MODEL_MAGIC, load_model, save_model
from idgp import data
from idgp.data import ZIP_MAGIC, PLLDataset, load_dataset, read_lines, write_dataset
from idgp.distributions import PARAM_FLOOR, floor_params
from idgp.errors import DataFormatError, DataInvariantError, IdgpError
from idgp.network import DenseNet, TransformConfig, _transform_exp, lambda_transform, param_count
from idgp.trainer import TrainConfig, _live_params

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150,
                    database=None)
# a dataset file name per format: the suffix picks the writer
NAMES = ("d.data", "d.npz")

finite = st.floats(allow_nan=False, allow_infinity=False)
# any 4-byte header field; the maximum is drawn often, as two adjacent
# layer sizes must both be huge for their product to overflow
UINT32 = st.one_of(st.just(2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    q = draw(st.integers(1, 4))
    c = draw(st.integers(2, 6))
    features = np.array(draw(st.lists(finite, min_size=n * q, max_size=n * q)),
                        dtype=np.float64).reshape(n, q)
    candidates = tuple(
        tuple(draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c - 1,
                            unique=True)))
        for _ in range(n))
    labels = None
    if draw(st.booleans()):
        labels = np.array([draw(st.sampled_from(sorted(s))) for s in candidates])
    return PLLDataset(features=features, candidates=candidates, c=c,
                      true_labels=labels)


@st.composite
def models(draw):
    q = draw(st.integers(1, 4))
    c = draw(st.integers(2, 4))
    hidden = draw(st.lists(st.integers(1, 5), max_size=2))
    nets = []
    for out in (c, 2 * c):
        sizes = [q, *hidden, out]
        activation = draw(st.sampled_from(["relu", "identity"]))
        clamp = draw(st.floats(1e-3, 1e3))
        size = param_count(sizes)
        flat = draw(st.lists(finite, min_size=size, max_size=size))
        nets.append(DenseNet.from_flat(sizes, activation, clamp, flat))
    tc = TransformConfig(a=draw(st.floats(1e-3, 1e3)), b=draw(st.floats(0.0, 1e3)),
                         gamma=draw(st.floats(1e-3, 1e3)))
    return (*nets, tc)


def _overflows(model) -> bool:
    """Whether the transform overflows at a net's clamp; ``save_model`` refuses such a model."""
    tc = model[2]
    with np.errstate(over="ignore"):
        return any(not np.isfinite(tc.a * np.exp(net.clamp / tc.gamma) + tc.b)
                   for net in model[:2])


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# fragments of text and .npy header syntax and integers of any size, spliced into valid files
SYNTAX = st.one_of(st.text(alphabet="0123456789-+.eE[]{}()\"':, |<>truefalsnNIyTFObicdhpo\n",
                           max_size=30),
                   st.integers().map(str))


def _damaged(valid: bytes, draw) -> bytes:
    """``valid`` with a few bytes overwritten or spliced in, perhaps cut short."""
    buf = bytearray(valid)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(buf)))
        if draw(st.booleans()):
            buf[at:at] = draw(SYNTAX).encode()
        elif at < len(buf):
            buf[at] = draw(st.integers(0, 255))
    return bytes(buf[:draw(st.integers(0, len(buf)))])


@st.composite
def damaged_datasets(draw, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        write_dataset(draw(datasets()), path)
        return _damaged(path.read_bytes(), draw)


@st.composite
def damaged_models(draw):
    f, g, tc = draw(models().filter(lambda model: not _overflows(model)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model(path, f, g, tc)
        buf = bytearray(path.read_bytes())
    # overwrite f's layer sizes, its size count, its activation code or nothing
    at, count = draw(st.sampled_from([(44, len(f.layer_sizes)), (40, 1), (36, 1), (36, 0)]))
    buf[at:at + 4 * count] = struct.pack(f"<{count}I", *(draw(UINT32) for _ in range(count)))
    return _damaged(bytes(buf), draw)


def _load_bytes(loader, data: bytes, *args):
    """``loader`` on a file holding ``data``; only package errors may escape."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            loader(path, *args)
        except IdgpError:
            pass


@PROPERTY
@given(datasets(), st.sampled_from(NAMES))
def test_dataset_roundtrip_is_bitwise(ds, name):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / name, Path(tmp) / f"again{Path(name).suffix}"
        write_dataset(ds, path)
        back = load_dataset(path)
        write_dataset(back, again)
        assert again.read_bytes() == path.read_bytes()
    assert np.array_equal(_bits(back.features), _bits(ds.features))
    assert back.candidates == ds.candidates and back.c == ds.c
    if ds.true_labels is None:
        assert back.true_labels is None
    else:
        assert np.array_equal(back.true_labels, ds.true_labels)


@PROPERTY
@given(models())
def test_model_roundtrip_is_bitwise(model):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "model.bin", Path(tmp) / "again.bin"
        if _overflows(model):  # refused before a byte is written
            with pytest.raises(ValueError, match="overflows"):
                save_model(path, *model)
            assert not path.exists()
            return
        save_model(path, *model)
        back = load_model(path)
        save_model(again, *back)
        assert again.read_bytes() == path.read_bytes()
    assert back[2] == model[2]
    for net, net_back in zip(model[:2], back[:2]):
        assert net_back.layer_sizes == net.layer_sizes
        assert net_back.activation == net.activation and net_back.clamp == net.clamp
        for a, b in zip(net.weights + net.biases, net_back.weights + net_back.biases):
            assert np.array_equal(_bits(a), _bits(b))


@PROPERTY
@given(st.one_of(st.binary(max_size=200),
                 st.binary(max_size=200).map(lambda b: ZIP_MAGIC + b)))
def test_arbitrary_bytes_load_dataset_raise_only_package_errors(data):
    _load_bytes(load_dataset, data)


@PROPERTY
@given(st.data(), st.sampled_from(NAMES))
def test_damaged_dataset_files_raise_only_package_errors(data, name):
    _load_bytes(load_dataset, data.draw(damaged_datasets(name)))


@PROPERTY
@given(st.one_of(st.binary(max_size=200),
                 st.binary(max_size=200).map(lambda b: MODEL_MAGIC + b),
                 damaged_models()))
def test_arbitrary_bytes_load_model_raise_only_package_errors(data):
    _load_bytes(load_model, data)


# the byte runs that could split or decode differently across a block cut:
# \n, \r\n and the other line boundaries of str.splitlines, which must not
# split, 2-4-byte UTF-8 sequences, invalid and truncated sequences, and plain text
LINE_BYTES = [b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
              "\x85".encode(), "\u2028".encode(), "\u2029".encode(),
              "\xe9".encode(), "\u20ac".encode(), "\U0001f600".encode(),
              b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xed\xa0\x80",
              b"a", b"bc"]


def _split_outcome(path):
    """``path``'s lines, or the message of the ``DataFormatError`` reading it raised."""
    try:
        return list(read_lines(path))
    except DataFormatError as exc:
        return str(exc)


def _newline_split(content: bytes, path):
    """The pieces of ``content`` split at ``\\n``, a final empty one dropped,
    each decoded; or the message naming the first piece that does not decode."""
    pieces = content.split(b"\n")
    if not pieces[-1]:
        pieces.pop()
    lines = []
    for lineno, piece in enumerate(pieces, 1):
        try:
            lines.append(piece.decode("utf-8"))
        except UnicodeDecodeError:
            return f"{path}:{lineno}: not UTF-8 text"
    return lines


def _assert_splits_at_newlines(content: bytes, block: int):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines"
        path.write_bytes(content)
        with mock.patch.object(data, "READ_BLOCK", block):
            assert _split_outcome(path) == _newline_split(content, path)


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from(LINE_BYTES), st.binary(max_size=4)),
                max_size=30).map(b"".join),
       st.integers(1, 7))
@example(b"", 1)
@example(b"no newline at all, several blocks long", 3)
@example("\u2028\r\n".encode() + b"\xe2\x82\n\xe2\x82", 2)
def test_read_lines_splits_at_newlines(content, block):
    _assert_splits_at_newlines(content, block)


@pytest.mark.parametrize("run", LINE_BYTES, ids=repr)
def test_read_lines_at_every_block_cut(run):
    # the run starts at every offset, so each of its bytes meets a cut
    for block in range(1, 8):
        for offset in range(block + 1):
            body = b"x" * offset + run + b"y" + run
            for content in (body, body + b"\n", b"\n" * offset + run):
                _assert_splits_at_newlines(content, block)


def _per_row_check(n, c, candidates, labels):
    """Reference validation: the per-row candidate and true-label checks of a
    tuple-of-tuples store.  Returns the sorted sets, or raises the first error."""
    cands = tuple(tuple(sorted(set(int(j) for j in s))) for s in candidates)
    if len(cands) != n:
        raise DataInvariantError(f"{len(cands)} candidate sets for {n} instances")
    for i, s in enumerate(cands):
        if len(s) == 0:
            raise DataInvariantError(f"empty candidate set at instance {i}")
        if len(s) >= c:
            raise DataInvariantError(f"full candidate set at instance {i}")
        if s[0] < 0 or s[-1] >= c:
            raise DataInvariantError(f"label index out of range [0, {c}) at instance {i}")
    if labels is not None:
        try:
            labels = np.asarray(labels, dtype=np.int64)
        except OverflowError:
            raise DataInvariantError("true label out of the int64 range") from None
        for i, (y, s) in enumerate(zip(labels, cands)):
            if y < 0 or y >= c:
                raise DataInvariantError(f"true label out of range at instance {i}")
            if int(y) not in s:
                raise DataInvariantError(f"true label not in candidate set at instance {i}")
    return cands


def _outcome(build):
    """``build()``'s sorted candidate sets, or the message of its ``DataInvariantError``."""
    try:
        return build()
    except DataInvariantError as exc:
        return str(exc)


# indices beyond int64 on either side
BEYOND = st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 30])


@st.composite
def raw_datasets(draw):
    """Valid sets and labels with up to two rows and one label made arbitrary."""
    n = draw(st.integers(1, 6))
    c = draw(st.integers(2, 5))
    index = st.one_of(st.integers(0, c - 1), st.integers(-2, c + 1), BEYOND)
    row = st.integers(0, n - 1)
    sets = draw(st.lists(st.lists(st.integers(0, c - 1), min_size=1, max_size=c - 1),
                         min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):  # maybe empty, full or out of range
        sets[draw(row)] = draw(st.lists(index, max_size=c + 1))
    labels = None
    if draw(st.booleans()):
        labels = [draw(st.sampled_from(s)) if s else 0 for s in sets]
        if draw(st.booleans()):
            labels[draw(row)] = draw(st.one_of(st.integers(0, c - 1), st.sampled_from([-1, c]),
                                               BEYOND))
    return np.zeros((n, 1)), sets, c, labels


@PROPERTY
@given(raw_datasets())
def test_validation_matches_per_row_check(raw):
    features, sets, c, labels = raw
    n = len(sets)
    expected = _outcome(lambda: _per_row_check(n, c, sets, labels))
    assert _outcome(lambda: PLLDataset(features, sets, c, labels).candidates) == expected
    if all(0 <= j < c for s in sets for j in s):
        mask = np.zeros((n, c), dtype=bool)
        for i, s in enumerate(sets):
            mask[i, s] = True
        assert _outcome(lambda: PLLDataset(features, mask, c, labels).candidates) == expected
        if not isinstance(expected, str):
            ds = PLLDataset(features, mask, c, labels)
            assert np.array_equal(ds.mask, mask) and not np.shares_memory(ds.mask, mask)
            assert not ds.mask.flags.writeable and mask.flags.writeable
            assert np.array_equal(ds.mask, PLLDataset(features, sets, c, labels).mask)


def _admitted(a, b, gamma, clamp) -> bool:
    try:
        TrainConfig(a=a, b=b, gamma=gamma, clamp=clamp)
    except ValueError:
        return False
    return True


def _largest_clamp(a, b, gamma) -> float:
    """The largest clamp ``TrainConfig`` accepts with this transform."""
    # within a few ulps: exp(A / gamma) and a * exp(A / gamma) must both be
    # finite, and b <= 1e30 is below half an ulp of the largest float
    top = np.log(np.finfo(np.float64).max)
    clamp = gamma * min(top, top - np.log(a))
    for _ in range(64):
        if _admitted(a, b, gamma, clamp):
            break
        clamp = np.nextafter(clamp, 0.0)
    for _ in range(64):
        if not _admitted(a, b, gamma, np.nextafter(clamp, np.inf)):
            break
        clamp = np.nextafter(clamp, np.inf)
    assert _admitted(a, b, gamma, clamp) and not _admitted(a, b, gamma,
                                                           np.nextafter(clamp, np.inf))
    return float(clamp)


@st.composite
def transform_configs(draw):
    """A ``TrainConfig``'s (a, b, gamma, clamp); the clamp is often the largest it admits."""
    a = draw(st.floats(1e-30, 1e30))
    b = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e30)))
    gamma = draw(st.floats(1e-3, 1e3))
    top = _largest_clamp(a, b, gamma)
    clamp = draw(st.one_of(st.just(top), st.floats(0.0, top, exclude_min=True)))
    return TrainConfig(a=a, b=b, gamma=gamma, clamp=clamp)


@PROPERTY
@given(transform_configs(), st.lists(finite, max_size=8))
# b = 0 at the largest clamp: exp(-A / gamma) is subnormal, and with a < 1
# the product a * exp(-A / gamma) underflows to 0 before the floor
@example(TrainConfig(a=1.0, b=0.0, gamma=1.0, clamp=_largest_clamp(1.0, 0.0, 1.0)), [])
@example(TrainConfig(a=1e-20, b=0.0, gamma=1.0, clamp=_largest_clamp(1e-20, 0.0, 1.0)), [])
def test_floored_transform_of_clamped_scores_is_finite_and_floored(cfg, scores):
    # the clamp's two ends are always among the scores
    s = np.clip(np.array([*scores, -1e308, 1e308]), -cfg.clamp, cfg.clamp)
    tc = cfg.transform_config
    lam = _live_params(_transform_exp(s, tc), tc)  # what the trainer's forwards run
    assert np.isfinite(lam).all() and (lam >= PARAM_FLOOR).all()
    assert np.array_equal(lam.view(np.uint64),
                          floor_params(lambda_transform(s, tc)).view(np.uint64))
