"""Partial-label dataset container, and bit-exact file I/O of datasets and models.

A partial-label dataset pairs an ``n x q`` feature matrix with one
candidate-label set per instance, a nonempty strict subset of the ``c``
labels that holds the true label when it is known (for corruption
provenance and evaluation; training never reads ``true_labels``).  The sets
are stored once, as a read-only bool ``(n, c)`` mask of the occurrence
vectors the model reads, which :func:`candidate_mask` builds from label
sets; the tuple view ``candidates`` is derived from it on first read.

A file is npz when it starts with the zip magic (on write: when its path
ends in ``.npz``) and text otherwise.  Text is the reference format.  Its
labels are 1-indexed, and its features are written in the shortest decimal
form that round-trips a 64-bit float, so ``write_dataset`` followed by
``load_dataset`` is the identity.  A text line ends at ``\\n``.  Text is
streamed: ``write_dataset`` holds one formatted row at a time, and
``load_dataset`` parses each line as it is read, holding its arrays plus the
lines of one block of ``READ_BLOCK`` bytes.  An npz dataset holds the arrays
of :data:`NPZ_KEYS`, and the model file of :func:`save_model` is the npz of
:data:`MODEL_KEYS`.  Both loaders check each member's .npy header (dtype,
shape, and bytes against the file size) before its data is read.
"""

from __future__ import annotations

import json
import lzma
import math
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataFormatError, DataInvariantError
from .network import DenseNet, TransformConfig, param_count, validate_transform_clamp

# the first bytes of a zip archive, so of every npz file
ZIP_MAGIC = b"PK\x03\x04"
# dataset npz members: int64 "dims" n q c, float64 "features" (n, q), bool "mask"
# (n, c) and int64 "labels" (n,), 0-indexed and present only when known
NPZ_KEYS = ("dims", "features", "mask", "labels")
# model npz members, as :func:`save_model` writes them for the net f
MODEL_KEYS = ("transform", "clamp", "sizes", "params")
# what a damaged zip archive or .npy member can raise while it is read
_NPZ_ERRORS = (OSError, EOFError, ValueError, TypeError, KeyError, RuntimeError,
               SyntaxError, tokenize.TokenError, zipfile.BadZipFile, zlib.error, lzma.LZMAError)
# bytes :func:`read_lines` reads at a time, besides a carried partial line
READ_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class PLLDataset:
    """Feature matrix plus per-instance candidate label sets, given as a bool
    ``(n, c)`` mask that the constructor copies.  Equality is identity.

    Attributes
    ----------
    features : (n, q) float64 array
        Instance feature vectors; all entries must be finite.
    mask : (n, c) bool array, read-only
        ``mask[i, j]`` is True iff label j is a candidate of instance i.
        Each row is a nonempty strict subset of the ``c`` labels.
    c : int
        Number of classes (>= 2).
    true_labels : optional (n,) int array
        Hidden correct labels.  Used only for corruption provenance and
        accuracy evaluation, never by the trainer.
    """

    features: np.ndarray
    mask: np.ndarray
    c: int
    true_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataInvariantError(f"features must be 2-D, got shape {feats.shape}")
        n, q = feats.shape
        c = self.c
        if n < 1 or q < 1:
            raise DataInvariantError(f"need n >= 1 and q >= 1, got n={n}, q={q}")
        if c < 2:
            raise DataInvariantError(f"need at least 2 classes, got c={c}")
        if not np.isfinite(feats).all():
            bad = int(np.argwhere(~np.isfinite(feats).all(axis=1))[0, 0])
            raise DataInvariantError(f"non-finite feature at instance {bad}")
        if not isinstance(self.mask, np.ndarray) or self.mask.dtype != bool:
            raise DataInvariantError("candidate mask must be a bool ndarray; see candidate_mask")
        if self.mask.shape != (n, c):
            raise DataInvariantError(f"candidate mask shape {self.mask.shape} != ({n}, {c})")
        mask = self.mask.copy()
        sizes = np.count_nonzero(mask, axis=1)
        if (bad := (sizes == 0) | (sizes >= c)).any():
            i = int(bad.argmax())
            kind = "empty" if sizes[i] == 0 else "full"
            raise DataInvariantError(f"{kind} candidate set at instance {i}")
        labels = self.true_labels
        if labels is not None:
            try:
                labels = np.asarray(labels, dtype=np.int64)
            except OverflowError:
                raise DataInvariantError("true label out of the int64 range") from None
            if labels.shape != (n,):
                raise DataInvariantError(f"true_labels shape {labels.shape} does not match n={n}")
            member = (labels >= 0) & (labels < c) & mask[np.arange(n), np.clip(labels, 0, c - 1)]
            if not member.all():
                i = int(member.argmin())
                if 0 <= labels[i] < c:
                    raise DataInvariantError(f"true label not in candidate set at instance {i}")
                raise DataInvariantError(f"true label out of range at instance {i}")
        mask.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "true_labels", labels)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]

    @cached_property
    def candidates(self) -> tuple:
        """Each instance's 0-indexed candidate set as a sorted tuple, built on first read."""
        return tuple(_label_sets(self.mask))

    def occurrence_matrix(self) -> np.ndarray:
        """Stacked occurrence vectors, shape (n, c), float64 in {0, 1}; a fresh copy."""
        return self.mask.astype(np.float64)

    def subset(self, idx: Sequence[int]) -> "PLLDataset":
        """New dataset restricted to the given instance indices."""
        idx = np.asarray(idx, dtype=np.int64)
        labels = None if self.true_labels is None else self.true_labels[idx]
        return PLLDataset(self.features[idx], self.mask[idx], self.c, labels)


def _label_sets(mask: np.ndarray):
    """Yield each row's sorted label tuple, split from ``np.nonzero`` of 4096 rows at a time."""
    for block in np.split(mask, range(4096, len(mask), 4096)):
        rows, cols = np.nonzero(block)
        cols, ends = tuple(cols.tolist()), np.bincount(rows, minlength=len(block)).cumsum().tolist()
        yield from (cols[a:b] for a, b in zip([0] + ends, ends))


def candidate_mask(sets: Sequence[Sequence[int]], c: int) -> np.ndarray:
    """The bool ``(n, c)`` mask of ``n`` sets of 0-indexed labels (an index may
    repeat); raises naming the first instance with an index outside ``[0, c)``."""
    rows = np.repeat(np.arange(n := len(sets)), np.fromiter(map(len, sets), np.intp, n))
    cols = np.array(list(chain.from_iterable(sets)))  # float or object past int64, never wrapped
    if (outside := (cols < 0) | (cols >= c)).any():
        i = rows[outside.argmax()]
        raise DataInvariantError(f"label index out of range [0, {c}) at instance {i}")
    try:
        mask = np.zeros((n, max(c, 0)), dtype=bool)  # the constructor refuses c < 2
    except MemoryError:
        message = f"cannot allocate the candidate mask of n={n} rows and c={c} classes"
        raise DataInvariantError(message) from None
    mask[rows, cols.astype(np.int64)] = True
    return mask


def occurrence_vector(candidates: Sequence[int], c: int) -> np.ndarray:
    """0/1 vector marking candidate-set membership among ``c`` labels."""
    o = candidate_mask([candidates], c)[0].astype(np.float64)
    if not o.any():
        raise ValueError("empty candidate set")
    return o


def write_dataset(ds: PLLDataset, path) -> None:
    """Serialize a dataset so that :func:`load_dataset` inverts it exactly:
    npz when ``path`` ends in ``.npz``, text otherwise.

    Each text line is written as soon as it is formatted, so the text held
    in memory is one row, not the file.
    """
    path = Path(path)
    if path.suffix == ".npz":
        arrays = {"dims": np.array([ds.n, ds.q, ds.c], dtype=np.int64),
                  "features": ds.features, "mask": ds.mask}
        if ds.true_labels is not None:
            arrays["labels"] = ds.true_labels
        with path.open("wb") as fh:
            np.savez(fh, **arrays)
        return
    names = [str(j + 1) for j in range(ds.c)]
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{ds.n} {ds.q} {ds.c}\n")
        # the label sets stream too; caching them on ds raised dataset_io's peak RSS to ~107 MB
        for i, (values, members) in enumerate(zip(ds.features, _label_sets(ds.mask))):
            # repr() of a Python float is the shortest string that round-trips;
            # one row at a time, as a whole-matrix tolist() raises peak memory
            feats = " ".join(map(repr, values.tolist()))
            cands = " ".join(map(names.__getitem__, members))
            label = "" if ds.true_labels is None else f" | {int(ds.true_labels[i]) + 1}"
            fh.write(f"{feats} | {cands}{label}\n")


def load_dataset(path) -> PLLDataset:
    """Parse a dataset file, npz when it starts with :data:`ZIP_MAGIC` and
    text otherwise; raises naming the text line or the npz key at fault."""
    path = Path(path)
    with _opened(path) as (fh, magic, size):
        if not magic.startswith(ZIP_MAGIC):
            return _parse_text(_lines(fh, path), path, size)
        with _open_npz(fh, path, NPZ_KEYS[:3], NPZ_KEYS) as npz:
            read = partial(_member, npz, path, size)
            dims = read("dims", np.int64, (3,)).tolist()
            n, q, c = _header_dims(dims, f"{path}: dims", size // 8)  # a feature takes 8 bytes
            features, mask = read("features", np.float64, (n, q)), read("mask", np.bool_, (n, c))
            labels = read("labels", np.int64, (n,)) if "labels" in npz.files else None
    return PLLDataset(features, mask, c, labels)


def read_lines(path):
    """Yield the lines of the UTF-8 text file ``path``: each ends at ``\\n``
    and nowhere else, and a final empty line is not yielded."""
    try:
        with Path(path).open("rb") as fh:
            yield from _lines(fh, path)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _opened(path: Path):
    """``path`` open for binary reads at its start, with its first 8 bytes and
    its size; an ``OSError`` becomes a :class:`DataFormatError`."""
    try:
        with path.open("rb") as fh:
            magic, size = fh.read(8), fh.seek(0, 2)
            fh.seek(0)
            yield fh, magic, size
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _lines(fh, path):
    """Yield the lines of the open binary file ``fh`` of ``path``.

    Each block of ``READ_BLOCK`` bytes but the last is cut after its last
    ``\\n``, the rest carried into the next, and the joined piece is cut at
    each ``\\n``.  A line is decoded only when it is reached, so the fault
    reported is the first faulty line in file order, whatever its kind.  A
    list of the piece's lines (``piece.split``) instead raised the
    ``dataset_io`` benchmark's peak RSS from ~82 to 91-106 MB.
    """
    pending, lineno = [], 0
    while block := fh.read(READ_BLOCK):
        cut = block.rfind(b"\n") + 1 if fh.peek(1) else len(block)
        if not cut:
            pending.append(block)
            continue
        pending.append(block[:cut])
        piece = b"".join(pending)
        pending = [block[cut:]]
        start = 0
        while start < len(piece):
            end = piece.find(b"\n", start)
            if end < 0:  # the file's last line has no \n
                end = len(piece)
            lineno += 1
            try:
                line = piece[start:end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{path}:{lineno}: not UTF-8 text") from exc
            start = end + 1
            yield line


def _header_dims(fields, where, room):
    """``(n, q, c)`` from the three header fields of either format.

    ``where`` opens each message, and ``room`` is the most features the
    file can hold: this bounds the feature allocation.
    """
    try:
        n, q, c = (int(v) for v in fields)
    except (TypeError, ValueError):
        raise DataFormatError(f"{where}: non-integer header field") from None
    if max(n, q, c) > np.iinfo(np.intp).max:
        raise DataFormatError(f"{where}: header field above {np.iinfo(np.intp).max}")
    if n < 0 or q < 0:
        raise DataFormatError(f"{where}: negative header field (n={n}, q={q})")
    # training holds (n, c) float64 arrays, whose byte count must be addressable
    if max(n, 1) * c > np.iinfo(np.intp).max // 8:
        raise DataFormatError(f"{where}: n={n} rows of c={c} classes cannot be addressed")
    if max(n, 1) * q > room:
        raise DataFormatError(f"{where}: n={n} rows of q={q} features cannot fit in the file")
    return n, q, c


def _parse_text(lines, path, size) -> PLLDataset:
    """The dataset of the text file of ``size`` bytes, parsed as ``lines`` yields it."""
    header = next(lines, None)
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    header = header.split()
    if len(header) != 3:
        raise DataFormatError(f"{path}:1: header must be 'n q c'")
    # each feature takes at least one byte
    n, q, c = _header_dims(header, f"{path}:1", size)
    features = np.empty((n, q))
    candidates = []
    labels = []
    for i, text in zip(range(n), lines):
        lineno = i + 2
        parts = text.split("|")  # split() drops the whitespace around a field
        if len(parts) not in (2, 3):
            raise DataFormatError(
                f"{path}:{lineno}: expected 'features | candidates [| label]'"
            )
        feat_tok = parts[0].split()
        if len(feat_tok) != q:
            raise DataFormatError(
                f"{path}:{lineno}: expected {q} features, got {len(feat_tok)}"
            )
        try:
            features[i] = list(map(float, feat_tok))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: malformed feature value") from None
        try:
            cand = [int(t) - 1 for t in parts[1].split()]
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: malformed candidate index") from None
        candidates.append(cand)
        if len(parts) == 3:
            try:
                # int() refuses the \x1c-\x1f around a field that strip() removes
                labels.append(int(parts[2].strip()) - 1)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: malformed true label") from None
    if len(candidates) < n:
        raise DataFormatError(f"{path}: header says n={n} but only {len(candidates)} rows")
    for lineno, text in enumerate(lines, n + 2):
        if text.strip():
            raise DataFormatError(f"{path}:{lineno}: row beyond the header's n={n}")
    if labels and len(labels) != n:
        raise DataFormatError(f"{path}: true label present on some rows but not all")
    return PLLDataset(features, candidate_mask(candidates, c), c, labels or None)


@contextmanager
def _open_npz(fh, path, required, allowed):
    """The npz archive in the open file ``fh``, open while its members are
    every ``required`` key and perhaps others of ``allowed``, each once."""
    try:
        npz = np.load(fh, allow_pickle=False)
    except _NPZ_ERRORS as exc:
        raise DataFormatError(f"{path}: zip: unreadable ({exc})") from exc
    with npz:
        keys = [name.removesuffix(".npy") for name in npz.zip.namelist()]
        if missing := [key for key in required if key not in keys]:
            raise DataFormatError(f"{path}: missing key {missing[0]!r}")
        if extra := sorted(set(keys).difference(allowed)):
            raise DataFormatError(f"{path}: unexpected key {extra[0]!r}")
        if len(set(keys)) < len(keys):
            raise DataFormatError(f"{path}: a key appears twice")
        yield npz


def _member(npz, path, size, key, dtype, shape) -> np.ndarray:
    """Member ``key`` of ``npz``, read once its .npy header declares ``dtype``, ``shape``
    (where ``None`` matches any length) and at most the file's ``size`` bytes."""
    try:
        with npz.zip.open(f"{key}.npy") as member:
            version = np.lib.format.read_magic(member)
            read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                           else np.lib.format.read_array_header_2_0)
            found, _, found_dtype = read_header(member)
        if found_dtype != dtype:
            raise DataFormatError(f"{path}: {key}: dtype {found_dtype}, expected {np.dtype(dtype)}")
        if len(found) != len(shape) or any(w not in (None, f) for w, f in zip(shape, found)):
            raise DataFormatError(f"{path}: {key}: shape {found}, expected {shape}")
        if found_dtype.itemsize * math.prod(found) > size:
            raise DataFormatError(f"{path}: {key}: more bytes than the file's {size}")
        return npz[key]
    except _NPZ_ERRORS as exc:
        raise DataFormatError(f"{path}: {key}: unreadable ({exc})") from exc


def save_model(path, net: DenseNet, tc: TransformConfig) -> None:
    """Write the net and its transform as the npz of :data:`MODEL_KEYS`; raises
    ``ValueError``, before any byte is written, when the net's clamp overflows
    the transform: :func:`load_model` would refuse that file."""
    validate_transform_clamp(tc, net.clamp)
    with Path(path).open("wb") as fh:
        np.savez(fh, transform=np.array([tc.a, tc.b, tc.gamma], np.float64),
                 clamp=np.float64(net.clamp), sizes=np.array(net.layer_sizes, np.int64),
                 params=net.flat)


def load_model(path):
    """``(net, tc)`` from a :func:`save_model` file; raises naming the path,
    and the npz key when a member is at fault."""
    path = Path(path)
    with _opened(path) as (fh, magic, size):
        if not magic.startswith(ZIP_MAGIC):
            old = " (old IDGPMDL1 format: train the model again)" if magic == b"IDGPMDL1" else ""
            raise DataFormatError(f"{path}: not an npz model file{old}")
        with _open_npz(fh, path, MODEL_KEYS, MODEL_KEYS) as npz:
            read = partial(_member, npz, path, size)
            transform = read("transform", np.float64, (3,)).tolist()
            clamp = read("clamp", np.float64, ()).item()
            sizes = read("sizes", np.int64, (None,)).tolist()
            params = read("params", np.float64, (param_count(sizes),))
    try:
        tc = TransformConfig(*transform)
        net = DenseNet.from_flat(sizes, clamp, params)
        validate_transform_clamp(tc, net.clamp)
    except ValueError as exc:
        raise DataFormatError(f"{path}: corrupt model file ({exc})") from exc
    return net, tc


def sidecar_path(path) -> Path:
    """Path of the metadata sidecar for a dataset file (same stem, '.meta')."""
    return Path(path).with_suffix(".meta")


def write_sidecar(path, metadata: dict) -> None:
    sidecar_path(path).write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def read_sidecar(path) -> dict:
    return json.loads(sidecar_path(path).read_text())
