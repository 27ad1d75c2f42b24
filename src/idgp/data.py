"""Partial-label dataset container and bit-exact file I/O.

A partial-label dataset pairs an ``n x q`` feature matrix with one
candidate-label set per instance.  Each candidate set is a nonempty strict
subset of the ``c`` available labels; when the true label is known (for
synthetic corruption provenance and evaluation) it must be a member of its
instance's candidate set.  Training code never reads ``true_labels``.  The
sets are stored once, as a read-only bool ``(n, c)`` mask whose rows are the
occurrence vectors the model reads; ``candidates`` is a view of it.

A file is npz when it starts with the zip magic (on write: when its path
ends in ``.npz``) and text otherwise.  Text is the reference format.  Its
labels are 1-indexed, and its features are written in the shortest decimal
form that round-trips a 64-bit float, so ``write_dataset`` followed by
``load_dataset`` is the identity.  A text line ends at ``\\n``.  Text is
streamed: ``write_dataset`` holds one formatted row at a time, and
``load_dataset`` parses each line as it is read, holding its arrays plus the
lines of one block of ``READ_BLOCK`` bytes.  An npz file holds the arrays of
:data:`NPZ_DTYPES`, each member's header checked against ``dims`` and the
file size before its data is read.
"""

from __future__ import annotations

import json
import lzma
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataFormatError, DataInvariantError

# the first bytes of a zip archive, so of every npz file
ZIP_MAGIC = b"PK\x03\x04"
# npz member -> dtype: "dims" holds n q c, "features" is (n, q), "mask" (n, c)
# and "labels" (n,), 0-indexed and present only when the true labels are known
NPZ_DTYPES = {"dims": np.int64, "features": np.float64, "mask": np.bool_, "labels": np.int64}
# what a damaged zip archive or .npy member can raise while it is read
_NPZ_ERRORS = (OSError, EOFError, ValueError, TypeError, KeyError, RuntimeError,
               SyntaxError, tokenize.TokenError, zipfile.BadZipFile, zlib.error, lzma.LZMAError)
# bytes :func:`read_lines` reads at a time, besides a carried partial line
READ_BLOCK = 1 << 20


@dataclass(frozen=True)
class PLLDataset:
    """Feature matrix plus per-instance candidate label sets.

    The constructor takes ``candidates`` as one iterable of 0-indexed label
    indices per instance or as a bool ``(n, c)`` mask, and copies it into
    ``mask``, the one candidate store.

    Attributes
    ----------
    features : (n, q) float64 array
        Instance feature vectors; all entries must be finite.
    candidates : tuple of tuples of int
        Read-only view of ``mask``: per-instance candidate sets, 0-indexed,
        sorted, each a nonempty strict subset of ``{0, ..., c-1}``.
    c : int
        Number of classes (>= 2).
    true_labels : optional (n,) int array
        Hidden correct labels.  Used only for corruption provenance and
        accuracy evaluation, never by the trainer.
    mask : (n, c) bool array, read-only
        ``mask[i, j]`` is True iff label j is a candidate of instance i.
    """

    features: np.ndarray
    candidates: tuple
    c: int
    true_labels: Optional[np.ndarray] = None
    mask: np.ndarray = field(init=False, repr=False, compare=False)

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
        sets = self.candidates
        if isinstance(sets, np.ndarray) and sets.dtype == bool:
            if sets.shape != (n, c):
                raise DataInvariantError(f"candidate mask shape {sets.shape} != ({n}, {c})")
            mask, outside = sets.copy(), np.zeros(n, dtype=bool)
        else:
            sets = list(sets)
            if len(sets) != n:
                raise DataInvariantError(f"{len(sets)} candidate sets for {n} instances")
            rows = np.repeat(np.arange(n), np.fromiter(map(len, sets), np.intp, n))
            cols = np.array(list(chain.from_iterable(sets)))  # object dtype past int64
            inside = (cols >= 0) & (cols < c)
            outside = np.bincount(rows[~inside], minlength=n) > 0
            try:
                mask = np.zeros((n, c), dtype=bool)
            except MemoryError:
                raise DataInvariantError(
                    f"cannot allocate the candidate mask of n={n} rows and c={c} classes"
                ) from None
            mask[rows[inside], cols[inside].astype(np.int64)] = True
        rows, cols = np.nonzero(mask)
        sizes = np.bincount(rows, minlength=n)
        bad = (sizes == 0) | (sizes >= c) | outside
        if bad.any():
            i = int(bad.argmax())
            # a set's size counts its out-of-range indices too
            size = len(set(map(int, sets[i]))) if outside[i] else sizes[i]
            if size == 0:
                raise DataInvariantError(f"empty candidate set at instance {i}")
            if size >= c:
                raise DataInvariantError(f"full candidate set at instance {i}")
            raise DataInvariantError(f"label index out of range [0, {c}) at instance {i}")
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
        cols, ends = tuple(cols.tolist()), np.cumsum(sizes).tolist()
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "candidates", tuple(cols[a:b] for a, b in zip([0] + ends, ends)))
        object.__setattr__(self, "true_labels", labels)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]

    def occurrence_matrix(self) -> np.ndarray:
        """Stacked occurrence vectors, shape (n, c), float64 in {0, 1}; a fresh copy."""
        return self.mask.astype(np.float64)

    def subset(self, idx: Sequence[int]) -> "PLLDataset":
        """New dataset restricted to the given instance indices."""
        idx = np.asarray(idx, dtype=np.int64)
        labels = None if self.true_labels is None else self.true_labels[idx]
        return PLLDataset(self.features[idx], self.mask[idx], self.c, labels)


def occurrence_vector(candidates: Sequence[int], c: int) -> np.ndarray:
    """0/1 vector marking candidate-set membership among ``c`` labels."""
    o = np.zeros(c)
    for j in candidates:
        j = int(j)
        if j < 0 or j >= c:
            raise DataInvariantError(f"label index {j} out of range [0, {c})")
        o[j] = 1.0
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
    sets = ds.candidates
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{ds.n} {ds.q} {ds.c}\n")
        for i, values in enumerate(ds.features):
            # repr() of a Python float is the shortest string that round-trips;
            # one row at a time, as a whole-matrix tolist() raises peak memory
            feats = " ".join(map(repr, values.tolist()))
            cands = " ".join(str(j + 1) for j in sets[i])
            label = "" if ds.true_labels is None else f" | {int(ds.true_labels[i]) + 1}"
            fh.write(f"{feats} | {cands}{label}\n")


def load_dataset(path) -> PLLDataset:
    """Parse a dataset file, npz when it starts with :data:`ZIP_MAGIC` and
    text otherwise; raises naming the text line or the npz key at fault."""
    path = Path(path)
    try:
        with path.open("rb") as fh:
            magic = fh.read(len(ZIP_MAGIC))
            size = fh.seek(0, 2)
            fh.seek(0)
            if magic == ZIP_MAGIC:
                return _load_npz(fh, path, size)
            return _parse_text(_lines(fh, path), path, size)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def read_lines(path):
    """Yield the lines of the UTF-8 text file ``path``: each ends at ``\\n``
    and nowhere else, and a final empty line is not yielded."""
    try:
        with Path(path).open("rb") as fh:
            yield from _lines(fh, path)
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
        parts = [p.strip() for p in text.split("|")]
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
            features[i] = [float(t) for t in feat_tok]
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: malformed feature value") from None
        try:
            cand = [int(t) - 1 for t in parts[1].split()]
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: malformed candidate index") from None
        candidates.append(cand)
        if len(parts) == 3:
            try:
                labels.append(int(parts[2]) - 1)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: malformed true label") from None
    if len(candidates) < n:
        raise DataFormatError(f"{path}: header says n={n} but only {len(candidates)} rows")
    for lineno, text in enumerate(lines, n + 2):
        if text.strip():
            raise DataFormatError(f"{path}:{lineno}: row beyond the header's n={n}")
    if labels and len(labels) != n:
        raise DataFormatError(f"{path}: true label present on some rows but not all")
    return PLLDataset(features, candidates, c, labels or None)


def _load_npz(fh, path, size) -> PLLDataset:
    """The npz dataset in the open file ``fh`` of ``size`` bytes.  Each
    member's .npy header must declare its :data:`NPZ_DTYPES` dtype, the shape
    ``dims`` implies and at most ``size`` bytes before its data is read."""
    arrays, key = {}, "zip"
    try:
        with np.load(fh, allow_pickle=False) as npz:
            keys = [name.removesuffix(".npy") for name in npz.zip.namelist()]
            for key in ("dims", "features", "mask"):
                if key not in keys:
                    raise DataFormatError(f"{path}: missing key {key!r}")
            if extra := sorted(set(keys).difference(NPZ_DTYPES)):
                raise DataFormatError(f"{path}: unexpected key {extra[0]!r}")
            if len(set(keys)) < len(keys):
                raise DataFormatError(f"{path}: a key appears twice")
            shapes = {"dims": (3,)}
            for key in (k for k in NPZ_DTYPES if k in keys):  # dims first
                with npz.zip.open(f"{key}.npy") as member:
                    version = np.lib.format.read_magic(member)
                    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                                   else np.lib.format.read_array_header_2_0)
                    shape, _, dtype = read_header(member)
                if dtype != NPZ_DTYPES[key]:
                    raise DataFormatError(f"{path}: {key}: dtype {dtype}, expected "
                                          f"{np.dtype(NPZ_DTYPES[key])}")
                if shape != shapes[key]:
                    raise DataFormatError(f"{path}: {key}: shape {shape}, expected {shapes[key]}")
                if dtype.itemsize * math.prod(shape) > size:
                    raise DataFormatError(f"{path}: {key}: more bytes than the file's {size}")
                arrays[key] = npz[key]
                if key == "dims":  # each stored feature takes 8 bytes
                    n, q, c = _header_dims(arrays["dims"].tolist(), f"{path}: dims", size // 8)
                    shapes.update(features=(n, q), mask=(n, c), labels=(n,))
    except _NPZ_ERRORS as exc:
        raise DataFormatError(f"{path}: {key}: unreadable ({exc})") from exc
    return PLLDataset(arrays["features"], arrays["mask"], c, arrays.get("labels"))


def sidecar_path(path) -> Path:
    """Path of the metadata sidecar for a dataset file (same stem, '.meta')."""
    return Path(path).with_suffix(".meta")


def write_sidecar(path, metadata: dict) -> None:
    sidecar_path(path).write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def read_sidecar(path) -> dict:
    return json.loads(sidecar_path(path).read_text())
