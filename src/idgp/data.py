"""Partial-label dataset container and bit-exact file I/O.

A partial-label dataset pairs an ``n x q`` feature matrix with one
candidate-label set per instance.  Each candidate set is a nonempty strict
subset of the ``c`` available labels; when the true label is known (for
synthetic corruption provenance and evaluation) it must be a member of its
instance's candidate set.  Training code never reads ``true_labels``.

Labels are 1-indexed in files and 0-indexed in memory; conversion happens
exactly once, at the I/O boundary.  Features are written as decimal text in
the shortest representation that round-trips a 64-bit float, so
``write_dataset`` followed by ``load_dataset`` is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataFormatError, DataInvariantError

TEXT_FORMAT = "text"
JSONL_FORMAT = "jsonl"
FORMATS = (TEXT_FORMAT, JSONL_FORMAT)


@dataclass(frozen=True)
class PLLDataset:
    """Feature matrix plus per-instance candidate label sets.

    Attributes
    ----------
    features : (n, q) float64 array
        Instance feature vectors; all entries must be finite.
    candidates : tuple of tuples of int
        Per-instance candidate sets, 0-indexed, sorted, each a nonempty
        strict subset of ``{0, ..., c-1}``.
    c : int
        Number of classes (>= 2).
    true_labels : optional (n,) int array
        Hidden correct labels.  Used only for corruption provenance and
        accuracy evaluation, never by the trainer.
    """

    features: np.ndarray
    candidates: tuple
    c: int
    true_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataInvariantError(f"features must be 2-D, got shape {feats.shape}")
        n, q = feats.shape
        if n < 1 or q < 1:
            raise DataInvariantError(f"need n >= 1 and q >= 1, got n={n}, q={q}")
        if self.c < 2:
            raise DataInvariantError(f"need at least 2 classes, got c={self.c}")
        if not np.all(np.isfinite(feats)):
            bad = int(np.argwhere(~np.isfinite(feats).all(axis=1))[0, 0])
            raise DataInvariantError(f"non-finite feature at instance {bad}")
        cands = tuple(tuple(sorted(set(int(j) for j in s))) for s in self.candidates)
        if len(cands) != n:
            raise DataInvariantError(
                f"{len(cands)} candidate sets for {n} instances"
            )
        for i, s in enumerate(cands):
            if len(s) == 0:
                raise DataInvariantError(f"empty candidate set at instance {i}")
            if len(s) >= self.c:
                raise DataInvariantError(f"full candidate set at instance {i}")
            if s[0] < 0 or s[-1] >= self.c:
                raise DataInvariantError(
                    f"label index out of range [0, {self.c}) at instance {i}"
                )
        labels = self.true_labels
        if labels is not None:
            try:
                labels = np.asarray(labels, dtype=np.int64)
            except OverflowError:
                raise DataInvariantError("true label out of the int64 range") from None
            if labels.shape != (n,):
                raise DataInvariantError(
                    f"true_labels shape {labels.shape} does not match n={n}"
                )
            for i, (y, s) in enumerate(zip(labels, cands)):
                if y < 0 or y >= self.c:
                    raise DataInvariantError(f"true label out of range at instance {i}")
                if int(y) not in s:
                    raise DataInvariantError(
                        f"true label not in candidate set at instance {i}"
                    )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "true_labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def q(self) -> int:
        return self.features.shape[1]

    def occurrence_matrix(self) -> np.ndarray:
        """Stacked occurrence vectors, shape (n, c), float64 in {0, 1}."""
        o = np.zeros((self.n, self.c))
        for i, s in enumerate(self.candidates):
            o[i, list(s)] = 1.0
        return o

    def subset(self, idx: Sequence[int]) -> "PLLDataset":
        """New dataset restricted to the given instance indices."""
        idx = np.asarray(idx, dtype=np.int64)
        return PLLDataset(
            features=self.features[idx],
            candidates=tuple(self.candidates[int(i)] for i in idx),
            c=self.c,
            true_labels=None if self.true_labels is None else self.true_labels[idx],
        )


def occurrence_vector(candidates: Sequence[int], c: int) -> np.ndarray:
    """0/1 vector marking candidate-set membership among ``c`` labels."""
    o = np.zeros(c)
    for j in candidates:
        j = int(j)
        if j < 0 or j >= c:
            raise DataInvariantError(f"label index {j} out of range [0, {c})")
        o[j] = 1.0
    return o


def _format_float(v: float) -> str:
    # repr() of a Python float is the shortest string that round-trips.
    return repr(float(v))


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise DataFormatError(f"unknown format {fmt!r}; expected 'text' or 'jsonl'")


def write_dataset(ds: PLLDataset, path, fmt: str = TEXT_FORMAT) -> None:
    """Serialize a dataset so that :func:`load_dataset` inverts it exactly."""
    _check_format(fmt)
    path = Path(path)
    lines = []
    if fmt == TEXT_FORMAT:
        lines.append(f"{ds.n} {ds.q} {ds.c}")
        for i in range(ds.n):
            feats = " ".join(_format_float(v) for v in ds.features[i])
            cands = " ".join(str(j + 1) for j in ds.candidates[i])
            row = f"{feats} | {cands}"
            if ds.true_labels is not None:
                row += f" | {int(ds.true_labels[i]) + 1}"
            lines.append(row)
    else:
        lines.append(json.dumps({"n": ds.n, "q": ds.q, "c": ds.c}))
        for i in range(ds.n):
            obj = {
                "features": [float(v) for v in ds.features[i]],
                "candidates": [j + 1 for j in ds.candidates[i]],
            }
            if ds.true_labels is not None:
                obj["true_label"] = int(ds.true_labels[i]) + 1
            lines.append(json.dumps(obj))
    path.write_text("\n".join(lines) + "\n")


def load_dataset(path, fmt: str = TEXT_FORMAT) -> PLLDataset:
    """Parse a dataset file; raises with a line number on malformed input."""
    _check_format(fmt)
    path = Path(path)
    lines = read_text(path).splitlines()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    if fmt == TEXT_FORMAT:
        return _parse_text(lines, path)
    return _parse_jsonl(lines, path)


def read_text(path) -> str:
    """The file decoded as UTF-8; failures name the path (and line)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}:{line}: not UTF-8 text") from exc


def _header_dims(fields, path, lines, to_int=int):
    """``(n, q, c)`` from the three header fields of either format."""
    try:
        n, q, c = (to_int(v) for v in fields)
    except (TypeError, ValueError):
        raise DataFormatError(f"{path}:1: non-integer header field") from None
    if max(n, q, c) > np.iinfo(np.intp).max:
        raise DataFormatError(f"{path}:1: header field above {np.iinfo(np.intp).max}")
    if n < 0 or q < 0:
        raise DataFormatError(f"{path}:1: negative header field (n={n}, q={q})")
    # training holds (n, c) float64 arrays, whose byte count must be addressable
    if max(n, 1) * c > np.iinfo(np.intp).max // 8:
        raise DataFormatError(f"{path}:1: n={n} rows of c={c} classes cannot be addressed")
    # each feature takes at least one character: this bounds the allocation
    if max(n, 1) * q > sum(map(len, lines)):
        raise DataFormatError(f"{path}:1: n={n} rows of q={q} features cannot fit in the file")
    return n, q, c


def _parse_text(lines, path) -> PLLDataset:
    header = lines[0].split()
    if len(header) != 3:
        raise DataFormatError(f"{path}:1: header must be 'n q c'")
    n, q, c = _header_dims(header, path, lines)
    if len(lines) - 1 < n:
        raise DataFormatError(f"{path}: header says n={n} but only {len(lines) - 1} rows")
    features = np.empty((n, q))
    candidates = []
    labels = []
    for i in range(n):
        lineno = i + 2
        parts = [p.strip() for p in lines[i + 1].split("|")]
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
    if labels and len(labels) != n:
        raise DataFormatError(f"{path}: true label present on some rows but not all")
    return PLLDataset(
        features=features,
        candidates=tuple(tuple(s) for s in candidates),
        c=c,
        true_labels=labels or None,
    )


def _json_int(value) -> int:
    """A JSON integer; floats, booleans and strings are not read as one."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_number(value):
    """A JSON number; booleans and strings are not read as one."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _parse_jsonl(lines, path) -> PLLDataset:
    def parse_object(lineno, text):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataFormatError(f"{path}:{lineno}: expected a JSON object")
        return obj

    header = parse_object(1, lines[0])
    for key in ("n", "q", "c"):
        if key not in header:
            raise DataFormatError(f"{path}:1: header object missing {key!r}")
    n, q, c = _header_dims([header[key] for key in ("n", "q", "c")], path, lines,
                           _json_int)
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) < n:
        raise DataFormatError(f"{path}: header says n={n} but only {len(body)} rows")
    features = np.empty((n, q))
    candidates = []
    labels = []
    for i, (lineno, text) in enumerate(body[:n]):
        obj = parse_object(lineno, text)
        feats = obj.get("features")
        if not isinstance(feats, list) or len(feats) != q:
            raise DataFormatError(f"{path}:{lineno}: expected {q} features")
        try:
            features[i] = [_json_number(v) for v in feats]
            candidates.append([_json_int(j) - 1 for j in obj.get("candidates", [])])
            if "true_label" in obj:
                labels.append(_json_int(obj["true_label"]) - 1)
        except (TypeError, OverflowError) as exc:
            raise DataFormatError(f"{path}:{lineno}: malformed value ({exc})") from exc
    if labels and len(labels) != n:
        raise DataFormatError(f"{path}: true label present on some rows but not all")
    return PLLDataset(
        features=features,
        candidates=tuple(tuple(s) for s in candidates),
        c=c,
        true_labels=labels or None,
    )


def sidecar_path(path) -> Path:
    """Path of the metadata sidecar for a dataset file (same stem, '.meta')."""
    return Path(path).with_suffix(".meta")


def write_sidecar(path, metadata: dict) -> None:
    sidecar_path(path).write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def read_sidecar(path) -> dict:
    return json.loads(sidecar_path(path).read_text())
