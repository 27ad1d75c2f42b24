"""Prediction and accuracy, deterministic splits, multi-seed aggregation and report CSVs."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import PLLDataset, read_lines
from .errors import DataFormatError, DataInvariantError
from .network import DenseNet, TransformConfig, lambda_transform
from .rng import substream

CSV_COLUMNS = ("method", "dataset", "seed_count", "mean_acc", "std_acc")


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test fractions (must sum to 1) plus the shuffle seed."""

    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train, self.val, self.test)
        if not all(0.0 <= f < np.inf for f in fracs):
            raise ValueError("split fractions must be finite and nonnegative")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ValueError(f"split fractions sum to {sum(fracs)!r}, not 1")


def split(dataset: PLLDataset, spec: SplitSpec):
    """Disjoint, exhaustive, seed-deterministic (train, val, test) partition."""
    perm = substream(spec.seed, "split").permutation(dataset.n)
    bounds = [int(round(dataset.n * f)) for f in
              np.cumsum([spec.train, spec.val, spec.test])]
    parts = (perm[:bounds[0]], perm[bounds[0]:bounds[1]], perm[bounds[1]:bounds[2]])
    for frac, part, name in zip((spec.train, spec.val, spec.test), parts,
                                ("train", "val", "test")):
        if frac > 0.0 and part.size == 0:
            raise DataInvariantError(
                f"{name} split is empty for n={dataset.n}, fraction={frac}"
            )
    return tuple(dataset.subset(part) if part.size else None for part in parts)


def accuracy(net_f: DenseNet, dataset: PLLDataset, tc: TransformConfig) -> float:
    """Fraction of instances whose predicted label matches the true one."""
    if dataset.true_labels is None:
        raise DataInvariantError("accuracy needs a dataset with true labels")
    q, *_, c = net_f.layer_sizes
    if c != dataset.c:
        raise DataInvariantError(f"model predicts {c} classes, dataset has {dataset.c}")
    if q != dataset.q:
        raise DataInvariantError(f"model expects {q} features, dataset has {dataset.q}")
    labels, _ = predict_batch(net_f, dataset.features, tc)
    return float(np.mean(labels == dataset.true_labels))


def predict_batch(net_f: DenseNet, X: np.ndarray, tc: TransformConfig):
    """Labels and label-confidence rows for a feature matrix.

    At test time there is no candidate set, so the occurrence vector is
    zero and the posterior mean reduces to lam / sum(lam); its argmax
    coincides with the raw score argmax because the transform is strictly
    increasing coordinate-wise.  Ties go to the lowest label index.  The
    forward's cache is dropped before the transform allocates.
    """
    lam = lambda_transform(net_f.forward(np.atleast_2d(X))[0], tc)
    theta = lam / lam.sum(axis=1, keepdims=True)
    return np.argmax(theta, axis=1), theta


def aggregate(values: Sequence[float]):
    """Sample mean and (n-1)-denominator standard deviation."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least 2 values to aggregate")
    return float(values.mean()), float(values.std(ddof=1))


def write_report_csv(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in CSV_COLUMNS})


def read_report_csv(path):
    """Rows of a report CSV; a missing field or non-numeric accuracy names its line."""
    # the "\n" read_lines drops is given back, so a quoted newline stays in its field
    reader = csv.DictReader(line + "\n" for line in read_lines(path))
    rows = []
    try:
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if any(row.get(k) is None for k in CSV_COLUMNS):
                raise DataFormatError(f"{where}: expected columns {', '.join(CSV_COLUMNS)}")
            try:
                float(row["mean_acc"]), float(row["std_acc"])
            except ValueError:
                raise DataFormatError(f"{where}: non-numeric accuracy") from None
            rows.append(row)
    except csv.Error as exc:
        raise DataFormatError(f"{path}:{reader.reader.line_num}: {exc}") from exc
    return rows
