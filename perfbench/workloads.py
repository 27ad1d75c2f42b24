"""The four benchmark workloads: inputs from a seed, one timed operation, checks.

Every workload exposes the same three steps:

* ``setup(seed)`` builds the inputs through the package's own constructors;
  the benchmark times it several times and reports the median.
* ``op(i)`` runs one timed operation and returns an :class:`Op` holding its
  wall time and the samples that feed ``op_ms_p50`` (the epochs of a fit, or
  the operation itself).
* ``check(op)`` verifies the operation's output and returns the problems
  found; an empty list means the output is correct.

Package functions are always called through their module (``trainer.fit``,
``cli.main``), so the wrappers installed by ``tracing.instrument`` see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from idgp import cli, data, evaluation, generation, gradcheck, trainer

OP_UNITS = {"blobs_fit": "epoch", "wide_fit": "epoch",
            "dataset_io": "corrupt command", "gradcheck": "run_suite call"}


@dataclass
class Op:
    seconds: float
    samples: list  # seconds, one per op_ms_p50 sample
    items: int  # work items done (instances x epochs, rows, trials)
    output: object = None
    hooks: list = field(default_factory=list)  # batch-hook times of a fit


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# -- fits ---------------------------------------------------------------------

class FitWorkload:
    """``trainer.fit`` on a corrupted, split dataset; one op is one whole fit."""

    acc_floor = 0.0  # test accuracy below this marks the fit as failed

    def setup(self, seed: int) -> None:
        self.train, self.val, self.test = evaluation.split(
            self.corrupted(seed), evaluation.SplitSpec(seed=seed))
        self.config = self.train_config(seed)
        self.digest = None

    def op(self, i: int) -> Op:
        hooks = []

        def hook(record):  # stores nothing but the batch end time
            hooks.append((record["epoch"], perf_counter()))

        t0 = perf_counter()
        f, g, history = trainer.fit(self.config, self.train, val_dataset=self.val,
                                    batch_hook=hook)
        seconds = perf_counter() - t0
        # an epoch ends with its last batch; the first starts with the fit
        ends = {epoch: t for epoch, t in hooks}
        bounds = [t0] + [ends[e] for e in sorted(ends)]
        epochs = list(np.diff(bounds))
        return Op(seconds=seconds, samples=epochs,
                  items=self.train.n * self.config.epochs,
                  output=(f, g, history), hooks=[t for _, t in hooks])

    def check(self, op: Op) -> list:
        f, g, history = op.output
        problems = []
        if len(history) != self.config.epochs:
            problems.append(f"{len(history)} history records for "
                            f"{self.config.epochs} epochs")
        if not all(math.isfinite(r["train_loss"]) for r in history):
            problems.append("non-finite train_loss in the history")
        self.test_acc = evaluation.accuracy(f, self.test, self.config.transform_config)
        if not self.test_acc >= self.acc_floor:
            problems.append(f"test_acc {self.test_acc:.4f} < {self.acc_floor}")
        weights = [a.tobytes() for net in (f, g) for a in net.weights + net.biases]
        digest = _digest(*weights, json.dumps(history).encode())
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("a repeated fit gave different weights or history")
        return problems

    def report(self) -> dict:
        return {"test_acc": round(self.test_acc, 6), "fit_sha256": self.digest,
                "n_train": self.train.n, "epochs": self.config.epochs}


# Acceptance criterion 7 asks for test accuracy >= 0.90 on 4 of 5 seeds, not on
# every seed: about one seed in four locks into a wrong prior and ends near
# 0.75.  A single run cannot apply the 4-of-5 rule, so each run reports whether
# it cleared 0.90 and fails only below twice chance, where nothing was learned.
CRITERION_7_FLOOR = 0.90


class BlobsFit(FitWorkload):
    """Acceptance criterion 7: 4 ambiguous 2-D blobs, instance-dependent flips."""

    acc_floor = 0.50  # twice chance for 4 classes

    def report(self) -> dict:
        return {**super().report(),
                "criterion_7_floor_met": self.test_acc >= CRITERION_7_FLOOR}

    def corrupted(self, seed):
        rng = np.random.default_rng(seed)
        centers = np.array([[2, 2], [-2, 2], [-2, -2], [2, -2]], dtype=float)
        X = np.vstack([ctr + rng.normal(0.0, 0.8, (500, 2)) for ctr in centers])
        y = np.repeat(np.arange(4), 500)
        perm = rng.permutation(y.size)
        clean = generation.make_clean_dataset(X[perm], y[perm], 4)
        scorer = generation.CleanScorerConfig(epochs=4, clamp=20.0, lr=0.01, seed=seed)
        flip_scores, _ = generation.train_clean_scorer(clean, scorer)
        corrupted, _ = generation.corrupt_instance_dependent(clean, flip_scores, seed)
        return corrupted

    def train_config(self, seed):
        return trainer.TrainConfig(epochs=300, batch_size=256, seed=seed, hidden=64,
                                   clamp=2.0, b=1.0, lr_f=1e-2, lr_g=1e-2,
                                   r=20, q=20, m=0.3, d=0.3)


class WideFit(FitWorkload):
    """50-class Gaussian mixture in 128-D, uniform flips with p=0.1."""

    # no accuracy floor: after 20 epochs at the default learning rate some
    # seeds are still near chance (0.02), which is a result, not a fault

    def corrupted(self, seed):
        n, q, c = 5000, 128, 50
        rng = np.random.default_rng(seed)
        centers = rng.normal(0.0, 1.0, (c, q))
        y = rng.integers(0, c, n)
        X = centers[y] + rng.normal(0.0, 1.0, (n, q))
        clean = generation.make_clean_dataset(X, y, c)
        corrupted, _ = generation.corrupt_uniform(clean, 0.1, seed)
        return corrupted

    def train_config(self, seed):
        return trainer.TrainConfig(epochs=20, batch_size=256, seed=seed, hidden=256,
                                   clamp=2.0, b=1.0, r=5, q=5)


# -- corrupt command ------------------------------------------------------------

class DatasetIO:
    """``idgp corrupt --mode uniform`` in-process on a clean text dataset."""

    n, q, c, p = 20000, 64, 10, 0.3

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(self.n, self.q))
        y = rng.integers(0, self.c, self.n)
        self.clean = generation.make_clean_dataset(X, y, self.c)
        self.src = self.workdir / "clean.pll"
        self.out = self.workdir / "corrupted.pll"
        data.write_dataset(self.clean, self.src)
        self.seed = seed
        self.digest = None

    def op(self, i: int) -> Op:
        argv = ["corrupt", "--data", str(self.src), "--out", str(self.out),
                "--mode", "uniform", "--p", str(self.p), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - t0
        return Op(seconds=seconds, samples=[seconds], items=self.n, output=code)

    def check(self, op: Op) -> list:
        if op.output != cli.EXIT_OK:
            return [f"corrupt exited with code {op.output}"]
        digest = _digest(self.out.read_bytes())
        if self.digest is not None:
            # same seed, same input: the output must not change
            return [] if digest == self.digest else ["repeated corrupt output differs"]
        self.digest = digest
        problems = []
        written = data.load_dataset(self.out)
        expected, _ = generation.corrupt_uniform(self.clean, self.p, self.seed)
        if not np.array_equal(written.features.view(np.uint64),
                              self.clean.features.view(np.uint64)):
            problems.append("reloaded features are not bitwise equal to the input")
        if written.candidates != expected.candidates:
            problems.append("reloaded candidate sets differ from the corruption")
        if not np.array_equal(written.true_labels, self.clean.true_labels):
            problems.append("reloaded true labels differ from the input")
        return problems

    def report(self) -> dict:
        return {"output_sha256": self.digest, "rows": self.n}


# -- gradient-check suite ---------------------------------------------------------

class GradCheck:
    """``gradcheck.run_suite``; call i draws its instances from seed*1000+i."""

    trials = 5

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.worst = 0.0

    def op(self, i: int) -> Op:
        t0 = perf_counter()
        errors = gradcheck.run_suite(self.seed * 1000 + i, trials=self.trials)
        seconds = perf_counter() - t0
        return Op(seconds=seconds, samples=[seconds], items=self.trials, output=errors)

    def check(self, op: Op) -> list:
        errors = op.output
        self.worst = max(self.worst, max(errors.values()))
        return [f"{name} error {errors[name]:.3e} > {gradcheck.TOLERANCE}"
                for name in gradcheck.COMPONENTS if not errors[name] <= gradcheck.TOLERANCE]

    def report(self) -> dict:
        return {"max_rel_err": self.worst, "trials_per_call": self.trials}


def make(name: str, workdir: Path):
    if name == "blobs_fit":
        return BlobsFit()
    if name == "wide_fit":
        return WideFit()
    if name == "dataset_io":
        return DatasetIO(workdir)
    if name == "gradcheck":
        return GradCheck()
    raise KeyError(name)
