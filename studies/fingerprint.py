"""Bitwise fingerprint of the tree this script sits in, as one JSON object.

    python studies/fingerprint.py > HEAD.json
    python studies/fingerprint.py --compare PARENT.json HEAD.json

Each key names one output and maps to its SHA-256 (or, for the gradient
check, the ``float.hex`` of the error):

* ``fit.<case>.<seed>``: f's and g's parameters and the history of a
  ``trainer.fit`` on the ``perfbench/workloads.py`` inputs: ``blobs_fit``
  seeds 1 and 3, the ``ml_only`` fit of the ``blobs_fit`` seed-5 inputs and
  ``wide_fit`` seed 2;
* ``hooks.blobs_fit.1``: every batch-hook record of the ``blobs_fit`` seed-1
  fit (the batch indices and the six live and frozen prior arrays);
* ``run_suite.<seed>.<component>``: ``gradcheck.run_suite(seed, trials=3)``
  for seeds 0-5;
* ``write_dataset.text`` and ``write_dataset.npz``: a clean 600-row
  three-blob dataset written as text and as npz;
* ``corrupt.<mode>`` and ``corrupt.<mode>.meta``: ``idgp corrupt`` of that
  text file in uniform (p = 0.3) and instance mode, and their sidecars;
* ``train.model.<member>``, ``train.history`` and ``eval.metrics``:
  ``idgp train`` of the uniform corruption, as npz, with the README's
  example config, and ``idgp eval`` of its model.

Each ``model.bin`` member is hashed apart (its name, dtype, shape and
bytes), so a difference names the member.  No digest is stored here:
GEMM bits may differ between machines, so compare two trees on one machine.
``--compare`` lists every key whose value differs or that only one file has,
and exits 1 when there is any.  The package is imported from ``src/`` next
to this directory; BLAS runs on one thread unless the environment says
otherwise.  A full run takes about 10 s on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import idgp  # noqa: E402
import workloads  # noqa: E402
from idgp import cli, data, generation, gradcheck, trainer  # noqa: E402

README_CONFIG = """\
epochs=300
batch_size=256
seed=1
lr_f=0.01
lr_g=0.01
momentum_f=0.9
momentum_g=0.9
weight_decay=0.0
hidden=64
a=1.0
b=1.0
gamma=1.0
clamp=2.0
m=0.3
d=0.3
r=20
q=20
epsilon=0.001
rho=10.0
ml_only=false
val_fraction=0.1
"""


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _array_bytes(name: str, a) -> bytes:
    a = np.asarray(a)
    return f"{name}:{a.dtype.str}:{a.shape}:".encode() + np.ascontiguousarray(a).tobytes()


def _fit(workload, seed: int, ml_only: bool = False, hooks=None) -> str:
    workload.setup(seed)
    config = replace(workload.config, ml_only=True) if ml_only else workload.config
    f, g, history = trainer.fit(config, workload.train, val_dataset=workload.val,
                                batch_hook=hooks)
    return _sha(f.flat.tobytes(), g.flat.tobytes(), json.dumps(history).encode())


def fits() -> dict:
    records = hashlib.sha256()

    def hook(record):  # hashed as it comes: a fit's records hold ~100 MB
        for key in sorted(record):
            records.update(_array_bytes(key, record[key]))

    out = {
        "fit.blobs_fit.1": _fit(workloads.BlobsFit(), 1, hooks=hook),
        "fit.blobs_fit.3": _fit(workloads.BlobsFit(), 3),
        "fit.ml_only.5": _fit(workloads.BlobsFit(), 5, ml_only=True),
        "fit.wide_fit.2": _fit(workloads.WideFit(), 2),
    }
    out["hooks.blobs_fit.1"] = records.hexdigest()
    return out


def suites() -> dict:
    out = {}
    for seed in range(6):
        errors = gradcheck.run_suite(seed, trials=3)
        out.update({f"run_suite.{seed}.{name}": float(errors[name]).hex()
                    for name in gradcheck.COMPONENTS})
    return out


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"idgp {' '.join(argv)} exited {code}")


def files(work: Path) -> dict:
    y = np.arange(600) % 3
    X = np.random.default_rng(0).normal(size=(600, 2)) + 3.0 * y[:, None]
    clean = generation.make_clean_dataset(X, y, 3)
    data.write_dataset(clean, work / "clean.pll")
    data.write_dataset(clean, work / "clean.npz")
    out = {"write_dataset.text": _sha((work / "clean.pll").read_bytes()),
           "write_dataset.npz": _sha((work / "clean.npz").read_bytes())}
    for mode, flags in (("uniform", ("--p", "0.3")), ("instance", ("--scorer-epochs", "5"))):
        dest = work / f"{mode}.pll"
        _cli("corrupt", "--data", str(work / "clean.pll"), "--out", str(dest),
             "--mode", mode, *flags, "--seed", "1")
        out[f"corrupt.{mode}"] = _sha(dest.read_bytes())
        out[f"corrupt.{mode}.meta"] = _sha(data.sidecar_path(dest).read_bytes())

    (work / "train.cfg").write_text(README_CONFIG)
    _cli("corrupt", "--data", str(work / "clean.pll"), "--out", str(work / "pll.npz"),
         "--mode", "uniform", "--p", "0.3", "--seed", "1")
    _cli("train", "--data", str(work / "pll.npz"), "--config", str(work / "train.cfg"),
         "--seed", "1", "--out-dir", str(work / "run"))
    with np.load(work / "run" / "model.bin", allow_pickle=False) as npz:
        out.update({f"train.model.{name}": _sha(_array_bytes(name, npz[name]))
                    for name in npz.files})
    out["train.history"] = _sha((work / "run" / "history.jsonl").read_bytes())
    _cli("eval", "--model", str(work / "run" / "model.bin"), "--data", str(work / "pll.npz"),
         "--out", str(work / "metrics.csv"))
    out["eval.metrics"] = _sha((work / "metrics.csv").read_bytes())
    return out


def fingerprint() -> dict:
    if Path(idgp.__file__).resolve().parent != ROOT / "src" / "idgp":
        raise SystemExit(f"idgp imported from {idgp.__file__}, not from {ROOT / 'src'}")
    with tempfile.TemporaryDirectory() as tmp:
        return {**fits(), **suites(), **files(Path(tmp))}


def compare(a: dict, b: dict) -> list:
    """One line per key whose value differs or that only one side has."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            lines.append(f"{key}: {a.get(key, '<missing>')} != {b.get(key, '<missing>')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="list the differences of two fingerprints instead")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        diffs = compare(a, b)
        print("\n".join(diffs) if diffs else f"no differences in {len(a)} keys")
        return 1 if diffs else 0
    print(json.dumps(fingerprint(), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
