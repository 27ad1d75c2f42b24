"""Command-line surface: corrupt, train, eval, gradcheck, report.  The dataset
and model files these commands read and write are :mod:`idgp.data`'s.

Exit codes: 0 success, 1 I/O or unreadable input, 2 usage, 3 data
invariant violation or a failed allocation, 4 numeric failure, 5
gradient-check failure.

Every training run writes a manifest (resolved config, seed, SHA-256
digests of the inputs, artifact paths, timestamps, and the python, numpy
and package versions with the BLAS thread variables) so outputs can be
reproduced from their recorded inputs.  All randomness inside a command
derives from the single --seed through named substreams.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, evaluation, gradcheck, generation, trainer
from .data import (READ_BLOCK, load_dataset, load_model, read_lines, save_model, sidecar_path,
                   write_dataset, write_sidecar)
from .errors import DataFormatError, DataInvariantError, NumericError
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_NUMERIC = 4
EXIT_GRADCHECK = 5


class UsageError(Exception):
    pass


# -- config file ------------------------------------------------------------

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False}


def parse_config_file(path) -> TrainConfig:
    """Flat key=value file; every key must be a TrainConfig field, given once."""
    known = {f.name for f in fields(TrainConfig)}
    defaults = TrainConfig()
    values, seen = {}, {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        current = getattr(defaults, key)
        try:
            if isinstance(current, bool):
                values[key] = _BOOL_STRINGS[raw.lower()]
            elif isinstance(current, int):
                values[key] = int(raw)
            else:  # every other field is a float
                values[key] = float(raw)
        except (ValueError, KeyError):
            raise UsageError(
                f"{path}:{lineno}: bad value {raw!r} for key {key!r}"
            ) from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# -- manifest ---------------------------------------------------------------

def _digest(path) -> str:
    """SHA-256 of the file, read one block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(READ_BLOCK):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path, config: TrainConfig, inputs, outputs):
    """The ``train`` run's manifest at ``path``: its config, seed, input digests and outputs."""
    manifest = {
        "command": "train",
        "config": asdict(config),
        "seed": config.seed,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "created_at": datetime.now(timezone.utc).isoformat(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "idgp": __version__,
            **{var: os.environ.get(var)  # None when unset
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


# -- subcommands ------------------------------------------------------------

def _check_out(out) -> None:
    """Refuse an ``--out`` that is a directory or whose parent directory does not exist."""
    out = Path(out)
    if out.is_dir():
        raise UsageError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise UsageError(f"--out {out}: no directory {out.parent}")


def cmd_corrupt(args) -> int:
    _check_out(args.out)
    sidecar = sidecar_path(args.out).resolve()
    for flag, value in (("--out", args.out), ("--data", args.data)):
        if Path(value).resolve() == sidecar:  # the sidecar is written last, over it
            raise UsageError(f"{flag} {value} is the .meta sidecar path of --out")
    scorer = {k: getattr(args, f"scorer_{k}") for k in ("hidden", "epochs", "lr", "clamp")}
    scorer = {k: v for k, v in scorer.items() if v is not None}
    if args.mode == "uniform" and scorer:
        raise UsageError(f"--scorer-{next(iter(scorer))} applies only to --mode instance")
    if args.mode == "instance":
        if args.p is not None:
            raise UsageError("--p applies only to --mode uniform")
        try:  # flags not given keep the CleanScorerConfig defaults
            scorer_cfg = generation.CleanScorerConfig(**scorer, seed=args.seed)
        except ValueError as exc:  # each message opens with the field, e.g. "lr must ..."
            raise UsageError(f"--scorer-{exc}") from None
    elif args.p is None:
        raise UsageError("--p is required for --mode uniform")
    elif not (0.0 < args.p < 1.0):
        raise UsageError(f"--p must lie strictly inside (0, 1), got {args.p}")
    ds = load_dataset(args.data)
    if args.mode == "uniform":
        corrupted, report = generation.corrupt_uniform(ds, args.p, args.seed)
    else:
        scores, _ = generation.train_clean_scorer(ds, scorer_cfg)
        corrupted, report = generation.corrupt_instance_dependent(
            ds, scores, args.seed, scorer_params=asdict(scorer_cfg))
    write_dataset(corrupted, args.out)
    write_sidecar(args.out, report.to_metadata())
    print(f"wrote {args.out} (avg |S| = {report.avg_set_size:.3f})")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    """The ``--config`` file's config, else the :class:`TrainConfig` defaults, with ``--seed``."""
    config = parse_config_file(args.config) if args.config else TrainConfig()
    return config if args.seed is None else replace(config, seed=args.seed)


def cmd_train(args) -> int:
    config = _train_config(args)
    if args.ml_only:
        config = replace(config, ml_only=True)
    out_dir = Path(args.out_dir)  # made only after the fit, so a failed fit leaves no directory
    if any(path.exists() and not path.is_dir() for path in (out_dir, *out_dir.parents)):
        raise UsageError(f"--out-dir {out_dir}: a file stands where a directory must be")
    ds = load_dataset(args.data)
    net_f, _, history = trainer.fit(config, ds)  # g only shapes the fit: eval reads f
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.bin"
    history_path = out_dir / "history.jsonl"
    save_model(model_path, net_f, config.transform_config)
    with history_path.open("w") as fh:
        for record in history:
            fh.write(json.dumps(record) + "\n")
    inputs = [args.data] + ([args.config] if args.config else [])
    write_manifest(out_dir / "manifest.json", config, inputs, [model_path, history_path])
    final = history[-1] if history else {}
    print(f"trained {config.epochs} epochs; final loss "
          f"{final.get('train_loss', float('nan')):.6f}, "
          f"val acc {final.get('val_acc')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_out(args.out)
    net, tc = load_model(args.model)
    ds = load_dataset(args.data)
    acc = evaluation.accuracy(net, ds, tc)
    row = {"method": args.method, "dataset": Path(args.data).stem,
           "seed_count": 1, "mean_acc": acc, "std_acc": 0.0}
    out = Path(args.out)
    rows = evaluation.read_report_csv(out) if out.exists() else []
    rows.append(row)
    evaluation.write_report_csv(out, rows)
    print(f"accuracy {acc:.4f} -> {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    errors = gradcheck.run_suite(seed=args.seed, trials=args.trials)
    failed = []
    for name in gradcheck.COMPONENTS:
        err = errors[name]
        status = "PASS" if err <= gradcheck.TOLERANCE else "FAIL"
        print(f"{name}: max_rel_err={err:.3e} {status}")
        if status == "FAIL":
            failed.append(name)
    if failed:
        print(f"gradcheck failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def _write_xy_csv(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("x", "y", "series"))
        writer.writerows(rows)


def cmd_report(args) -> int:
    if sum(map(bool, (args.history, args.merge, args.sweep_a or args.sweep_gamma))) != 1:
        raise UsageError("report needs exactly one of --history, --merge "
                         "or a sweep spec")
    stray = [flag for flag in ("data", "config", "seed") if getattr(args, flag) is not None]
    if stray and not (args.sweep_a or args.sweep_gamma):
        raise UsageError(f"--{stray[0]} applies only to a sensitivity sweep")
    _check_out(args.out)
    if args.history:
        rows = []
        for hist_path in args.history:  # by path: every train run writes history.jsonl
            for lineno, line in enumerate(read_lines(hist_path), 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    rows.append((rec["epoch"], rec["train_loss"], hist_path))
                except (ValueError, RecursionError, TypeError, KeyError):
                    raise DataFormatError(f"{hist_path}:{lineno}: expected a JSON record "
                                          "with 'epoch' and 'train_loss'") from None
        _write_xy_csv(args.out, rows)
        print(f"wrote loss curves ({len(rows)} rows) -> {args.out}")
    elif args.merge:
        groups = {}
        for metrics_path in args.merge:
            for row in evaluation.read_report_csv(metrics_path):
                key = (row["method"], row["dataset"])
                if row["seed_count"] != "1":  # a merged row's mean is not one sample
                    raise DataInvariantError(
                        f"{metrics_path}: {key[0]}/{key[1]} has seed_count "
                        f"{row['seed_count']}; a merge takes per-seed rows, as eval writes them")
                groups.setdefault(key, []).append(float(row["mean_acc"]))
        merged = []
        for (method, dataset), values in sorted(groups.items()):
            if len(values) < 2:
                raise DataInvariantError(f"{method}/{dataset}: a merge needs at least "
                                         "2 rows per method and dataset, got 1")
            mean, std = evaluation.aggregate(values)
            merged.append({"method": method, "dataset": dataset,
                           "seed_count": len(values), "mean_acc": mean,
                           "std_acc": std})
        evaluation.write_report_csv(args.out, merged)
        print(f"merged {len(merged)} method/dataset groups -> {args.out}")
    else:
        if not (args.sweep_a and args.sweep_gamma and args.data):
            raise UsageError("sensitivity sweep needs --sweep-a, --sweep-gamma and --data")
        config = _train_config(args)
        try:
            grid = [replace(config, a=a, gamma=gamma)
                    for gamma in _parse_grid(args.sweep_gamma, "--sweep-gamma")
                    for a in _parse_grid(args.sweep_a, "--sweep-a")]
        except ValueError as exc:
            raise UsageError(f"sensitivity sweep: {exc}") from None
        ds = load_dataset(args.data)
        rows = []
        for cfg in grid:
            _, _, history = trainer.fit(cfg, ds)
            acc = history[-1]["val_acc"] if history else None
            rows.append((cfg.a, acc if acc is not None else "nan", f"gamma={cfg.gamma}"))
        _write_xy_csv(args.out, rows)
        print(f"wrote sensitivity grid ({len(rows)} rows) -> {args.out}")
    return EXIT_OK


def _parse_grid(raw: str, flag: str):
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated list of numbers") from None
    if not values:
        raise UsageError(f"{flag} must name at least one value")
    return values


# -- parser -----------------------------------------------------------------

def _seed(raw: str) -> int:
    """A --seed value: random substreams need a nonnegative integer."""
    if not (raw.isascii() and raw.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idgp",
        description="Instance-dependent partial-label learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="turn a clean dataset into a partial-label one")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["instance", "uniform"], default="instance")
    p.add_argument("--p", type=float, default=None,
                   help="flip probability for --mode uniform")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--scorer-hidden", type=int, default=None)
    p.add_argument("--scorer-epochs", type=int, default=None)
    p.add_argument("--scorer-lr", type=float, default=None)
    p.add_argument("--scorer-clamp", type=float, default=None)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("train", help="fit the two-network model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ml-only", action="store_true",
                   help="drop the prior regularizer (ablation)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a trained model on labelled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="idgp")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="plot-data CSVs from histories and metrics")
    p.add_argument("--history", nargs="*", default=None)
    p.add_argument("--merge", nargs="*", default=None)
    p.add_argument("--sweep-a", default=None)
    p.add_argument("--sweep-gamma", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
