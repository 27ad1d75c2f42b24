"""Command-line surface: corrupt, train, eval, gradcheck, report.

Exit codes: 0 success, 1 I/O or unreadable input, 2 usage, 3 data
invariant violation or a failed allocation, 4 numeric failure, 5
gradient-check failure.

Every training run writes a manifest (resolved config, seed, SHA-256
digests of the inputs, artifact paths, timestamps) so outputs can be
reproduced from their recorded inputs.  All randomness inside a command
derives from the single --seed through named substreams.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import evaluation, gradcheck, generation, trainer
from .data import FORMATS, load_dataset, read_text, write_dataset, write_sidecar
from .errors import DataFormatError, DataInvariantError, NumericError
from .network import DenseNet, TransformConfig
from .trainer import TrainConfig

MODEL_MAGIC = b"IDGPMDL1"
MODEL_VERSION = 1
_ACTIVATION_CODES = {"relu": 0, "identity": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_NUMERIC = 4
EXIT_GRADCHECK = 5


class UsageError(Exception):
    pass


# -- model file -------------------------------------------------------------

def _pack_net(net: DenseNet) -> bytes:
    parts = [struct.pack("<II", _ACTIVATION_CODES[net.activation],
                         len(net.layer_sizes))]
    parts.append(struct.pack(f"<{len(net.layer_sizes)}I", *net.layer_sizes))
    parts.append(struct.pack("<d", net.clamp))
    for W, b in zip(net.weights, net.biases):
        parts.append(np.ascontiguousarray(W, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def _unpack_net(buf: bytes, pos: int):
    act_code, n_sizes = struct.unpack_from("<II", buf, pos)
    pos += 8
    sizes = struct.unpack_from(f"<{n_sizes}I", buf, pos)
    pos += 4 * n_sizes
    (clamp,) = struct.unpack_from("<d", buf, pos)
    pos += 8
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = np.frombuffer(buf, dtype="<f8", count=fan_in * fan_out, offset=pos)
        pos += 8 * fan_in * fan_out
        b = np.frombuffer(buf, dtype="<f8", count=fan_out, offset=pos)
        pos += 8 * fan_out
        weights.append(W.reshape(fan_in, fan_out).astype(np.float64))
        biases.append(b.astype(np.float64))
    return DenseNet.from_params(sizes, _ACTIVATION_NAMES.get(act_code), clamp,
                                weights, biases), pos


def save_model(path, net_f: DenseNet, net_g: DenseNet, tc: TransformConfig) -> None:
    """Versioned little-endian binary holding both nets and the transform."""
    blob = [MODEL_MAGIC, struct.pack("<I", MODEL_VERSION),
            struct.pack("<ddd", tc.a, tc.b, tc.gamma),
            _pack_net(net_f), _pack_net(net_g)]
    Path(path).write_bytes(b"".join(blob))


def load_model(path):
    buf = Path(path).read_bytes()
    if buf[:8] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: not a model file (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", buf, 8)
        if version != MODEL_VERSION:
            raise DataFormatError(f"{path}: unsupported model version {version}")
        a, b, gamma = struct.unpack_from("<ddd", buf, 12)
        tc = TransformConfig(a=a, b=b, gamma=gamma)
        net_f, pos = _unpack_net(buf, 36)
        net_g, _ = _unpack_net(buf, pos)
    except (struct.error, ValueError) as exc:
        raise DataFormatError(f"{path}: truncated or corrupt model file ({exc})") from exc
    return net_f, net_g, tc


# -- config file ------------------------------------------------------------

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False}


def parse_config_file(path) -> TrainConfig:
    """Flat key=value file; every key must be a TrainConfig field."""
    text = read_text(path)
    known = {f.name: f.type for f in TrainConfig.__dataclass_fields__.values()}
    defaults = TrainConfig()
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        current = getattr(defaults, key)
        try:
            if isinstance(current, bool):
                values[key] = _BOOL_STRINGS[raw.lower()]
            elif isinstance(current, int):
                values[key] = int(raw)
            elif isinstance(current, float):
                values[key] = float(raw)
            else:
                values[key] = raw
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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, command: str, config: dict, seed: int, inputs, outputs):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


# -- subcommands ------------------------------------------------------------

def cmd_corrupt(args) -> int:
    try:
        scorer_cfg = generation.CleanScorerConfig(
            hidden=args.scorer_hidden, epochs=args.scorer_epochs,
            lr=args.scorer_lr, clamp=args.scorer_clamp, seed=args.seed)
    except ValueError as exc:  # each message opens with the field, e.g. "lr must ..."
        raise UsageError(f"--scorer-{exc}") from None
    ds = load_dataset(args.data, args.format)
    if args.mode == "uniform":
        if args.p is None:
            raise UsageError("--p is required for --mode uniform")
        if not (0.0 < args.p < 1.0):
            raise UsageError(f"--p must lie strictly inside (0, 1), got {args.p}")
        corrupted, report = generation.corrupt_uniform(ds, args.p, args.seed)
    else:
        scores, _ = generation.train_clean_scorer(ds, scorer_cfg)
        corrupted, report = generation.corrupt_instance_dependent(
            ds, scores, args.seed, scorer_params=asdict(scorer_cfg))
    write_dataset(corrupted, args.out, args.format)
    write_sidecar(args.out, report.to_metadata())
    print(f"wrote {args.out} (avg |S| = {report.avg_set_size:.3f})")
    return EXIT_OK


def cmd_train(args) -> int:
    config = parse_config_file(args.config) if args.config else TrainConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.ml_only:
        config = replace(config, ml_only=True)
    ds = load_dataset(args.data, args.format)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net_f, net_g, history = trainer.fit(config, ds)
    model_path = out_dir / "model.bin"
    history_path = out_dir / "history.jsonl"
    save_model(model_path, net_f, net_g, config.transform_config)
    with history_path.open("w") as fh:
        for record in history:
            fh.write(json.dumps(record) + "\n")
    inputs = [args.data] + ([args.config] if args.config else [])
    write_manifest(out_dir / "manifest.json", "train", asdict(config),
                   config.seed, inputs, [model_path, history_path])
    final = history[-1] if history else {}
    print(f"trained {config.epochs} epochs; final loss "
          f"{final.get('train_loss', float('nan')):.6f}, "
          f"val acc {final.get('val_acc')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    net_f, _, tc = load_model(args.model)
    ds = load_dataset(args.data, args.format)
    if net_f.out_dim != ds.c:
        raise DataInvariantError(
            f"model predicts {net_f.out_dim} classes, dataset has {ds.c}"
        )
    acc = evaluation.accuracy(net_f, ds, tc)
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
        fh.write("x,y,series\n")
        for x, y, series in rows:
            fh.write(f"{x},{y},{series}\n")


def cmd_report(args) -> int:
    if sum(map(bool, (args.history, args.merge, args.sweep_a or args.sweep_gamma))) != 1:
        raise UsageError("report needs exactly one of --history, --merge "
                         "or a sweep spec")
    if args.history:
        rows = []
        for hist_path in args.history:
            series = Path(hist_path).stem
            for lineno, line in enumerate(read_text(hist_path).splitlines(), 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    rows.append((rec["epoch"], rec["train_loss"], series))
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
        config = parse_config_file(args.config) if args.config else TrainConfig()
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        try:
            grid = [replace(config, a=a, gamma=gamma)
                    for gamma in _parse_grid(args.sweep_gamma, "--sweep-gamma")
                    for a in _parse_grid(args.sweep_a, "--sweep-a")]
        except ValueError as exc:
            raise UsageError(f"sensitivity sweep: {exc}") from None
        ds = load_dataset(args.data, args.format)
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
    p.add_argument("--format", default="text", choices=FORMATS)
    p.add_argument("--scorer-hidden", type=int, default=64)
    p.add_argument("--scorer-epochs", type=int, default=50)
    p.add_argument("--scorer-lr", type=float, default=0.1)
    p.add_argument("--scorer-clamp", type=float, default=20.0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("train", help="fit the two-network model")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ml-only", action="store_true",
                   help="drop the prior regularizer (ablation)")
    p.add_argument("--format", default="text", choices=FORMATS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a trained model on labelled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="idgp")
    p.add_argument("--format", default="text", choices=FORMATS)
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
    p.add_argument("--format", default="text", choices=FORMATS)
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
