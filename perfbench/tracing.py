"""In-memory spans around the public functions of each ``idgp`` module.

:func:`instrument` replaces every function in :data:`TARGETS` with a
wrapper, in every ``idgp`` namespace that binds it by name (so the trainer's
``from .objective import ml_loss_batch`` is traced too), and on the class for
methods such as ``DenseNet.forward``.  Each call appends one span
``(name, parent, phase, start, end)``; the parent is the innermost traced
call still open.  Nothing inside ``src/`` changes: the wrappers are installed
from here and removed again on exit.

:func:`layer_metrics` turns the spans into the per-layer metrics listed in
``README.md``.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP, OP = 0, 1  # phases a span can belong to


class Tracer:
    """Append-only span store; ``phase`` is set by the benchmark."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.work = defaultdict(float)  # (phase, counter) -> amount
        self.phase = SETUP
        self.last_prior_cache = None  # set by the init_state wrapper
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        """Span-recording wrapper; ``work(tracer, args, result)`` adds counters."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.phase_of.append(self.phase)
            self.start.append(0.0)
            self.end.append(0.0)
            self._open.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open.pop()
                self.start[i] = t0
                self.end[i] = t1
            if work is not None:
                work(self, args, result)
            return result

        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        self.work[(self.phase, key)] += amount

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.phase_of, dtype=np.int8),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def self_times(self) -> np.ndarray:
        _, parent, _, start, end = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def save(self, path: Path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        name, parent, phase, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 phase=phase, start=start, end=end)


# -- what gets wrapped -------------------------------------------------------

def _dense_flops(net, rows: int) -> float:
    sizes = net.layer_sizes
    return 2.0 * rows * sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _forward_work(tracer, args, result):
    net, x = args[0], np.asarray(args[1])
    if x.ndim == 1:
        tracer.count("network.forward.single_calls")
    tracer.count("network.flop", _dense_flops(net, 1 if x.ndim == 1 else x.shape[0]))


def _backward_work(tracer, args, result):
    net, cache = args[0], args[1]
    rows = cache["inputs"][0].shape[0]
    first = 2.0 * rows * net.layer_sizes[0] * net.layer_sizes[1]
    # weight gradients for every layer, input gradients for all but the first
    tracer.count("network.flop", 2.0 * _dense_flops(net, rows) - first)


def _write_work(tracer, args, result):
    tracer.count("data.bytes_written", Path(args[1]).stat().st_size)


def _substream_work(tracer, args, result):
    if args[1] == "corrupt":
        tracer.count("generation.corrupt.substreams")


def _init_state_work(tracer, args, result):
    tracer.last_prior_cache = result.cache


# (span name, module, attribute, counter or None); "module:Class" names a method.
TARGETS = (
    ("network.forward", "idgp.network:DenseNet", "forward", _forward_work),
    ("network.backward", "idgp.network:DenseNet", "backward", _backward_work),
    ("network.sgd_step", "idgp.network", "sgd_step", None),
    ("network.lambda_transform", "idgp.network", "lambda_transform", None),
    ("network.lambda_transform_pair", "idgp.network", "lambda_transform_pair", None),
    ("network.lambda_transform_grad", "idgp.network", "lambda_transform_grad", None),
    ("distributions.dirichlet_posterior_mean", "idgp.distributions",
     "dirichlet_posterior_mean", None),
    ("distributions.beta_posterior_mean", "idgp.distributions",
     "beta_posterior_mean", None),
    ("distributions.dirichlet_posterior_mean_jacobian", "idgp.distributions",
     "dirichlet_posterior_mean_jacobian", None),
    ("distributions.beta_posterior_mean_grads", "idgp.distributions",
     "beta_posterior_mean_grads", None),
    ("distributions.floor_params", "idgp.distributions", "floor_params", None),
    ("distributions.clamp_z", "idgp.distributions", "clamp_z", None),
    ("objective.ml_loss_batch", "idgp.objective", "ml_loss_batch", None),
    ("objective.reg_loss_batch", "idgp.objective", "reg_loss_batch", None),
    ("objective.chain_to_lambda", "idgp.objective", "chain_to_lambda", None),
    ("objective.chain_to_alpha_beta", "idgp.objective", "chain_to_alpha_beta", None),
    ("objective.map_upper_bound_batch", "idgp.objective", "map_upper_bound_batch", None),
    ("objective.ml_loss", "idgp.objective", "ml_loss", None),
    ("objective.reg_loss", "idgp.objective", "reg_loss", None),
    ("objective.map_loss", "idgp.objective", "map_loss", None),
    ("trainer.fit", "idgp.trainer", "fit", None),
    ("trainer.train_epoch", "idgp.trainer", "train_epoch", None),
    ("trainer.init_state", "idgp.trainer", "init_state", _init_state_work),
    ("trainer.prior_refresh", "idgp.trainer:PriorCache", "refresh", None),
    ("trainer.val_accuracy", "idgp.trainer", "_maybe_accuracy", None),
    ("data.load_dataset", "idgp.data", "load_dataset", None),
    ("data.write_dataset", "idgp.data", "write_dataset", _write_work),
    ("data.validate", "idgp.data:PLLDataset", "__post_init__", None),
    ("data.subset", "idgp.data:PLLDataset", "subset", None),
    ("data.occurrence_matrix", "idgp.data:PLLDataset", "occurrence_matrix", None),
    ("generation.corrupt_uniform", "idgp.generation", "corrupt_uniform", None),
    ("generation.corrupt_instance_dependent", "idgp.generation",
     "corrupt_instance_dependent", None),
    ("generation.train_clean_scorer", "idgp.generation", "train_clean_scorer", None),
    ("evaluation.split", "idgp.evaluation", "split", None),
    ("cli.main", "idgp.cli", "main", None),
)
GRADCHECK_COMPONENTS = ("forward", "transform", "posterior_jacobians",
                        "ml_loss", "reg_loss", "map_loss")


def _counting(tracer, fn, work):
    """Counter-only wrapper, for calls too small to be worth a span."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        work(tracer, args, result)
        return result
    return counted


def _bind_everywhere(original, replacement, restore):
    """Rebind ``original`` to ``replacement`` in every idgp module namespace."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "idgp" or mod_name.startswith("idgp.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                restore.append((mod, attr, original))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the ``with`` block."""
    # every module must be loaded first, so that every by-name binding is seen
    modules = {owner: importlib.import_module(owner.partition(":")[0])
               for _, owner, _, _ in TARGETS}
    from idgp import gradcheck, rng

    restore = []
    try:
        for name, owner, attr, work in TARGETS:
            cls_name = owner.partition(":")[2]
            if cls_name:
                cls = getattr(modules[owner], cls_name)
                original = vars(cls)[attr]
                setattr(cls, attr, tracer.wrap(name, original, work))
                restore.append((cls, attr, original))
            else:
                original = getattr(modules[owner], attr)
                _bind_everywhere(original, tracer.wrap(name, original, work), restore)
        original = rng.substream
        _bind_everywhere(original, _counting(tracer, original, _substream_work), restore)
        for comp in GRADCHECK_COMPONENTS:
            original = gradcheck._CHECKS[comp]
            gradcheck._CHECKS[comp] = tracer.wrap(f"gradcheck.{comp}", original)
            restore.append((gradcheck._CHECKS, comp, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

# metric -> span names whose op-phase self time it sums, in ms per operation
SELF_MS = {
    "network.forward.self_ms": ("network.forward",),
    "network.backward.self_ms": ("network.backward",),
    "network.sgd_step.self_ms": ("network.sgd_step",),
    "network.transform.self_ms": ("network.lambda_transform",
                                  "network.lambda_transform_pair",
                                  "network.lambda_transform_grad"),
    "distributions.posterior_mean.self_ms": (
        "distributions.dirichlet_posterior_mean", "distributions.beta_posterior_mean",
        "distributions.dirichlet_posterior_mean_jacobian",
        "distributions.beta_posterior_mean_grads"),
    "distributions.floor_clamp.self_ms": ("distributions.floor_params",
                                          "distributions.clamp_z"),
    "objective.ml_loss_batch.self_ms": ("objective.ml_loss_batch",),
    "objective.reg_loss_batch.self_ms": ("objective.reg_loss_batch",),
    "objective.chain.self_ms": ("objective.chain_to_lambda",
                                "objective.chain_to_alpha_beta"),
    "objective.upper_bound.self_ms": ("objective.map_upper_bound_batch",),
    "trainer.train_epoch.self_ms": ("trainer.train_epoch",),
    "trainer.prior_refresh.self_ms": ("trainer.prior_refresh",),
    "trainer.val_accuracy.self_ms": ("trainer.val_accuracy",),
    "data.load_dataset.self_ms": ("data.load_dataset",),
    "data.write_dataset.self_ms": ("data.write_dataset",),
    "data.validate.self_ms": ("data.validate",),
    "data.occurrence_matrix.self_ms": ("data.occurrence_matrix",),
    "generation.corrupt.self_ms": ("generation.corrupt_uniform",
                                   "generation.corrupt_instance_dependent"),
    "cli.main.self_ms": ("cli.main",),
    **{f"gradcheck.{c}.self_ms": (f"gradcheck.{c}",) for c in GRADCHECK_COMPONENTS},
}
# metric -> span names whose set-up-phase self time it sums, in ms per set-up
SETUP_MS = {
    "generation.train_clean_scorer.setup_ms": ("generation.train_clean_scorer",),
    "generation.corrupt.setup_ms": ("generation.corrupt_uniform",
                                    "generation.corrupt_instance_dependent"),
    "evaluation.split.setup_ms": ("evaluation.split",),
    "data.subset.setup_ms": ("data.subset",),
    "data.occurrence_matrix.setup_ms": ("data.occurrence_matrix",),
    "data.validate.setup_ms": ("data.validate",),
}
# metric -> span names counted per batch of the training loop
PER_BATCH = {
    "network.forward.calls_per_batch": "network.forward",
    "distributions.posterior_mean.calls_per_batch": (
        "distributions.dirichlet_posterior_mean", "distributions.beta_posterior_mean"),
    "objective.ml_loss_batch.calls_per_batch": "objective.ml_loss_batch",
    "objective.reg_loss_batch.calls_per_batch": "objective.reg_loss_batch",
}
# metric -> op-phase work counter, per operation
PER_OP_COUNTERS = {
    "network.forward.single_calls": "network.forward.single_calls",
    "data.bytes_written": "data.bytes_written",
    "generation.corrupt.substreams": "generation.corrupt.substreams",
}
UNITS = {"_ms": "ms", "calls_per_batch": "count", "single_calls": "count",
         "bytes_written": "bytes", "substreams": "count", "loss_evals": "count",
         "map_loss.calls": "count", "us_per_call": "us", "gflop_per_epoch": "GFLOP",
         "prior_cache_mb": "MB", "trace.spans": "count"}


def metric_names():
    return (list(SELF_MS) + list(SETUP_MS) + list(PER_BATCH) + list(PER_OP_COUNTERS)
            + ["network.gflop_per_epoch", "objective.map_loss.calls",
               "objective.map_loss.us_per_call", "gradcheck.loss_evals",
               "trainer.prior_cache_mb", "trace.spans", "trace.overhead_ms"])


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def prior_cache_mb(cache) -> float:
    arrays = (cache.lambda_hat, cache.alpha_hat, cache.beta_hat, cache.mask,
              cache.lambda_snapshot, cache.alpha_snapshot, cache.beta_snapshot)
    return sum(a.nbytes for a in arrays if a is not None) / 1e6


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int, batch_ends) -> dict:
    """Per-layer metrics from the spans; ``batch_ends`` are batch-hook times.

    Op-phase quantities are per operation (an epoch on the fits, one
    ``corrupt`` command, one ``run_suite`` call); set-up ones per set-up.
    """
    name, parent, phase, start, end = tracer.arrays()
    self_t = tracer.self_times()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def select(names, in_phase):
        wanted = np.isin(name, [ids[n] for n in names if n in ids])
        return wanted & (phase == in_phase)

    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = 1e3 * float(self_t[select(names, OP)].sum()) / n_ops
    for metric, names in SETUP_MS.items():
        out[metric] = 1e3 * float(self_t[select(names, SETUP)].sum()) / n_setups

    # Batch calls: direct children of train_epoch that start no later than the
    # epoch's last batch hook (the epoch-r/q snapshot forwards come after it).
    hooks = np.sort(np.asarray(batch_ends, dtype=np.float64))
    n_batches = hooks.size
    epoch_id = ids.get("trainer.train_epoch", -1)
    in_epoch = (parent >= 0) & (phase == OP)
    in_epoch[in_epoch] = name[parent[in_epoch]] == epoch_id
    last = np.searchsorted(hooks, end[np.maximum(parent, 0)], side="right") - 1
    in_batch = in_epoch & (last >= 0)
    in_batch[in_batch] = hooks[last[in_batch]] >= start[in_batch]
    for metric, names in PER_BATCH.items():
        names = (names,) if isinstance(names, str) else names
        calls = int((select(names, OP) & in_batch).sum())
        out[metric] = calls / n_batches if n_batches else 0.0

    for metric, key in PER_OP_COUNTERS.items():
        out[metric] = tracer.work[(OP, key)] / n_ops
    out["network.gflop_per_epoch"] = tracer.work[(OP, "network.flop")] / 1e9 / n_ops

    map_calls = select(("objective.map_loss",), OP)
    out["objective.map_loss.calls"] = int(map_calls.sum()) / n_ops
    out["objective.map_loss.us_per_call"] = (
        1e6 * float((end - start)[map_calls].mean()) if map_calls.any() else 0.0)
    # loss evaluations made by the checks themselves, not nested ones
    from_check = np.zeros(name.size, dtype=bool)
    has_parent = parent >= 0
    check_ids = [ids[f"gradcheck.{c}"] for c in GRADCHECK_COMPONENTS
                 if f"gradcheck.{c}" in ids]
    from_check[has_parent] = np.isin(name[parent[has_parent]], check_ids)
    losses = select(("objective.ml_loss", "objective.reg_loss", "objective.map_loss"), OP)
    out["gradcheck.loss_evals"] = int((losses & from_check).sum()) / n_ops

    cache = tracer.last_prior_cache
    out["trainer.prior_cache_mb"] = prior_cache_mb(cache) if cache is not None else 0.0
    out["trace.spans"] = int((phase == OP).sum()) / n_ops
    return out
