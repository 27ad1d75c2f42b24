"""The benchmark's tracer still installs on the package as it stands.

``perfbench/tracing.py`` wraps package functions by name, so deleting or
renaming one of them breaks the traced benchmark and
``python3 -m pytest perfbench``, which take minutes.  These tests only
import ``perfbench/tracing.py`` and change nothing there.  They also guard
the attributes the benchmark reads: the prior cache's arrays, and the
``candidates`` view that ``dataset_io``'s check compares.
"""

from pathlib import Path

import numpy as np

from idgp import trainer
from idgp.generation import corrupt_uniform, make_clean_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the traced calls one training epoch makes, its batches and the snapshots
EPOCH_SPANS = {
    "trainer.train_epoch", "trainer.prior_refresh", "network.forward", "network.backward",
    "network.sgd_step", "distributions.floor_params", "distributions.clamp_z",
}


CONFIG = trainer.TrainConfig(epochs=1, batch_size=16, hidden=4, clamp=2.0, b=1.0, r=1, q=1)


def corrupted():
    """40 rows of three shifted blobs, corrupted uniformly."""
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, 40)
    ds, _ = corrupt_uniform(make_clean_dataset(rng.normal(size=(40, 2)) + y[:, None], y, 3),
                            0.3, 0)
    return ds


def test_tracing_wraps_and_restores_the_trainer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    state = trainer.init_state(CONFIG, corrupted())
    real = (trainer.clamp_z, trainer.sgd_step, trainer.substream)
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert trainer.clamp_z is not real[0]
        assert trainer.sgd_step is not real[1]
        assert trainer.substream is not real[2]
        trainer.train_epoch(state, 1)
    recorded = {tracer.names[i] for i in set(tracer.arrays()[0].tolist())}
    assert recorded == EPOCH_SPANS
    assert (trainer.clamp_z, trainer.sgd_step, trainer.substream) == real


def test_attributes_the_benchmark_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    ds = corrupted()
    assert tracing.prior_cache_mb(trainer.init_state(CONFIG, ds).cache) > 0
    assert "candidates" not in vars(ds)  # derived on first read
    assert ds.candidates == tuple(tuple(np.flatnonzero(row).tolist()) for row in ds.mask)
