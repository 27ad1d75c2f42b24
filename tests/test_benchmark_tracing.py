"""The benchmark's tracer still installs on the package as it stands.

``perfbench/tracing.py`` wraps package functions by name, so deleting or
renaming one of them breaks the traced benchmark and
``python3 -m pytest perfbench``, which take minutes.  This test only
imports ``perfbench/tracing.py`` and changes nothing there.
"""

from pathlib import Path

import numpy as np

from idgp import trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracing_wraps_and_restores_the_trainer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    real = (trainer.ml_loss_batch, trainer.substream)
    with tracing.instrument(tracing.Tracer()) as tracer:
        assert trainer.ml_loss_batch is not real[0]
        assert trainer.substream is not real[1]
        trainer.ml_loss_batch(np.full((1, 2), 0.5), np.full((1, 2), 0.5),
                              np.array([[1.0, 0.0]]))
    assert "objective.ml_loss_batch" in tracer.names
    assert (trainer.ml_loss_batch, trainer.substream) == real
