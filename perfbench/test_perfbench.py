"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

Each traced run here is a real ``run.py`` process with a short
``--seconds``, so the whole file takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

COUNTS = ("network.forward.calls_per_batch", "distributions.posterior_mean.calls_per_batch",
          "objective.ml_loss_batch.calls_per_batch", "objective.reg_loss_batch.calls_per_batch",
          "network.forward.single_calls", "network.gflop_per_epoch",
          "objective.map_loss.calls", "gradcheck.loss_evals", "data.bytes_written",
          "generation.corrupt.substreams", "trainer.prior_cache_mb", "trace.spans")


def run(workload, trace, seconds=1, seed=3, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd)
    return proc


def result(workload, trace, **kwargs):
    proc = run(workload, trace, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(res):
    return {name: m["value"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", ["blobs_fit", "wide_fit", "dataset_io", "gradcheck"])
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert first["correct"] and second["correct"]
    a, b = values(first), values(second)
    assert set(a) == set(tracing.metric_names())
    for name in COUNTS:
        assert a[name] == b[name], name
    if workload.endswith("_fit"):
        # the code as it stands: 6 forwards, 2+2 posterior means, 2 ml and
        # 2 reg losses per batch on the full objective
        assert a["network.forward.calls_per_batch"] == 6
        assert a["distributions.posterior_mean.calls_per_batch"] == 4
        assert a["objective.ml_loss_batch.calls_per_batch"] == 2
        assert a["objective.reg_loss_batch.calls_per_batch"] == 2
    else:
        assert a["network.forward.calls_per_batch"] == 0
    if workload == "dataset_io":
        assert a["generation.corrupt.substreams"] == 20000
        assert a["network.gflop_per_epoch"] == 0
    if workload == "gradcheck":
        assert a["objective.map_loss.calls"] > 0 and a["gradcheck.loss_evals"] > 0


def test_end_to_end_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = result("gradcheck", 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in res["metrics"].values())
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == {n: tracing.unit_of(n) for n in tracing.metric_names()}


def test_instrument_restores_every_binding():
    import idgp
    from idgp import gradcheck, network, trainer

    before = (trainer.ml_loss_batch, network.DenseNet.forward, idgp.fit,
              dict(gradcheck._CHECKS), trainer.substream)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert trainer.ml_loss_batch is not before[0]
        assert idgp.fit is trainer.fit
    after = (trainer.ml_loss_batch, network.DenseNet.forward, idgp.fit,
             dict(gradcheck._CHECKS), trainer.substream)
    assert after == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()

    def inner():
        sum(range(20000))

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    _, parent, _, start, end = tracer.arrays()
    assert list(parent) == [-1, 0, 0]
    self_t = tracer.self_times()
    dur = end - start
    assert self_t[0] == pytest.approx(dur[0] - dur[1] - dur[2])


def test_without_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("blobs_fit", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
