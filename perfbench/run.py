"""Run one idgp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload blobs_fit --seed 1 --seconds 22 --trace 0

Workloads: blobs_fit, wide_fit, dataset_io, gradcheck (see README.md).  The
package is imported from ``src/`` next to this directory, in a process
whose BLAS pools are pinned to one thread before numpy loads.

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` runs operations untraced for half of ``--seconds``,
then runs the same operations again with every layer wrapped
(``tracing.py``), prints the per-layer metrics and the tracing overhead,
and writes the spans to ``perfbench/traces/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("blobs_fit", "wide_fit", "dataset_io", "gradcheck")
IMPORT_REPEATS = 9  # a fresh interpreter's import time varies most
SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "items_per_s": "1/s",
              "peak_rss_mb": "MB"}
# what a fresh process imports before its first operation
IMPORT_STATEMENT = ("import sys; sys.path.insert(0, sys.argv[1]); "
                    "import idgp, idgp.cli, idgp.gradcheck")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": len(os.sched_getaffinity(0)),
            **{var: os.environ[var] for var in THREAD_VARS}}


def tail(samples):
    """Highest-percentile sample with at least ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None, None
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_between_refs(fn, repeats):
    """Wall times of ``repeats`` calls, with the reference task around each.

    Returns ``(seconds, ref_ms)``: ``ref_ms[i]`` is the mean reference time
    just before and just after call i.
    """
    seconds, refs = [], [calibration.reference_ms()]
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        seconds.append(perf_counter() - t0)
        refs.append(calibration.reference_ms())
    return seconds, [(a + b) / 2.0 for a, b in zip(refs, refs[1:])]


def import_once():
    """Start a fresh interpreter that imports the package, and wait for it."""
    subprocess.run([sys.executable, "-c", IMPORT_STATEMENT, str(SRC)], check=True)


def measure(wl, seconds=None, count=None, context=contextlib.nullcontext):
    """Run operations for ``seconds`` (at least one) or exactly ``count`` of them.

    Garbage from the previous operation is collected before each one, and
    each output is checked outside the timed region.  The reference task
    runs before each operation and after the last; an operation's
    ``ref_ms`` is the mean of the two around it.  With ``seconds``, an
    operation is not started when it would likely end past the deadline.
    Returns the completed operations, one line per failed operation and the
    number attempted; an operation that raises ends the measurement.
    """
    ops, failures = [], []
    deadline = perf_counter() + (seconds or 0.0)
    ref_before = calibration.reference_ms()
    while True:
        gc.collect()
        try:
            with context():
                op = wl.op(len(ops))
        except Exception as exc:
            failures.append(f"op {len(ops)} raised {exc!r}")
            return ops, failures, len(ops) + 1
        ref_after = calibration.reference_ms()
        op.ref_ms = (ref_before + ref_after) / 2.0
        ref_before = ref_after
        ops.append(op)
        try:
            problems = wl.check(op)
        except Exception as exc:  # an output that cannot be checked is wrong
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(f"op {len(ops) - 1}: " + "; ".join(problems))
        if count is not None:
            done = len(ops) >= count
        else:
            done = perf_counter() + statistics.median(o.seconds for o in ops) > deadline
        if done:
            return ops, failures, len(ops)


def scaled_median(seconds, refs, scaled=True):
    return statistics.median(calibration.scale(s, r) if scaled else s
                             for s, r in zip(seconds, refs))


def op_ms_p50(ops, scaled=True):
    samples = [(s, op.ref_ms) for op in ops for s in op.samples]
    return 1e3 * scaled_median(*zip(*samples), scaled=scaled)


def items_per_s(ops, scaled=True):
    return ops[0].items / scaled_median([op.seconds for op in ops],
                                        [op.ref_ms for op in ops], scaled=scaled)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "idgp" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    print("env " + json.dumps(environment(), sort_keys=True))
    work_root = BENCH_DIR / "work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        wl = workloads.make(args.workload, Path(workdir))
        tracer = tracing.Tracer() if args.trace else None

        def setup():
            with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
                wl.setup(args.seed)

        # set-up = a fresh process importing the package + building the inputs
        imports = timed_between_refs(import_once, IMPORT_REPEATS)
        setups = timed_between_refs(setup, SETUP_REPEATS)

        plain = []
        if tracer is None:
            ops, failures, attempted = measure(wl, seconds=args.seconds)
        else:
            # the same operations twice: plain, then traced, for the overhead
            plain, failures, attempted = measure(wl, seconds=args.seconds / 2)
            tracer.phase = tracing.OP
            ops, traced_failures, traced_attempted = measure(
                wl, count=len(plain), context=lambda: tracing.instrument(tracer))
            failures += traced_failures
            attempted += traced_attempted

    for line in failures:
        print(f"FAILED {line}")
    if not ops or (tracer and not plain):
        print("error: no operation completed", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops "
          f"({workloads.OP_UNITS[args.workload]} samples: "
          f"{sum(len(op.samples) for op in ops)}), {len(failures)} failed")
    print("report " + json.dumps(wl.report(), sort_keys=True))

    if tracer is None:
        samples = [s for op in ops for s in op.samples]
        value, pct = tail(samples)
        if value is not None:
            print(f"tail op_ms p{pct:.1f} = {1e3 * value:.3f} ms "
                  f"(n={len(samples)}, 10 beyond, unscaled)")
        print("unscaled " + json.dumps({
            "setup_s": scaled_median(*imports, scaled=False)
            + scaled_median(*setups, scaled=False),
            "op_ms_p50": op_ms_p50(ops, scaled=False),
            "items_per_s": items_per_s(ops, scaled=False),
            "ref_ms_setup": statistics.median(imports[1] + setups[1]),
            "ref_ms_ops": statistics.median(op.ref_ms for op in ops)}))
        metrics = {
            "setup_s": scaled_median(*imports) + scaled_median(*setups),
            "op_ms_p50": op_ms_p50(ops),
            "items_per_s": items_per_s(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        n_ops = sum(len(op.samples) for op in ops)
        hooks = [t for op in ops for t in op.hooks]
        metrics = tracing.layer_metrics(tracer, n_ops, SETUP_REPEATS, hooks)
        metrics["trace.overhead_ms"] = op_ms_p50(ops) - op_ms_p50(plain)
        units = {name: tracing.unit_of(name) for name in metrics}
        out = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.npz"
        tracer.save(out)
        print(f"spans: {len(tracer.start)} written to {out}")

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
