"""Benchmark of the psed package: one workload per process, closed loop.

    python3 perfbench/run.py --workload ser32 --seed 1 --seconds 30 --trace 0

Runs whole blocks of the workload (a fixed, seeded set of operations)
until --seconds have passed, checks the outputs, and prints one JSON
object as the last line of stdout: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, at
reference speed (see README.md); with --trace 1 they are the per-layer
ones, from spans recorded around the package's public functions. A result
file with the machine's environment goes to perfbench/results/.
"""

import os

# BLAS and OpenMP are pinned to one thread before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Reference-kernel time, in ms, that every timing is scaled to (README.md).
REF_NOMINAL_MS = 2.6
# Setups measured per run: this process plus fresh child processes.
SETUP_SAMPLES = 5

END_TO_END = {
    "trials_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "model.instance_ms": "ms",
    "linear_detectors.weight_matrix_ms": "ms",
    "linear_detectors.detect_ms": "ms",
    "slicer.hard_slice_ms": "ms",
    "pipeline.sparse_transform_ms": "ms",
    "pipeline.self_ms": "ms",
    "pipeline.first_stage_errors": "count",
    "pipeline.errors_fixed": "count",
    "pipeline.errors_introduced": "count",
    "pipeline.flagged_trials": "count",
    "pipeline.fix_ratio": "1",
    "sparse_recovery.mmp_ls_ms": "ms",
    "sparse_recovery.mmp_lmmse_ms": "ms",
    "sparse_recovery.oracle_mmp_ms": "ms",
    "sparse_recovery.paths_explored": "count",
    "sparse_recovery.us_per_path": "us",
    "sparse_recovery.work_ratio": "1",
    "baselines.kbest_ms": "ms",
    "analysis.rip_constant_ms": "ms",
    "analysis.subsets_per_s": "1/s",
    "harness.sweep_ms_per_trial": "ms",
    "harness.self_ms_per_trial": "ms",
    "ref_kernel_ms": "ms",
    "raw_trials_per_s": "1/s",
    "tracing_overhead": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="measure one set-up and print it (used for the setup_s samples)")
    return p.parse_args(argv)


def environment(loadavg) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "platform": platform.platform(),
        "ref_nominal_ms": REF_NOMINAL_MS,
    }


def timed_blocks(wl, seed, seconds, ref_kernel_ms, tracer=None):
    """Whole blocks until `seconds` have passed (and wl.min_samples key-call timings).

    The reference kernel runs between blocks; a block is scaled by the mean
    of the kernel times on either side of it. With a tracer, even blocks are
    traced and odd blocks are not, which gives the tracing overhead.
    Returns the block records and the outputs of block 0.
    """
    probe = wl.latency_probe()
    refs = [ref_kernel_ms()]
    blocks = []
    first_key = None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(blocks) % 2 == 0
        inputs = wl.inputs(seed, len(blocks))
        probe.samples = []
        with tracer.installed(len(blocks)) if traced else probe.installed():
            t0 = perf_counter()
            block = wl.run_block(inputs)
            dt = perf_counter() - t0
        refs.append(ref_kernel_ms())
        if not blocks:
            first_key = block.key
        blocks.append({
            "seconds": dt,
            "ops": block.ops,
            "failed": block.failed,
            "ref_ms": (refs[-2] + refs[-1]) / 2,
            "traced": traced,
            "samples": [] if traced else probe.samples,
        })
        enough = len(blocks) >= 2 if tracer else sum(len(b["samples"]) for b in blocks) >= wl.min_samples
        if perf_counter() - start >= seconds and enough:
            return blocks, first_key


def speed_scale(wl, ref_ms: float) -> float:
    """Factor that brings a time measured next to `ref_ms` to reference speed."""
    return REF_NOMINAL_MS / ref_ms if wl.scale_to_reference else 1.0


def end_to_end(wl, blocks, setup_samples) -> dict:
    rate, samples = [], []
    for b in blocks:
        scale = speed_scale(wl, b["ref_ms"])
        rate.append(b["ops"] / (b["seconds"] * scale))
        samples += [1e3 * s * scale for s in b["samples"]]
    return {
        "trials_per_s": statistics.median(rate),
        "op_ms_p50": statistics.median(samples),
        "op_ms_p90": statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }


def child_setup(args) -> float:
    """One set-up in a fresh process: import, inputs and warm-up all paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    if not (ROOT / "src" / "psed" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'psed'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import psed  # noqa: F401

    import_s = perf_counter() - t0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    t0 = perf_counter()
    inputs = wl.inputs(args.seed, 0)
    wl.warm_up(inputs)
    setup_raw = import_s + perf_counter() - t0
    setup_s = setup_raw * speed_scale(wl, workloads.ref_kernel_ms(reps=5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw}))
        return 0

    RESULTS.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    blocks, first_key = timed_blocks(wl, args.seed, args.seconds, workloads.ref_kernel_ms, tracer)
    failures = wl.check(inputs, first_key, str(RESULTS))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        # Layers this workload does not reach are measured on a warm tiny
        # block of each other workload, in WORKLOADS order.
        others = [w.tiny() for w in workloads.WORKLOADS.values() if w is not wl]
        for tiny in others:
            tiny_inputs = tiny.inputs(args.seed, 0)
            tiny.warm_up(tiny_inputs)
            with tracer.installed(f"probe:{tiny.name}"):
                tiny.run_block(tiny_inputs)
        spans_path = RESULTS / f"{stem}.spans.jsonl"
        tracer.write(spans_path)
        spans = tracing.read_spans(spans_path)
        values = tracing.layer_metrics([s for s in spans if isinstance(s["block"], int)])
        for tiny in others:
            probed = tracing.layer_metrics([s for s in spans if s["block"] == f"probe:{tiny.name}"])
            values = {**probed, **values}
        untraced = [b for b in blocks if not b["traced"]]
        traced = [b for b in blocks if b["traced"]]

        def scaled_seconds(group):
            return statistics.median(b["seconds"] * speed_scale(wl, b["ref_ms"]) for b in group)

        values["ref_kernel_ms"] = statistics.median(b["ref_ms"] for b in blocks)
        values["raw_trials_per_s"] = statistics.median(b["ops"] / b["seconds"] for b in untraced)
        values["tracing_overhead"] = scaled_seconds(traced) / scaled_seconds(untraced) - 1
        units = PER_LAYER
        setup_samples = []
    else:
        setup_samples = [setup_s] + [child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        values = end_to_end(wl, blocks, setup_samples)
        units = END_TO_END

    missing = [k for k in units if k not in values]
    failures += [f"metric {k} was not measured" for k in missing]
    result = {
        "correct": not failures,
        "attempted": sum(b["ops"] for b in blocks),
        "failed": sum(b["failed"] for b in blocks),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    record = {
        "args": vars(args),
        "environment": environment(loadavg),
        "result": result,
        "check_failures": failures,
        "setup_samples_s": setup_samples,
        "blocks": [{**b, "samples": len(b["samples"])} for b in blocks],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for msg in failures:
        print(f"perfbench: CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
