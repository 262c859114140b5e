"""Benchmark of fireflynet's training and recall paths.

    python3 benchmarks/run.py --workload denoise-5x5 --seed 0 --seconds 50 --trace 0

Runs one workload in this process, one op at a time (a closed loop with
one caller), for --seconds of wall time and at least the ops its output
digest covers, in whole rounds of the workload's ops, with a fixed
reference loop timed before the first round and after each one.  BLAS is
pinned to one thread.  Every op's output is checked, and a failed check
counts the op as failed.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`, which holds the
end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  The lines above it print the end-to-end figures, the
throughput and median that are not in `metrics` among them (the traced
run's too, so the tracing overhead shows), and the output digest.  See
README.md for the metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("digits-11x11", "denoise-5x5", "recall-11x11")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_FAULT_LINES = 10


def run(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, started: float
) -> tuple[dict, list[str]]:
    """One benchmark run.  Returns the result object and the summary lines.

    `started` is when the process began its work: setup_s runs from it,
    through the imports, to the first timed op, with the median of
    SETUP_REPEATS set-ups in place of a single one.
    """
    import tracing
    import workloads
    from reference import make_reference_loop

    wl = workloads.WORKLOADS[workload](seed)
    reference_loop = make_reference_loop(wl.config.n)
    tracer = tracing.Tracer() if trace else None
    imported = time.perf_counter()
    with tracer.installed() if tracer is not None else nullcontext():
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(out_dir)
            setups.append(time.perf_counter() - t0)
        setup_s = (imported - started) + statistics.median(setups)

        digest = hashlib.sha256()
        durations = array("d")  # 8 bytes an op, so peak RSS barely grows with the op count
        references = [reference_loop()]  # one before the first round, one after each
        k = 0
        failed = 0
        fault_lines: list[str] = []
        loop_start = time.perf_counter()
        while k < wl.digest_ops or k % wl.round_ops or time.perf_counter() - loop_start < seconds:
            inputs = wl.prepare(k)
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            result = wl.op(inputs)
            durations.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.op = -1
            faults = wl.check(inputs, result)
            if faults:
                failed += 1
                fault_lines.extend(f"op {k}: {f}" for f in faults)
            if k < wl.digest_ops:
                wl.feed(digest, result)
            k += 1
            if k % wl.round_ops == 0:
                references.append(reference_loop())
        # read before the summary sorts the durations into Python floats
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run_faults = wl.run_faults()

    ops = k
    busy = sum(durations)
    ops_per_s = ops / busy
    op_ms_p50 = 1e3 * statistics.median(durations)
    ref_ms = 1e3 * statistics.fmean(references)
    # mean op time in mean reference-loop times, both over the same window
    op_time_norm = (busy / ops) / statistics.fmean(references)
    lines = [
        f"workload {workload} seed {seed} trace {int(trace)}: {ops} ops, {busy:.3f} s inside ops",
        f"setup_s {setup_s:.6f} s",
        f"op_time_norm {op_time_norm:.6f} ref",
        f"ops_per_s {ops_per_s:.6f} ops/s",
        f"op_ms_p50 {op_ms_p50:.6f} ms",
        f"ref_ms {ref_ms:.6f} ms over {len(references)} reference loops",
    ]
    if ops >= 1000:  # a 99th percentile with at least ten samples above it
        p99 = statistics.quantiles(durations, n=100, method="inclusive")[98]
        lines.append(f"op_ms_p99 {1e3 * p99:.6f} ms")
    lines += [
        f"peak_rss_mb {peak_rss_mb:.3f} MB",
        f"attempted {ops} failed {failed}",
        f"digest sha256:{digest.hexdigest()} over the first {wl.digest_ops} ops",
    ]
    lines += fault_lines[:MAX_FAULT_LINES]
    lines += [f"run check failed: {f}" for f in run_faults]

    if tracer is not None:
        path = out_dir / f"trace-{workload}-seed{seed}.csv"
        tracer.write_csv(path)
        lines.append(f"trace {tracer.spans} spans -> {path}")
        metrics = tracer.layer_metrics(ops)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_time_norm": {"value": op_time_norm, "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not run_faults, "attempted": ops, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fireflynet" / "__init__.py").is_file():
        print(f"benchmark: no fireflynet sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # read by BLAS when numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR, _STARTED)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
