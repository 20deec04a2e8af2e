"""prostar benchmark: one workload per process, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/prostar`. With
`--trace 0` the run sets up several times (setup_s is the median), then
runs whole passes over the workload's fixed operation list, each pass in its
own seeded order, for at least S seconds and at least three passes, and
reports the end-to-end metrics. With `--trace 1` it sets up once under the
tracer, makes one plain pass, alternates plain and traced passes for S
seconds, sets up and makes one pass under tracemalloc, and reports the
per-layer metrics named in BENCHMARK.json together with the tracing
overhead. The last line of stdout is one JSON object; the full record of the
run (per-operation times, failures, environment, spans) goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("dilate-grid", "extend-grid", "scenario-recipes")
SETUP_REPEATS = 3  # input generation is timed this many times; the median counts
IMPORT_REPEATS = 3  # so is the import, each time in a fresh interpreter
MIN_PASSES = 3  # an untraced run makes at least this many passes

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import prostar, prostar.cli\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="prostar benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_prostar():
    """Import prostar from this checkout's src/, never from anywhere else."""
    if not (SRC / "prostar" / "__init__.py").is_file():
        raise SystemExit(f"bench: no prostar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prostar

    if Path(prostar.__file__).resolve().parent != (SRC / "prostar").resolve():
        raise SystemExit(f"bench: prostar imported from {prostar.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Import time of prostar in a fresh interpreter (median of IMPORT_REPEATS)."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def run_pass(ops, log: list, order=None) -> tuple[list[float], int, int]:
    """Time each operation, then check its output outside the timed region.

    `order` is the sequence of indices into `ops` to run (all of them, each
    once); by default the list order. Returns (times, failed, wrong) with
    `times[i]` the time of `ops[i]`: `failed` counts operations that raised
    or whose check failed; `wrong` counts only the latter.
    """
    gc.collect()
    times, failed, wrong = [0.0] * len(ops), 0, 0
    for i in range(len(ops)) if order is None else order:
        op = ops[i]
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as err:  # an operation the program refuses counts as failed
            times[i] = time.perf_counter() - start
            failed += 1
            log.append(f"{op.name}: raised {type(err).__name__}: {err}")
            continue
        times[i] = time.perf_counter() - start
        problems = op.check(out)
        del out
        if problems:
            failed += 1
            wrong += 1
            log.append(f"{op.name}: " + "; ".join(problems))
    return times, failed, wrong


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a weighted mean of the order statistics.

    The weights come from the Beta((n+1)/2, (n+1)/2) distribution. The
    sample median of a few dozen instance times follows the one instance at
    the middle rank, so that instance's own noise moves it in full; this
    estimate spreads the weight over the instances around the middle.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a = (n + 1) / 2.0
    grid = np.linspace(0.0, 1.0, 200_001)
    density = (grid * (1.0 - grid)) ** (a - 1.0)
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def throughput(passes) -> float:
    """Median over whole passes of operations per second in the pass."""
    return statistics.median(len(p[0]) / sum(p[0]) for p in passes)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads():
    """OpenBLAS's own thread count (left at the library default), if it says."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(args, setup, work_dir: Path, record: dict) -> dict:
    """The untraced run: end-to-end metrics."""
    imp = import_seconds()
    gen, ops = [], None
    for _ in range(SETUP_REPEATS):
        ops = None
        gc.collect()
        start = time.perf_counter()
        ops = setup(args.seed, work_dir)
        gen.append(time.perf_counter() - start)
    # Each pass runs the operations in its own order, drawn from the seed, so
    # that operations of like size are timed at moments spread over the run
    # and not all within the same few seconds of the host's speed. The first
    # pass also fills the caches the program keeps on its inputs; with at
    # least MIN_PASSES passes the medians below do not rest on it.
    log: list[str] = []
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        order = np.random.default_rng([args.seed, len(passes)]).permutation(len(ops))
        passes.append(run_pass(ops, log, order.tolist()))
    per_op = [statistics.median(p[0][i] for p in passes) for i in range(len(ops))]
    record.update(
        import_s=imp,
        generate_s=gen,
        operations=[op.name for op in ops],
        pass_times=[p[0] for p in passes],
        failures=log,
    )
    metrics = {
        "throughput": throughput(passes),
        "latency_p50_ms": 1000.0 * hd_median(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": imp + statistics.median(gen),
    }
    return _result(passes, metrics, record)


def trace(args, setup, work_dir: Path, record: dict) -> dict:
    """The traced run: per-layer metrics and the tracing overhead."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        ops = setup(args.seed, work_dir)
    # One plain pass fills the caches kept on the inputs; then plain and
    # traced passes alternate for the run's length. Only the first traced
    # pass feeds the per-layer metrics, so their counts never vary.
    log: list[str] = []
    start = time.perf_counter()
    warm = [run_pass(ops, log)]
    plain, traced = [], []
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(ops, log))
        with (Tracer() if traced else tracer).installed():
            traced.append(run_pass(ops, log))
    # Peaks come from one more set-up (which builds extend-grid's crossed
    # products) and one pass, both under tracemalloc.
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        with memory.installed():
            setup(args.seed, work_dir)
            in_memory = run_pass(ops, log)
    finally:
        tracemalloc.stop()

    summary, peaks = tracer.summary(), memory.summary()
    plain_rate, traced_rate = throughput(plain), throughput(traced)
    layer = {
        "tracing.overhead": plain_rate - traced_rate,
        "tracing.overhead_pct": 100.0 * (plain_rate - traced_rate) / plain_rate,
    }
    for name, fields in summary.items():
        for field, value in fields.items():
            layer[f"{name}.{field}"] = peaks[name][field] if field == "peak_mb" else value
    record.update(
        operations=[op.name for op in ops],
        pass_times={
            "warm-up": warm[0][0],
            "plain": [p[0] for p in plain],
            "traced": [p[0] for p in traced],
            "tracemalloc": in_memory[0],
        },
        failures=log,
        layers=layer,
        spans=tracer.spans(),
    )
    return _result(warm + plain + traced + [in_memory], layer, record)


def _result(passes, metrics: dict, record: dict) -> dict:
    failed = sum(p[1] for p in passes)
    wrong = sum(p[2] for p in passes)
    attempted = sum(len(p[0]) for p in passes)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_prostar()
    import workloads

    work_dir = BENCH / "tmp" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "environment": environment()}
    try:
        run = trace if args.trace else measure
        result = run(args, workloads.SETUPS[args.workload], work_dir, record)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    result["metrics"] = metrics
    record["result"] = result
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
