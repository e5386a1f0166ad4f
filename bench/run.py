"""maskgram benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload train-c6 --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the `src/` directory beside
`bench/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: throughput, operation-time median
and p90, set-up time and peak RSS. --trace 1 runs `--seconds` as alternating
untraced and traced chunks, with every maskgram layer wrapped by `tracing` in
the traced ones, and reports the per-layer metrics plus the tracing overhead
of each end-to-end metric: the median over chunk pairs of traced minus
untraced.

BLAS runs on one thread: the variables below are set before numpy loads,
because the CLI workloads already use `--threads 2` on a two-core machine.
"""

import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up repeats until both hold; short set-ups get many repeats, so that a
# burst of machine noise a few hundred ms long does not move their median
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
TRACE_PAIRS = 4
# operations per chunk of a traced run; train-c6 needs 20 steps for its loss check
TRACED_MIN_OPS = {"train-c6": 20}

END_TO_END = (
    ("items_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# set-up runs untraced, so it has no tracing overhead
TRACED_END_TO_END = tuple(m for m in END_TO_END if m[0] != "setup_s")
# the names these metrics also go by on particular workloads (bench/README.md)
ALIASES = {
    ("train-c6", "items_per_s"): "train_examples_per_s",
    ("train-c6", "op_ms.p50"): "train_step_ms.p50",
    ("train-c6", "op_ms.p90"): "train_step_ms.p90",
    ("sample-batch.g0", "items_per_s"): "sample_grids_per_s.g0",
    ("sample-batch.g2", "items_per_s"): "sample_grids_per_s.g2",
    ("cli-sample", "items_per_s"): "cli_sample_grids_per_s",
    ("pipeline-c10", "op_ms.p50"): "pipeline_s, in ms",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_import_seconds() -> float:
    """Time to import maskgram's modules anew; numpy and the stdlib stay loaded.

    The modules of this process are put back afterwards, so the workloads keep
    using the ones they were set up with.
    """
    def ours(name: str) -> bool:
        return name == "maskgram" or name.startswith("maskgram.")

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    t0 = time.perf_counter()
    try:
        import maskgram.cli  # noqa: F401
        return time.perf_counter() - t0
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> tuple[str, object]:
    """OpenBLAS version string and thread count, asked of the loaded library."""
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = f"{config.get('name')} {config.get('version')}"
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return version, f"{os.environ['OPENBLAS_NUM_THREADS']} (from OPENBLAS_NUM_THREADS)"


def environment(args) -> dict:
    import numpy as np

    blas, blas_threads = blas_info()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": blas_threads, "commit": git_commit(),
    }


def end_to_end(phase, setup_s: float) -> dict[str, float]:
    ms = sorted(1000.0 * s for s in phase.op_seconds)
    return {
        "items_per_s": phase.items / sum(phase.op_seconds),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1
        else ms[0],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def print_end_to_end(workload, phase, values: dict[str, float]) -> None:
    n = len(phase.op_seconds)
    samples = {
        "items_per_s": f"{phase.items} {workload.item_label}(s) from passed ops, {n} ops",
        "op_ms.p50": f"n={n} ops", "op_ms.p90": f"n={n} ops, {n - int(0.9 * n)} beyond p90",
        "setup_s": "median of the set-ups above",
        "peak_rss_mb": "whole process",
    }
    for name, unit in END_TO_END:
        if name not in values:
            continue
        alias = ALIASES.get((workload.name, name), "")
        print(f"  {name:<12} {values[name]:>14.6g} {unit:<3} [{samples[name]}]"
              + (f"  = {alias}" if alias else ""))


def traced_run(workload, tracing, seconds: float):
    """Alternate untraced and traced chunks; returns (plain, traced) phases and the tracer.

    Alternating pairs, rather than one untraced half and one traced half, keep
    a drift in machine speed out of the overhead figures.
    """
    min_ops = TRACED_MIN_OPS.get(workload.name, 1)
    chunk = seconds / (2 * TRACE_PAIRS)
    tracer = tracing.Tracer()

    def measured(run_tracer=None):
        before = peak_rss_mb()
        phase = workload.run(chunk, min_ops, run_tracer)
        phase.rss_growth_mb = peak_rss_mb() - before
        return phase

    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(measured())
        with tracing.installed(tracer):
            traced.append(measured(tracer))
        tracer.op_base += len(traced[-1].op_seconds)
    return plain, traced, tracer


def tracing_overhead(plain, traced) -> dict[str, tuple[float, float]]:
    """Per metric: median over pairs of traced minus untraced, and the untraced range.

    Peak RSS only grows, so its chunk value is how far the peak grew during
    the chunk.
    """
    def values(phase):
        out = end_to_end(phase, 0.0)
        out["peak_rss_mb"] = phase.rss_growth_mb
        return out

    plain_v, traced_v = [values(p) for p in plain], [values(p) for p in traced]
    overhead = {}
    for name, _ in TRACED_END_TO_END:
        deltas = [t[name] - p[name] for p, t in zip(plain_v, traced_v)]
        noise = max(p[name] for p in plain_v) - min(p[name] for p in plain_v)
        overhead[name] = (statistics.median(deltas), noise)
    return overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maskgram" / "__init__.py").is_file():
        print(f"error: no maskgram sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import maskgram

    if Path(maskgram.__file__).resolve().parent != SRC / "maskgram":
        print(f"error: imported maskgram from {maskgram.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"{workload.name}: op = {workload.op_label}; item = {workload.item_label}")

    scratch = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
            gc.collect()
            t_import = fresh_import_seconds()
            t0 = time.perf_counter()
            workload.setup(args.seed, scratch / f"setup{len(setups)}")
            setups.append(t_import + time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        print(f"  set-up (maskgram import + set-up), {len(setups)} times: "
              + ", ".join(f"{t:.3f}" for t in setups) + " s")
        if args.trace == 0:
            phase = workload.run(args.seconds, workload.min_ops)
            values = end_to_end(phase, setup_s)
            phases = [phase]
            print_end_to_end(workload, phase, values)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        else:
            plain, traced, tracer = traced_run(workload, tracing, args.seconds)
            phases = plain + traced
            for label, chunks in (("untraced", plain), ("traced", traced)):
                merged = workloads.Phase.merge(chunks)
                values = end_to_end(merged, setup_s)
                del values["setup_s"], values["peak_rss_mb"]
                print(f"  {label} chunks ({TRACE_PAIRS} of them, alternating, "
                      f"{len(merged.op_seconds)} ops):")
                print_end_to_end(workload, merged, values)
            print(f"  {len(tracer.spans)} spans; set-up is not traced")
            n_traced = sum(len(p.op_seconds) for p in traced)
            layers = tracing.layer_metrics(tracer, n_traced)
            for name, (delta, noise) in tracing_overhead(plain, traced).items():
                unit = dict(END_TO_END)[name]
                layers[f"tracing.overhead.{name}"] = (delta, unit)
                verdict = "" if abs(delta) > noise else "  unresolved: within the untraced range"
                print(f"  tracing overhead {name:<12} {delta:+14.6g} {unit:<3} (median of "
                      f"{TRACE_PAIRS} pairs, traced - untraced; untraced chunks range "
                      f"{noise:.6g}){verdict}")
            print("  per layer (op = one operation above):")
            for name, (value, unit) in layers.items():
                print(f"    {name:<34} {value:>14.6g} {unit}")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = [e for phase in phases for e in phase.errors]
    attempted = sum(len(phase.op_seconds) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for error in errors:
        print(f"  check FAILED: {error}")
    print(f"  checks: {attempted - failed}/{attempted} operations passed")
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
