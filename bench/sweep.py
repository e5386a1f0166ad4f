"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/sweep.py --seeds 1-10 [--traced] [--out FILE]

It runs every workload of BENCHMARK.json. Each run is `bench/run.py
--workload W --seed S --seconds <run_seconds> --trace 0`, one after another. For every workload and metric this prints the
median, the quartiles (`statistics.quantiles(values, n=4)`), the spread
(interquartile range over the median) and the metric's bound from
BENCHMARK.json. `--out` also writes every run's result and the summary as
JSON, the form a BENCH_<n>.json record takes. `--traced` adds one traced run
per workload, on the first seed, to the record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    """The run's result line, its `env` line and its tracing-overhead lines."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    overhead = [line.strip() for line in lines if line.startswith("  tracing overhead")]
    return json.loads(lines[-1]), env, overhead


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true",
                        help="also record one traced run per workload")
    parser.add_argument("--out", help="write runs and summary as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "runs": {}, "summary": {},
              "traced": {}, "traced_overhead": {}}
    for name in names:
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            result, env, _ = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            record.setdefault("env", env)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
        record["runs"][name] = runs
        record["summary"][name] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = summarise(values)
            record["summary"][name][metric["name"]] = stats
            flag = ("  <-- ABOVE BOUND" if stats["spread"] > metric["bound"]
                    else "  <-- above bound/3" if stats["spread"] > metric["bound"] / 3 else "")
            print(f"  {metric['name']:<12} median {stats['median']:>12.6g} {metric['unit']:<3} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f} "
                  f"(bound {metric['bound']}; n={len(values)} runs){flag}", flush=True)
        if args.traced:
            result, _, overhead = run_once(name, seeds[0], spec["run_seconds"], 1)
            record["traced"][name] = result
            record["traced_overhead"][name] = overhead
            print(f"  traced run on seed {seeds[0]}: correct={result['correct']}", flush=True)
            for line in overhead:
                print(f"    {line}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
