"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned and been checked. Every input comes from
the workload seed. A check failure or an exception counts as a failed
operation, so a fast wrong answer does not pass.

- train-c6: `train_model` at the criterion-6 shape; one operation is one
  train step, timed from the metrics-log line `train_model` appends after it.
- sample-batch.g0 / sample-batch.g2: `sample_batch` over 200 held-out rows,
  8 steps, delta 8, gamma 0 or 2, on seeded initial weights (sampling cost
  does not depend on weight values).
- cli-sample: in-process `maskgram sample` with 16 beams and 2 threads at the
  CLI defaults, from a checkpoint of the CLI-default model.
- pipeline-c10: in-process `maskgram pipeline` at the criterion-10 arguments
  with 2 threads and a fresh output directory per invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import maskgram.cli
import maskgram.sampler
import maskgram.train
from maskgram.model import MaskedGridTransformer, ModelConfig
from maskgram.sampler import SamplerConfig
from maskgram.synthetic import SyntheticTaskSpec, bundle_for, make_dataset, make_example
from maskgram.train import TrainConfig, init_aux_params

TRAIN_EXAMPLES = 1600   # the criterion-6 training split
TRAIN_BATCH = 32
SAMPLE_ROWS = 200
HELD_OUT_START = 1600   # sampled rows come after the training indices
CLI_BEAMS = 16
THREADS = 2
PIPELINE_REPORT_KEYS = ("l_mask_tail", "masked_accuracy_valid", "exact_match_rate",
                        "fd_mfcc_like", "novelty_score_mean", "selection_hit_rate")
# criterion-10 pipeline arguments; seed, threads and output directory come per run
PIPELINE_ARGS = (
    "--rule", "deterministic-map", "--count", "40", "--length", "16", "--levels", "2",
    "--vocab-size", "16", "--clip-frames", "4", "--clip-dim", "8", "--s3d-frames", "6",
    "--s3d-dim", "4", "--target-frames", "5", "--target-dim", "8", "--n-classes", "4",
    "--hidden", "32", "--depth", "1", "--heads", "2", "--encoder-depth", "1",
    "--train-steps", "60", "--scav-steps", "40", "--batch-size", "8", "--warmup", "10",
    "--beams", "2", "--steps", "4", "--eval-count", "4", "--kernel-size", "8",
    "--n-scav", "8", "--h-scav", "8", "--scav-width", "16",
)


def sub_seed(seed: int, *labels) -> int:
    """A 31-bit seed derived from the workload seed and a label path."""
    digest = hashlib.sha256("/".join(map(str, (seed, *labels))).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`maskgram.cli.main` in this process; returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = maskgram.cli.main(argv)
    return code, err.getvalue()


def _describe(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


# -- output checks ------------------------------------------------------------------


def check_train_log(lines: list[str]) -> list[str]:
    """Every loss part finite; mean l_mask of the last 10 steps below step 0's.

    `lines` is the metrics log of `train_model`: a header, then one CSV row
    per step (step, l_mask, l_mse, l_cont, lr, accuracy).
    """
    errors = []
    l_mask = []
    for row in lines[1:]:
        fields = row.split(",")
        parts = [float(v) for v in fields[1:4]]
        if not all(math.isfinite(v) for v in parts):
            errors.append(f"step {fields[0]}: non-finite loss part {parts}")
        l_mask.append(parts[0])
    if len(l_mask) < 2:
        return errors + [f"only {len(l_mask)} train step(s) ran"]
    tail = statistics.fmean(l_mask[1:][-10:])
    if not tail < l_mask[0]:
        errors.append(f"l_mask did not fall: first step {l_mask[0]!r}, last steps {tail!r}")
    return errors


def check_grids(grids, rows: int, length: int, levels: int, vocab: int) -> list[str]:
    """`rows` complete grids of shape (length, levels) with tokens in [0, vocab)."""
    if len(grids) != rows:
        return [f"expected {rows} grids, got {len(grids)}"]
    errors = []
    for i, grid in enumerate(grids):
        tokens = np.asarray(grid.tokens)
        if tokens.shape != (length, levels):
            errors.append(f"grid {i}: shape {tokens.shape} != {(length, levels)}")
        elif tokens.min() < 0 or tokens.max() >= vocab:
            errors.append(f"grid {i}: token outside [0, {vocab}) or still masked")
    return errors


def check_beams(code: int, stderr: str, out: Path, beams: int) -> tuple[list[str], bytes]:
    """Exit 0 and exactly `beams` .cgram files; returns errors and their bytes."""
    if code != 0:
        return [f"sample exited {code}: {stderr.strip()}"], b""
    files = sorted(out.glob("beam_*.cgram"))
    data = b"".join(p.read_bytes() for p in files)
    if len(files) != beams:
        return [f"expected {beams} beam files, found {len(files)}"], data
    return [], data


def check_pipeline(code: int, stderr: str, out: Path) -> tuple[list[str], bytes]:
    """Exit 0 and the criterion-10 report keys; returns errors and report+grid bytes."""
    if code != 0:
        return [f"pipeline exited {code}: {stderr.strip()}"], b""
    report_path = out / "report.txt"
    if not report_path.is_file():
        return ["pipeline wrote no report.txt"], b""
    report = report_path.read_bytes()
    text = report.decode()
    errors = [f"report lacks {key}" for key in PIPELINE_REPORT_KEYS if f"{key}=" not in text]
    chosen = sorted((out / "chosen").glob("*.cgram"))
    if not chosen:
        errors.append("pipeline chose no grids")
    return errors, report + b"".join(p.read_bytes() for p in chosen)


def check_same(reference, data, what: str) -> list[str]:
    """Outputs of repeated operations on the same inputs must be identical."""
    return [] if reference == data else [f"{what} differ from the first operation's"]


# -- workloads ----------------------------------------------------------------------


@dataclass
class Phase:
    """One measured stretch of a workload."""

    op_seconds: list[float]
    items: int           # items of the operations that passed their checks
    failed: int
    errors: list[str] = field(default_factory=list)
    rss_growth_mb: float = 0.0

    @staticmethod
    def merge(phases: list[Phase]) -> Phase:
        return Phase([t for p in phases for t in p.op_seconds], sum(p.items for p in phases),
                     sum(p.failed for p in phases), [e for p in phases for e in p.errors],
                     sum(p.rss_growth_mb for p in phases))


def c6_task(seed: int) -> SyntheticTaskSpec:
    return SyntheticTaskSpec(rule="deterministic-map", length=32, levels=4, vocab_size=64,
                             n_classes=8, seed=seed)


def c6_model_config(task: SyntheticTaskSpec) -> ModelConfig:
    return ModelConfig(
        structure="seq2seq", spec=task.codebook_spec(), streams=task.stream_specs(),
        depth=1, hidden=96, heads=4, encoder_depth=1, aux_target_dim=task.target_dim,
        max_len=32, cond_max_len=16,
    )


class Workload:
    """Set-up plus a closed loop of timed operations."""

    name = ""
    op_label = ""
    item_label = ""
    items_per_op = 1
    min_ops = 2          # the same-bytes check needs a repeated operation
    reference = None     # output of the run's first operation

    def setup(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def discard(self, output) -> None:
        """Drop an operation's output after its check."""

    def same(self, data, what: str) -> list[str]:
        if self.reference is None:
            self.reference = data
            return []
        return check_same(self.reference, data, what)

    def run(self, seconds: float, min_ops: int, tracer=None) -> Phase:
        """Run operations until the next would likely end after `seconds`."""
        durations: list[float] = []
        errors: list[str] = []
        failed = 0
        start = perf_counter()
        while len(durations) < min_ops or (
            perf_counter() - start + statistics.median(durations) <= seconds
        ):
            if tracer is not None:
                tracer.op = tracer.op_base + len(durations)
            t0 = perf_counter()
            try:
                output = self.op()
            except Exception as exc:  # a failed operation; the loop goes on
                durations.append(perf_counter() - t0)
                problems = [_describe(exc)]
            else:
                durations.append(perf_counter() - t0)
                problems = self.check(output)
                self.discard(output)
            if problems:
                failed += 1
                errors += problems
        return Phase(durations, self.items_per_op * (len(durations) - failed), failed, errors)


class _Stop(Exception):
    """Raised from the metrics log to end `train_model` at the deadline."""


class _StepClock(list):
    """Metrics-log list for `train_model` that timestamps every appended line.

    `train_model` appends the header before its loop and one row after each
    step, so successive timestamps bound the steps.
    """

    def __init__(self, seconds: float, min_steps: int, tracer=None):
        super().__init__()
        self.stamps: list[float] = []
        self.seconds = seconds
        self.min_steps = min_steps
        self.tracer = tracer

    def append(self, line: str) -> None:
        super().append(line)
        self.stamps.append(perf_counter())
        steps = len(self.stamps) - 1
        if self.tracer is not None:
            self.tracer.op = self.tracer.op_base + steps
        if steps >= max(self.min_steps, 1):
            elapsed = self.stamps[-1] - self.stamps[0]
            if elapsed + statistics.median(self.step_seconds()) > self.seconds:
                raise _Stop

    def step_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


class TrainC6(Workload):
    name = "train-c6"
    op_label = "train step (seq2seq, hidden 96, B=32, 32x4 grid, D=64)"
    item_label = "training example"
    items_per_op = TRAIN_BATCH
    min_ops = 100        # at least 10 steps beyond p90

    def setup(self, seed: int, work: Path) -> None:
        task = c6_task(sub_seed(seed, "task"))
        self.examples = make_dataset(task, TRAIN_EXAMPLES)
        self.model_config = c6_model_config(task)
        self.init_seeds = (sub_seed(seed, "model"), sub_seed(seed, "aux"))
        # far more steps than a run reaches, so the learning rate stays near peak
        self.train_config = TrainConfig(steps=100_000, batch_size=TRAIN_BATCH, peak_lr=2.5e-3,
                                        warmup=100, seed=sub_seed(seed, "loop"))
        model, aux = self.fresh()
        maskgram.train.train_model(model, aux, self.examples, replace(self.train_config, steps=2))
        self.reference = None

    def fresh(self):
        """Model and auxiliary parameters at their seeded initial values."""
        model = MaskedGridTransformer(self.model_config, seed=self.init_seeds[0])
        return model, init_aux_params(self.model_config, self.init_seeds[1])

    def run(self, seconds: float, min_ops: int, tracer=None) -> Phase:
        model, aux = self.fresh()
        if tracer is not None:
            tracer.op = tracer.op_base
        clock = _StepClock(seconds, min_ops, tracer)
        errors = []
        try:
            maskgram.train.train_model(model, aux, self.examples, self.train_config, clock)
        except _Stop:
            pass
        except Exception as exc:
            errors.append(_describe(exc))
        lines = list(clock)
        errors += check_train_log(lines)
        if self.reference is None:
            self.reference = lines
        else:  # a later phase restarts from the same state: same losses, step by step
            common = min(len(lines), len(self.reference))
            errors += check_same(self.reference[:common], lines[:common], "loss logs")
        durations = clock.step_seconds()
        failed = min(len(errors), max(len(durations), 1))
        return Phase(durations, TRAIN_BATCH * max(len(durations) - failed, 0), failed, errors)


class SampleBatch(Workload):
    item_label = "grid"
    items_per_op = SAMPLE_ROWS

    def __init__(self, gamma: float):
        self.gamma = gamma
        self.name = f"sample-batch.g{gamma:g}"
        self.op_label = f"sample_batch call (B={SAMPLE_ROWS}, 8 steps, delta 8, gamma {gamma:g})"

    def setup(self, seed: int, work: Path) -> None:
        self.task = task = c6_task(sub_seed(seed, "task"))
        rows = [make_example(task, HELD_OUT_START + i) for i in range(SAMPLE_ROWS)]
        self.bundles = [bundle_for(e, task) for e in rows]
        self.model = MaskedGridTransformer(c6_model_config(task), seed=sub_seed(seed, "model"))
        self.config = SamplerConfig(n_steps=8, gamma=self.gamma, delta=8.0,
                                    seed=sub_seed(seed, "sampler"))
        self.seeds = [sub_seed(seed, "row", i) for i in range(SAMPLE_ROWS)]
        maskgram.sampler.sample_batch(self.model, self.bundles[:2], task.length,
                                      replace(self.config, n_steps=2), seeds=self.seeds[:2])
        self.reference = None

    def op(self):
        return maskgram.sampler.sample_batch(self.model, self.bundles, self.task.length,
                                             self.config, seeds=self.seeds)

    def check(self, grids) -> list[str]:
        task = self.task
        errors = check_grids(grids, SAMPLE_ROWS, task.length, task.levels, task.vocab_size)
        data = b"".join(np.ascontiguousarray(g.tokens, dtype="<i8").tobytes() for g in grids)
        return errors + self.same(data, "sampled grids")


def _cli_ok(argv: list[str]) -> None:
    code, err = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"maskgram {argv[0]} exited {code} in set-up: {err.strip()}")


class CliSample(Workload):
    name = "cli-sample"
    op_label = f"maskgram sample invocation ({CLI_BEAMS} beams, 32 steps, gamma 3, delta 8)"
    item_label = "beam written"
    items_per_op = CLI_BEAMS

    def setup(self, seed: int, work: Path) -> None:
        data, ckpt = work / "data", work / "model.ckpt"
        _cli_ok(["gen-data", "--rule", "deterministic-map", "--count", "40",
                 "--out", str(data), "--seed", str(sub_seed(seed, "data"))])
        # one step at warm-up learning rate 0 writes the seeded initial weights
        _cli_ok(["train", "--data", str(data), "--out", str(ckpt), "--steps", "1",
                 "--seed", str(sub_seed(seed, "model"))])
        self.argv = ["sample", "--ckpt", str(ckpt), "--data", str(data), "--split", "test",
                     "--index", str(sub_seed(seed, "index") % 4), "--threads", str(THREADS),
                     "--seed", str(sub_seed(seed, "sample"))]
        _cli_ok(self.argv + ["--beams", "2", "--steps", "2", "--out", str(work / "warm-up")])
        self.outputs = work / "out"
        self.count = 0
        self.reference = None

    def op(self):
        out = self.outputs / f"op{self.count}"
        self.count += 1
        code, err = run_cli(self.argv + ["--beams", str(CLI_BEAMS), "--out", str(out)])
        return code, err, out

    def check(self, output) -> list[str]:
        errors, data = check_beams(*output, CLI_BEAMS)
        return errors or self.same(data, "beam files")

    def discard(self, output) -> None:
        shutil.rmtree(output[2], ignore_errors=True)


class PipelineC10(Workload):
    name = "pipeline-c10"
    op_label = "maskgram pipeline invocation (criterion-10 arguments, 2 threads)"
    item_label = "pipeline invocation"

    def setup(self, seed: int, work: Path) -> None:
        self.seed = sub_seed(seed, "pipeline")
        self.outputs = work / "out"
        _cli_ok(self.argv(work / "warm-up") + ["--train-steps", "4", "--scav-steps", "4"])
        self.count = 0
        self.reference = None

    def argv(self, out: Path) -> list[str]:
        return ["pipeline", *PIPELINE_ARGS, "--seed", str(self.seed),
                "--threads", str(THREADS), "--out", str(out)]

    def op(self):
        out = self.outputs / f"op{self.count}"
        self.count += 1
        code, err = run_cli(self.argv(out))
        return code, err, out

    def check(self, output) -> list[str]:
        errors, data = check_pipeline(*output)
        return errors or self.same(data, "report.txt and chosen grids")

    def discard(self, output) -> None:
        shutil.rmtree(output[2], ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (TrainC6(), SampleBatch(0.0), SampleBatch(2.0), CliSample(),
                        PipelineC10())
}
