"""Tests of the benchmark itself: output checks, tracing wrappers, cost model.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracing
import workloads
from maskgram import autodiff as ad
from maskgram.train import METRICS_HEADER

ROOT = Path(__file__).resolve().parents[2]


# -- output checks reject corrupted outputs ---------------------------------------------


def _train_log(l_mask):
    return [METRICS_HEADER] + [f"{i},{v!r},0.5,0.25,0.001,0.5" for i, v in enumerate(l_mask)]


def test_train_check_accepts_falling_loss():
    assert workloads.check_train_log(_train_log([4.2, 3.9, 3.5, 3.1])) == []


def test_train_check_rejects_non_finite_part():
    lines = _train_log([4.2, 3.9, 3.5])
    lines[2] = lines[2].replace("0.5,0.25", "nan,0.25")
    assert workloads.check_train_log(lines)


def test_train_check_rejects_loss_that_does_not_fall():
    assert workloads.check_train_log(_train_log([4.2, 4.3, 4.4, 4.5]))


def _grids(tokens):
    return [SimpleNamespace(tokens=t) for t in tokens]


def test_grid_check_rejects_masked_and_out_of_range_tokens():
    good = np.zeros((4, 2), dtype=np.int64)
    assert workloads.check_grids(_grids([good, good]), 2, 4, 2, 16) == []
    masked = good.copy()
    masked[1, 1] = 16  # the mask sentinel, one past the vocabulary
    assert workloads.check_grids(_grids([good, masked]), 2, 4, 2, 16)
    negative = good.copy()
    negative[0, 0] = -1
    assert workloads.check_grids(_grids([negative, good]), 2, 4, 2, 16)
    assert workloads.check_grids(_grids([good, good[:3]]), 2, 4, 2, 16)
    assert workloads.check_grids(_grids([good]), 2, 4, 2, 16)


def test_same_check_rejects_one_flipped_byte():
    data = bytes(range(64))
    assert workloads.check_same(data, data, "grids") == []
    flipped = bytearray(data)
    flipped[10] ^= 1
    assert workloads.check_same(data, bytes(flipped), "grids")


def test_beam_check_rejects_exit_code_and_missing_beam(tmp_path):
    for beam in range(3):
        (tmp_path / f"beam_{beam:03d}.cgram").write_bytes(bytes([beam]) * 8)
    errors, data = workloads.check_beams(0, "", tmp_path, 3)
    assert errors == [] and len(data) == 24
    assert workloads.check_beams(4, "error (validation): bad", tmp_path, 3)[0]
    (tmp_path / "beam_002.cgram").unlink()
    assert workloads.check_beams(0, "", tmp_path, 3)[0]


def test_pipeline_check_rejects_exit_code_and_missing_report_key(tmp_path):
    report = "".join(f"{key}=0.5\n" for key in workloads.PIPELINE_REPORT_KEYS)
    (tmp_path / "report.txt").write_text(report)
    (tmp_path / "chosen").mkdir()
    (tmp_path / "chosen" / "chosen_00000.cgram").write_bytes(b"grid")
    errors, data = workloads.check_pipeline(0, "", tmp_path)
    assert errors == [] and data == report.encode() + b"grid"
    assert workloads.check_pipeline(3, "error (io): gone", tmp_path)[0]
    (tmp_path / "report.txt").write_text(report.replace("fd_mfcc_like=", "fd="))
    assert workloads.check_pipeline(0, "", tmp_path)[0]


class _Flaky(workloads.Workload):
    """Every second operation fails its check."""

    items_per_op = 10

    def __init__(self):
        self.count = 0

    def op(self):
        self.count += 1
        return self.count

    def check(self, output):
        return [] if output % 2 else [f"operation {output} is wrong"]


def test_failed_operations_add_no_items():
    phase = _Flaky().run(0.0, 4)
    assert len(phase.op_seconds) == 4 and phase.failed == 2
    assert phase.items == 20 and len(phase.errors) == 2


# -- set-up and tracing overhead -------------------------------------------------------


def test_fresh_import_puts_the_modules_back():
    import maskgram.cli

    before = {n: m for n, m in sys.modules.items() if n.startswith("maskgram")}
    assert run.fresh_import_seconds() > 0
    after = {n: m for n, m in sys.modules.items() if n.startswith("maskgram")}
    assert after.keys() == before.keys()
    assert all(after[n] is before[n] for n in before)
    assert sys.modules["maskgram.cli"] is maskgram.cli


def test_tracing_overhead_is_the_median_over_pairs():
    def phase(*seconds, rss=0.0):
        return workloads.Phase(list(seconds), len(seconds), 0, [], rss)

    plain = [phase(1.0, 1.0), phase(2.0, 2.0), phase(1.5, 1.5)]
    traced = [phase(1.1, 1.1, rss=2.0), phase(2.4, 2.4, rss=1.0), phase(1.8, 1.8, rss=1.0)]
    overhead = run.tracing_overhead(plain, traced)
    delta, noise = overhead["op_ms.p50"]
    assert delta == pytest.approx(300.0) and noise == pytest.approx(1000.0)
    assert overhead["peak_rss_mb"] == pytest.approx((1.0, 0.0))


# -- rebinding wrappers ---------------------------------------------------------------


def _bindings():
    """Every attribute of every loaded maskgram module and of the wrapped classes."""
    from maskgram.model import MaskedGridTransformer
    from maskgram.train import AdamW

    owners = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "maskgram" or n.startswith("maskgram."))]
    owners += [ad.Tensor, MaskedGridTransformer, AdamW]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_are_installed_and_then_restored():
    import maskgram.cli
    import maskgram.sampler

    before = _bindings()
    matmul, sample_batch = ad.matmul, maskgram.sampler.sample_batch
    with tracing.installed(tracing.Tracer()):
        assert ad.matmul is not matmul
        # a `from ... import` binding is rebound in the importing module too
        assert maskgram.cli.sample_batch is maskgram.sampler.sample_batch
        assert maskgram.cli.sample_batch is not sample_batch
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_are_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_graph_gives_the_same_values_and_gradients():
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))

    def grads():
        wt = ad.Tensor(w, requires_grad=True)
        loss = ad.tsum(ad.softmax(ad.matmul(ad.Tensor(x), wt)) * 2.0)
        loss.backward()
        return loss.data, wt.grad

    plain = grads()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = grads()
    assert plain[0] == traced[0]
    assert np.array_equal(plain[1], traced[1])
    names = {span[1] for span in tracer.spans}
    assert {"autodiff.matmul.fwd", "autodiff.matmul.vjp", "autodiff.backward"} <= names


# -- computed matmul cost --------------------------------------------------------------


def test_matmul_cost_matches_hand_count():
    # (2,3) @ (3,4): 2*3*4 multiply-adds; 6 + 12 + 8 float64 values moved
    assert tracing.matmul_cost((2, 3), (3, 4)) == (48, 208)
    # (5,2,3) @ (3,4) broadcasts the right operand over 5 batch entries
    assert tracing.matmul_cost((5, 2, 3), (3, 4)) == (240, 8 * (30 + 12 + 40))


def test_traced_matmul_counts_forward_and_one_gemm_per_gradient():
    a = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    b = ad.Tensor(np.ones((3, 4)))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        ad.tsum(ad.matmul(a, b)).backward()
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["autodiff.matmul.flop"][0] == 48 + 48
    assert metrics["autodiff.matmul.bytes"][0] == 208 + 208
    assert metrics["autodiff.matmul.calls"][0] == 1


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, "autodiff.backward", 0.0, 0.010, 0, 0),
        (2, "autodiff.matmul.vjp", 0.001, 0.005, 1, 0),
        (3, "autodiff.add.vjp", 0.006, 0.007, 1, 0),
    ]
    metrics = tracing.layer_metrics(tracer, 2)
    assert metrics["autodiff.backward.walk_ms"][0] == pytest.approx(5.0 / 2)
    assert metrics["autodiff.matmul.vjp_ms"][0] == pytest.approx(4.0 / 2)


def test_cli_stages_run_from_marker_to_marker():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, "cli.main", 0.0, 10.0, 0, 0),
        (2, "train.train_model", 1.0, 4.0, 1, 0),
        (3, "selector.train_scav", 4.5, 5.0, 1, 0),
        (4, "sampler.sample_batch", 5.0, 6.0, 0, 0),   # pool threads have no parent
        (5, "sampler.sample_batch", 5.5, 7.0, 0, 0),
        (6, "selector.select_best", 7.5, 7.6, 1, 0),
        (7, "cli.eval", 8.0, 9.0, 1, 0),
    ]
    metrics = tracing.layer_metrics(tracer, 1)
    stages = {s: metrics[f"cli.stage.{s}_ms"][0] for s in tracing.CLI_STAGES}
    assert stages == pytest.approx({"data": 1000.0, "train": 3500.0, "scav": 500.0,
                                    "sample": 2000.0, "select": 1000.0, "eval": 2000.0})
    assert metrics["cli.sample.wait_ms"][0] == pytest.approx(250.0)


# -- the benchmark definition ----------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = list(tracing.LAYER_METRICS) + [
        (f"tracing.overhead.{name}", unit) for name, unit in run.TRACED_END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
