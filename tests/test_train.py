"""Loss oracles, optimizer behavior, lr schedule, overfit sanity."""

import dataclasses
import math

import numpy as np
import pytest

from maskgram import autodiff as ad
from maskgram.autodiff import Tensor
from maskgram.codegram import Codegram, CodebookSpec
from maskgram.errors import NonFiniteError, ValidationError
from maskgram.features import ALIGNMENT_SENSITIVE, FRAME_SEMANTIC
from maskgram.model import MaskedGridTransformer, ModelConfig, StreamSpec
from maskgram.train import (
    AdamW,
    METRICS_HEADER,
    Batch,
    StepResult,
    TrainConfig,
    clip_contrastive_t,
    compute_losses,
    init_aux_params,
    masked_ce_t,
    masked_token_accuracy,
    metrics_line,
    seq_mse_t,
    train_model,
    train_step,
)


def spec_and_grid(rng, length=5, levels=3, vocab=8):
    spec = CodebookSpec(levels=levels, vocab_size=vocab)
    grid = Codegram(rng.integers(0, vocab, (length, levels)), spec)
    return spec, grid


def value(loss_t, *args) -> float:
    """A `_t` loss's value, computed without building a graph."""
    with ad.no_grad():
        return loss_t(*args).item()


# -- masked cross-entropy ---------------------------------------------------------


def test_masked_ce_empty_mask_is_zero():
    rng = np.random.default_rng(0)
    spec, grid = spec_and_grid(rng)
    logits = rng.normal(size=(5, 3, 8))
    flags = np.zeros((5, 3), dtype=bool)
    assert value(masked_ce_t, Tensor(logits), grid.tokens, flags) == 0.0


def test_masked_ce_uniform_logits_is_log_vocab():
    rng = np.random.default_rng(1)
    spec = CodebookSpec(levels=1, vocab_size=64)
    grid = Codegram(rng.integers(0, 64, (3, 1)), spec)
    flags = np.zeros((3, 1), dtype=bool)
    flags[1, 0] = True
    loss = value(masked_ce_t, Tensor(np.zeros((3, 1, 64))), grid.tokens, flags)
    assert loss == pytest.approx(math.log(64), abs=1e-12)


def test_masked_ce_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        spec, grid = spec_and_grid(rng)
        logits = rng.normal(size=(5, 3, 8))
        flags = rng.random((5, 3)) < 0.5
        got = value(masked_ce_t, Tensor(logits), grid.tokens, flags)

        total, count = 0.0, 0
        for l in range(5):
            for k in range(3):
                if flags[l, k]:
                    row = logits[l, k]
                    log_probs = row - (np.log(np.sum(np.exp(row - row.max())))
                                       + row.max())
                    total -= log_probs[grid.tokens[l, k]]
                    count += 1
        expected = total / count if count else 0.0
        assert got == pytest.approx(expected, abs=1e-12)


def test_masked_ce_ignores_unmasked_logits_exactly():
    rng = np.random.default_rng(3)
    spec, grid = spec_and_grid(rng)
    flags = rng.random((5, 3)) < 0.4
    flags[0, 0] = True
    logits = rng.normal(size=(5, 3, 8))
    before = value(masked_ce_t, Tensor(logits), grid.tokens, flags)
    perturbed = logits.copy()
    perturbed[~flags] += rng.normal(size=perturbed[~flags].shape) * 100
    after = value(masked_ce_t, Tensor(perturbed), grid.tokens, flags)
    assert before == after


def test_masked_ce_decreases_when_true_logit_rises():
    rng = np.random.default_rng(4)
    spec, grid = spec_and_grid(rng)
    flags = np.zeros((5, 3), dtype=bool)
    flags[2, 1] = True
    logits = rng.normal(size=(5, 3, 8))
    base = value(masked_ce_t, Tensor(logits), grid.tokens, flags)
    logits[2, 1, grid.tokens[2, 1]] += 1.0
    assert value(masked_ce_t, Tensor(logits), grid.tokens, flags) < base


# -- sequence MSE ------------------------------------------------------------------


def test_seq_mse_identical_is_zero():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 4))
    assert value(seq_mse_t, Tensor(a), Tensor(a)) == 0.0


def test_seq_mse_constant_offset():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 4))
    assert value(seq_mse_t, Tensor(a), Tensor(a + 3.0)) == pytest.approx(9.0, abs=1e-12)


def test_seq_mse_resamples_target_to_encoder_length():
    from maskgram.features import resample_nn

    rng = np.random.default_rng(7)
    enc = rng.normal(size=(7, 4))
    target = rng.normal(size=(5, 4))
    expected = float(np.mean((enc - resample_nn(target, 7)) ** 2))
    assert value(seq_mse_t, Tensor(enc), Tensor(target)) == pytest.approx(expected, abs=1e-12)


def test_seq_mse_width_mismatch():
    with pytest.raises(Exception):
        value(seq_mse_t, Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 5))))


# -- contrastive --------------------------------------------------------------------


def test_clip_contrastive_orthonormal_two_pairs():
    cls = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = value(clip_contrastive_t, Tensor(cls), Tensor(cls), 1.0)
    assert loss == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)


def test_clip_contrastive_collapsed_batch_is_log_b():
    vec = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    loss = value(clip_contrastive_t, Tensor(vec), Tensor(vec), 1.0)
    assert loss == pytest.approx(math.log(5), abs=1e-12)


def test_clip_contrastive_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        b = 8
        cls = rng.normal(size=(b, 6))
        tgt = rng.normal(size=(b, 6))
        tau = 0.3
        got = value(clip_contrastive_t, Tensor(cls), Tensor(tgt), tau)

        a = cls / np.linalg.norm(cls, axis=1, keepdims=True)
        t = tgt / np.linalg.norm(tgt, axis=1, keepdims=True)
        sim = np.zeros((b, b))
        for i in range(b):
            for j in range(b):
                sim[i, j] = float(a[i] @ t[j]) / tau

        def row_ce(matrix):
            total = 0.0
            for i in range(b):
                row = matrix[i]
                total -= row[i] - math.log(np.sum(np.exp(row - row.max()))) - row.max()
            return total / b

        expected = 0.5 * (row_ce(sim) + row_ce(sim.T))
        assert got == pytest.approx(expected, abs=1e-12)


def test_clip_contrastive_rotation_invariant():
    rng = np.random.default_rng(9)
    cls = rng.normal(size=(6, 5))
    tgt = rng.normal(size=(6, 5))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    base = value(clip_contrastive_t, Tensor(cls), Tensor(tgt), 0.5)
    rotated = value(clip_contrastive_t, Tensor(cls @ q), Tensor(tgt @ q), 0.5)
    assert rotated == pytest.approx(base, abs=1e-10)


def test_clip_contrastive_rejects_singleton():
    with pytest.raises(ValidationError):
        value(clip_contrastive_t, Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))), 1.0)


# -- accuracy -----------------------------------------------------------------------


def test_accuracy_one_hot_logits():
    rng = np.random.default_rng(10)
    spec, grid = spec_and_grid(rng)
    flags = np.ones((5, 3), dtype=bool)
    logits = np.zeros((5, 3, 8))
    for l in range(5):
        for k in range(3):
            logits[l, k, grid.tokens[l, k]] = 5.0
    assert masked_token_accuracy(logits, grid.tokens, flags) == 1.0
    wrong = np.zeros((5, 3, 8))
    for l in range(5):
        for k in range(3):
            wrong[l, k, (grid.tokens[l, k] + 1) % 8] = 5.0
    assert masked_token_accuracy(wrong, grid.tokens, flags) == 0.0


def test_accuracy_matches_loop_oracle_and_none_when_unmasked():
    rng = np.random.default_rng(11)
    spec, grid = spec_and_grid(rng)
    flags = rng.random((5, 3)) < 0.5
    logits = rng.normal(size=(5, 3, 8))
    got = masked_token_accuracy(logits, grid.tokens, flags)
    if flags.any():
        hits = sum(
            int(np.argmax(logits[l, k]) == grid.tokens[l, k])
            for l in range(5) for k in range(3) if flags[l, k]
        )
        assert got == pytest.approx(hits / flags.sum())
    assert masked_token_accuracy(logits, grid.tokens, np.zeros((5, 3), dtype=bool)) is None


# -- config / schedule / optimizer --------------------------------------------------


@pytest.mark.parametrize("field, value", [("steps", 0), ("batch_size", 0), ("warmup", -1)])
def test_train_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ValidationError, match=field):
        TrainConfig(**{field: value})
    TrainConfig(warmup=0)


@pytest.mark.parametrize("field", ["peak_lr", "floor_lr", "weight_decay", "lambda_reg",
                                   "lambda_cont"])
def test_train_config_rejects_negative_or_non_finite_rates(field):
    for value in (-1.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})
    TrainConfig(**{field: 0.0})


def test_lr_warmup_midpoint_is_half_peak():
    config = TrainConfig(peak_lr=2e-4, floor_lr=1e-6, warmup=100, steps=1000)
    assert config.lr_at(50) == pytest.approx(1e-4, abs=1e-12 * 1e-4)
    assert config.lr_at(100) == pytest.approx(2e-4)
    assert config.lr_at(1000) == pytest.approx(1e-6)


@pytest.mark.parametrize("steps", [50, 100])
def test_lr_is_peak_after_warmup_when_steps_do_not_exceed_it(steps):
    config = TrainConfig(peak_lr=2e-4, floor_lr=1e-6, warmup=100, steps=steps)
    assert config.lr_at(100) == 2e-4
    assert config.lr_at(150) == 2e-4


def test_adamw_zero_lr_keeps_params_bit_exact():
    rng = np.random.default_rng(13)
    params = {"w": Tensor(rng.normal(size=(4, 4)), requires_grad=True)}
    before = params["w"].data.copy()
    opt = AdamW(params)
    params["w"].grad = rng.normal(size=(4, 4))
    opt.step(0.0)
    assert (params["w"].data == before).all()


def tiny_model(structure="seq2seq", seed=0):
    cfg = ModelConfig(
        structure=structure,
        spec=CodebookSpec(levels=2, vocab_size=8),
        streams=(
            StreamSpec("clip", 4, FRAME_SEMANTIC),
            StreamSpec("s3d", 3, ALIGNMENT_SENSITIVE),
        ),
        depth=1, hidden=16, heads=2, encoder_depth=1, aux_target_dim=6,
        max_len=16, cond_max_len=16,
    )
    model = MaskedGridTransformer(cfg, seed=seed)
    aux = init_aux_params(cfg, seed=seed + 1)
    return model, aux


def tiny_batch(rng, batch=4):
    return Batch(
        tokens=rng.integers(0, 8, (batch, 5, 2)),
        streams={
            "clip": rng.normal(size=(batch, 6, 4)),
            "s3d": rng.normal(size=(batch, 4, 3)),
        },
        targets=rng.normal(size=(batch, 7, 6)),
    )


def test_head_bias_gradient_under_mean_logit_loss():
    # mean over all L*K*D logits: each head-bias element feeds L positions,
    # so its gradient is uniformly L / (L*K*D) = 1 / (K*D)
    model, aux = tiny_model()
    rng = np.random.default_rng(14)
    batch = tiny_batch(rng, batch=1)
    masks = np.zeros((1, 5, 2), dtype=bool)
    logits, _ = model.forward(batch.tokens, masks, batch.streams, None)
    ad.tmean(logits).backward()
    for k in range(2):
        grad = model.params[f"head.{k}.b"].grad
        np.testing.assert_allclose(grad, np.full(8, 1.0 / (2 * 8)), atol=1e-15)


def test_train_step_aborts_on_non_finite_component():
    model, aux = tiny_model()
    rng = np.random.default_rng(15)
    batch = tiny_batch(rng)
    batch.targets[0, 0, 0] = np.nan
    opt = AdamW({**model.params, **aux})
    with pytest.raises(NonFiniteError) as err:
        train_step(model, aux, opt, batch, 0, TrainConfig(), rng)
    assert "l_mse" in str(err.value)


def test_adaln_structure_needs_no_targets():
    model, aux = tiny_model("adaln")
    rng = np.random.default_rng(16)
    batch = tiny_batch(rng)
    batch.targets = None
    opt = AdamW(model.params)
    result = train_step(model, aux, opt, batch, 0, TrainConfig(), rng)
    assert result.l_mse == 0.0
    assert result.l_cont == 0.0


def test_overfit_single_batch_reaches_high_accuracy():
    model, aux = tiny_model(seed=3)
    rng = np.random.default_rng(17)
    examples = []
    for _ in range(4):
        examples.append({
            "tokens": rng.integers(0, 8, (5, 2)),
            "streams": {
                "clip": rng.normal(size=(6, 4)),
                "s3d": rng.normal(size=(4, 3)),
            },
            "target": rng.normal(size=(7, 6)),
        })
    config = TrainConfig(steps=500, batch_size=4, peak_lr=3e-3, warmup=20, seed=5)
    train_model(model, aux, examples, config)

    # evaluate masked prediction on the same batch with fresh masks
    tokens = np.stack([e["tokens"] for e in examples])
    streams = {n: np.stack([e["streams"][n] for e in examples]) for n in ("clip", "s3d")}
    eval_rng = np.random.default_rng(18)
    hits, count = 0, 0
    for _ in range(20):
        masks = eval_rng.random(tokens.shape) < 0.5
        with ad.no_grad():
            logits, _ = model.forward(tokens, masks, streams, None)
        pred = logits.data.argmax(-1)
        hits += (pred[masks] == tokens[masks]).sum()
        count += masks.sum()
    assert hits / count >= 0.99


def test_compute_losses_total_is_the_weighted_sum_of_its_parts():
    model, aux = tiny_model(seed=12)
    rng = np.random.default_rng(12)
    batch = tiny_batch(rng)
    masks = rng.random(batch.tokens.shape) < 0.5
    for lambda_reg, lambda_cont in rng.random((5, 2)) * 4:
        total, _, parts, _ = compute_losses(model, aux, batch, masks, None,
                                            lambda_reg, lambda_cont)
        expected = parts["l_mask"] + lambda_reg * parts["l_mse"] + lambda_cont * parts["l_cont"]
        assert total.item() == pytest.approx(expected, rel=1e-12)


def test_full_dropout_makes_loss_independent_of_bundle_contents():
    # with every example dropped, gradients w.r.t. bundle contents are zero:
    # the loss does not move when the streams change
    model, aux = tiny_model(seed=11)
    rng = np.random.default_rng(20)
    batch_a = tiny_batch(rng)
    batch_b = Batch(
        tokens=batch_a.tokens,
        streams={k: v + rng.normal(size=v.shape) for k, v in batch_a.streams.items()},
        targets=batch_a.targets,
    )
    masks = rng.random(batch_a.tokens.shape) < 0.5
    drop = np.ones(4, dtype=bool)
    total_a, _, _, _ = compute_losses(model, aux, batch_a, masks, drop, 1.0, 1.0)
    total_b, _, _, _ = compute_losses(model, aux, batch_b, masks, drop, 1.0, 1.0)
    assert total_a.item() == total_b.item()


def test_train_model_logs_metrics_lines():
    model, aux = tiny_model(seed=7)
    rng = np.random.default_rng(19)
    examples = [{
        "tokens": rng.integers(0, 8, (5, 2)),
        "streams": {"clip": rng.normal(size=(6, 4)), "s3d": rng.normal(size=(4, 3))},
        "target": rng.normal(size=(7, 6)),
    } for _ in range(4)]
    lines: list[str] = []
    train_model(model, aux, examples, TrainConfig(steps=3, batch_size=2, seed=1), lines)
    assert lines[0] == "step,l_mask,l_mse,l_cont,lr,accuracy"
    assert len(lines) == 4
    assert lines[1].startswith("0,")


def test_metrics_header_lists_step_result_fields_after_step():
    names = [f.name for f in dataclasses.fields(StepResult)]
    assert METRICS_HEADER.split(",") == ["step", *names]


def test_metrics_line_leaves_a_none_accuracy_empty():
    result = StepResult(l_mask=1.5, l_mse=0.25, l_cont=0.0, lr=1e-4, accuracy=None)
    assert metrics_line(3, result) == "3,1.5,0.25,0.0,0.0001,"
    assert metrics_line(3, dataclasses.replace(result, accuracy=0.5)).endswith(",0.0001,0.5")
