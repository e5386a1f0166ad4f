"""Loss oracles, optimizer behavior, lr schedule, overfit sanity."""

import math

import numpy as np
import pytest

from maskgram import autodiff as ad
from maskgram.autodiff import Tensor
from maskgram.codegram import Codegram, CodebookSpec, MaskTensor
from maskgram.errors import NonFiniteError, ValidationError
from maskgram.features import ALIGNMENT_SENSITIVE, FRAME_SEMANTIC
from maskgram.model import MaskedGridTransformer, ModelConfig, StreamSpec
from maskgram.train import (
    AdamW,
    Batch,
    LossBreakdown,
    LrSchedule,
    TrainConfig,
    clip_contrastive,
    compute_losses,
    init_aux_params,
    masked_ce,
    masked_token_accuracy,
    seq_mse,
    train_model,
    train_step,
)


def spec_and_grid(rng, length=5, levels=3, vocab=8):
    spec = CodebookSpec(levels=levels, vocab_size=vocab, embed_dim=4)
    grid = Codegram(rng.integers(0, vocab, (length, levels)), spec)
    return spec, grid


# -- masked cross-entropy ---------------------------------------------------------


def test_masked_ce_empty_mask_is_zero():
    rng = np.random.default_rng(0)
    spec, grid = spec_and_grid(rng)
    logits = rng.normal(size=(5, 3, 8))
    assert masked_ce(logits, grid, MaskTensor.full(5, 3, False)) == 0.0


def test_masked_ce_uniform_logits_is_log_vocab():
    rng = np.random.default_rng(1)
    spec = CodebookSpec(levels=1, vocab_size=64, embed_dim=4)
    grid = Codegram(rng.integers(0, 64, (3, 1)), spec)
    flags = np.zeros((3, 1), dtype=bool)
    flags[1, 0] = True
    value = masked_ce(np.zeros((3, 1, 64)), grid, MaskTensor(flags))
    assert value == pytest.approx(math.log(64), abs=1e-12)


def test_masked_ce_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        spec, grid = spec_and_grid(rng)
        logits = rng.normal(size=(5, 3, 8))
        flags = rng.random((5, 3)) < 0.5
        got = masked_ce(logits, grid, MaskTensor(flags))

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
    before = masked_ce(logits, grid, MaskTensor(flags))
    perturbed = logits.copy()
    perturbed[~flags] += rng.normal(size=perturbed[~flags].shape) * 100
    after = masked_ce(perturbed, grid, MaskTensor(flags))
    assert before == after


def test_masked_ce_decreases_when_true_logit_rises():
    rng = np.random.default_rng(4)
    spec, grid = spec_and_grid(rng)
    flags = np.zeros((5, 3), dtype=bool)
    flags[2, 1] = True
    logits = rng.normal(size=(5, 3, 8))
    base = masked_ce(logits, grid, MaskTensor(flags))
    logits[2, 1, grid.tokens[2, 1]] += 1.0
    assert masked_ce(logits, grid, MaskTensor(flags)) < base


# -- sequence MSE ------------------------------------------------------------------


def test_seq_mse_identical_is_zero():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 4))
    assert seq_mse(a, a) == 0.0


def test_seq_mse_constant_offset():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 4))
    assert seq_mse(a, a + 3.0) == pytest.approx(9.0, abs=1e-12)


def test_seq_mse_resamples_target_to_encoder_length():
    from maskgram.features import resample_nn

    rng = np.random.default_rng(7)
    enc = rng.normal(size=(7, 4))
    target = rng.normal(size=(5, 4))
    expected = float(np.mean((enc - resample_nn(target, 7)) ** 2))
    assert seq_mse(enc, target) == pytest.approx(expected, abs=1e-12)


def test_seq_mse_width_mismatch():
    with pytest.raises(Exception):
        seq_mse(np.zeros((3, 4)), np.zeros((3, 5)))


# -- contrastive --------------------------------------------------------------------


def test_clip_contrastive_orthonormal_two_pairs():
    cls = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = clip_contrastive(cls, cls, temperature=1.0)
    assert loss == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)


def test_clip_contrastive_collapsed_batch_is_log_b():
    vec = np.tile(np.array([1.0, 2.0, 3.0]), (5, 1))
    assert clip_contrastive(vec, vec, 1.0) == pytest.approx(math.log(5), abs=1e-12)


def test_clip_contrastive_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        b = 8
        cls = rng.normal(size=(b, 6))
        tgt = rng.normal(size=(b, 6))
        tau = 0.3
        got = clip_contrastive(cls, tgt, tau)

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
    base = clip_contrastive(cls, tgt, 0.5)
    rotated = clip_contrastive(cls @ q, tgt @ q, 0.5)
    assert rotated == pytest.approx(base, abs=1e-10)


def test_clip_contrastive_rejects_singleton():
    with pytest.raises(ValidationError):
        clip_contrastive(np.ones((1, 4)), np.ones((1, 4)), 1.0)


# -- accuracy -----------------------------------------------------------------------


def test_accuracy_one_hot_logits():
    rng = np.random.default_rng(10)
    spec, grid = spec_and_grid(rng)
    mask = MaskTensor.full(5, 3, True)
    logits = np.zeros((5, 3, 8))
    for l in range(5):
        for k in range(3):
            logits[l, k, grid.tokens[l, k]] = 5.0
    assert masked_token_accuracy(logits, grid, mask) == 1.0
    wrong = np.zeros((5, 3, 8))
    for l in range(5):
        for k in range(3):
            wrong[l, k, (grid.tokens[l, k] + 1) % 8] = 5.0
    assert masked_token_accuracy(wrong, grid, mask) == 0.0


def test_accuracy_matches_loop_oracle_and_none_when_unmasked():
    rng = np.random.default_rng(11)
    spec, grid = spec_and_grid(rng)
    flags = rng.random((5, 3)) < 0.5
    logits = rng.normal(size=(5, 3, 8))
    got = masked_token_accuracy(logits, grid, MaskTensor(flags))
    if flags.any():
        hits = sum(
            int(np.argmax(logits[l, k]) == grid.tokens[l, k])
            for l in range(5) for k in range(3) if flags[l, k]
        )
        assert got == pytest.approx(hits / flags.sum())
    assert masked_token_accuracy(logits, grid, MaskTensor.full(5, 3, False)) is None


# -- loss breakdown / schedule / optimizer ---------------------------------------------


def test_loss_breakdown_total_weighted_sum():
    rng = np.random.default_rng(12)
    for _ in range(50):
        parts = rng.random(3)
        lr_, lc_ = rng.random(2) * 4
        loss = LossBreakdown(*parts, lambda_reg=lr_, lambda_cont=lc_)
        assert loss.total == parts[0] + lr_ * parts[1] + lc_ * parts[2]


@pytest.mark.parametrize("field, value", [("steps", 0), ("batch_size", 0), ("warmup", -1)])
def test_train_config_rejects_out_of_range_counts(field, value):
    with pytest.raises(ValidationError, match=field):
        TrainConfig(**{field: value})
    TrainConfig(warmup=0)


def test_lr_warmup_midpoint_is_half_peak():
    sched = LrSchedule(peak=2e-4, floor=1e-6, warmup=100, total=1000)
    assert sched.at(50) == pytest.approx(1e-4, abs=1e-12 * 1e-4)
    assert sched.at(100) == pytest.approx(2e-4)
    assert sched.at(1000) == pytest.approx(1e-6)


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
        spec=CodebookSpec(levels=2, vocab_size=8, embed_dim=4),
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
        train_step(model, aux, opt, batch, 0, LrSchedule(), rng)
    assert "l_mse" in str(err.value)


def test_adaln_structure_needs_no_targets():
    model, aux = tiny_model("adaln")
    rng = np.random.default_rng(16)
    batch = tiny_batch(rng)
    batch.targets = None
    opt = AdamW(model.params)
    result = train_step(model, aux, opt, batch, 0, LrSchedule(), rng)
    assert result.loss.l_mse == 0.0
    assert result.loss.l_contrastive == 0.0


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


def test_distinct_target_embed_dim_projects_encoder_side():
    cfg = ModelConfig(
        structure="seq2seq",
        spec=CodebookSpec(levels=2, vocab_size=8, embed_dim=4),
        streams=(
            StreamSpec("clip", 4, FRAME_SEMANTIC),
            StreamSpec("s3d", 3, ALIGNMENT_SENSITIVE),
        ),
        depth=1, hidden=16, heads=2, encoder_depth=1, aux_target_dim=6,
        target_embed_dim=12, max_len=16, cond_max_len=16,
    )
    model = MaskedGridTransformer(cfg, seed=21)
    aux = init_aux_params(cfg, seed=22)
    assert aux["aux.proj.w"].shape == (6, 12)
    assert aux["aux.enc.w"].shape == (16, 12)
    rng = np.random.default_rng(23)
    batch = tiny_batch(rng)
    masks = rng.random(batch.tokens.shape) < 0.5
    total, _, parts, _ = compute_losses(model, aux, batch, masks, None, 1.0, 1.0)
    assert math.isfinite(total.item())
    total.backward()
    assert aux["aux.enc.w"].grad is not None


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
