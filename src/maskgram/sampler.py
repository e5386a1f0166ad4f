"""Iterative parallel decoding from a fully masked grid.

The conditioning is one stream dict per row, name -> (N, C), stacked into the
batch by `features.stack_streams`. Each step: run the model conditionally
(and unconditionally, every stream [NULL], when guidance is on) over the whole
grid, then keep only the still-masked positions. At those positions
combine logits as (1+gamma)*cond - gamma*uncond. Under guidance
(gamma > 0) the contrast is taken only over the conditional's plausible
tokens, those with probability at least 0.1 times the conditional maximum;
every other token gets -inf. Draw a token from the tempered multinomial and
score each draw by its log-probability plus annealed Gumbel noise; the draw
runs as one array operation over every row.
Then re-mask the schedule's next masked count of lowest-confidence draws per
row and commit the rest. Committed positions are frozen. Each row keeps its
own generator, which draws the same numbers as a row sampled alone, so a
row's bytes do not depend on the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .codegram import Codegram, CodebookSpec
from .errors import ShapeMismatchError, ValidationError
from .features import stack_streams
from .model import EncoderOutput, MaskedGridTransformer
from .scheduler import SampleSchedule, build_sample_schedule
from .seeding import derive_seed

# Adaptive plausibility constraint of contrastive decoding (Li et al., arXiv
# 2210.15097, alpha = 0.1): guided logits are kept only where the conditional
# probability is at least alpha times the conditional maximum. Once context is
# committed the unconditional pass reads the answer from it and turns sharp, so
# the plain contrast would lift tokens it rules out above the right one.
_LOG_PLAUSIBLE_RATIO = float(np.log(0.1))


@dataclass(frozen=True)
class SamplerConfig:
    n_steps: int = 32
    gamma: float = 3.0
    delta: float = 8.0
    temperature: float = 1.0
    seed: int = 0
    force_two_pass: bool = False      # run the unconditional pass even at gamma=0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        # chained comparisons, so that nan and inf fail too
        if not 0 <= self.gamma < np.inf:
            raise ValidationError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0 <= self.delta < np.inf:
            raise ValidationError(f"delta must be finite and >= 0, got {self.delta}")
        if not 0 < self.temperature < np.inf:
            raise ValidationError(f"temperature must be finite and > 0, got {self.temperature}")


@dataclass
class SamplerState:
    """Per-step snapshot; committed entries never change afterwards."""

    step: int
    tokens: np.ndarray        # (B, L, K) ints; sentinel D where still masked
    mask: np.ndarray          # (B, L, K) bools
    confidences: np.ndarray   # (B, L, K); +inf at committed positions
    rngs: list[np.random.Generator]
    # encoder outputs of the conditional and the NULL pass, reused after step 0
    cond_enc: EncoderOutput | None = None
    null_enc: EncoderOutput | None = None


def guided_logits(cond: np.ndarray, uncond: np.ndarray, gamma: float) -> np.ndarray:
    """(1 + gamma) * conditional - gamma * unconditional, elementwise."""
    cond = np.asarray(cond, dtype=np.float64)
    uncond = np.asarray(uncond, dtype=np.float64)
    if cond.shape != uncond.shape:
        raise ShapeMismatchError("logits", cond.shape, uncond.shape)
    if gamma < 0:
        raise ValidationError(f"gamma must be >= 0, got {gamma}")
    return (1.0 + gamma) * cond - gamma * uncond


def diversity_at(delta: float, n: int, n_steps: int) -> float:
    """Linearly annealed noise scale, zero at the final step."""
    if not 0 <= n < n_steps:
        raise ValidationError(f"step {n} outside [0, {n_steps})")
    return max(delta * (1.0 - (n + 1) / n_steps), 0.0)


def confidence(log_probs: np.ndarray, delta_n: float,
               rng: np.random.Generator) -> np.ndarray:
    """Log-probability of each draw plus delta_n-scaled Gumbel(0,1) noise."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    return log_probs + delta_n * rng.gumbel(size=log_probs.shape)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    ad._row_blocks(ad._log_softmax_rows, x, out)
    return out


def _multinomial(log_probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per position over the last axis, one uniform each."""
    probs = np.exp(log_probs)
    cdf = np.cumsum(probs, axis=-1)
    u = uniforms * cdf[..., -1]
    draw = (u[..., None] >= cdf).sum(axis=-1)
    return np.minimum(draw, log_probs.shape[-1] - 1)


def init_state(batch: int, length: int, levels: int, spec: CodebookSpec,
               seeds: list[int]) -> SamplerState:
    tokens = np.full((batch, length, levels), spec.mask_token, dtype=np.int64)
    mask = np.ones((batch, length, levels), dtype=bool)
    conf = np.full((batch, length, levels), np.inf)
    return SamplerState(
        step=0, tokens=tokens, mask=mask, confidences=conf,
        rngs=[np.random.default_rng(s) for s in seeds],
    )


def _model_logits(model: MaskedGridTransformer, state: SamplerState,
                  streams, config: SamplerConfig) -> tuple[np.ndarray, SamplerState]:
    """Guided logits at the masked positions, (masked, D) in row-major order,
    and the state keeping each pass's encoder output. Under guidance, tokens
    outside the conditional's plausible set get -inf."""
    # masked positions hold the sentinel, which forward reads as the MASK embedding
    tokens, mask = state.tokens, state.mask
    with ad.no_grad():
        cond_logits, cond_enc = model.forward(tokens, mask, streams, None,
                                              enc_out=state.cond_enc)
        state = replace(state, cond_enc=cond_enc)
        cond = cond_logits.data[mask]
        if config.gamma > 0 or config.force_two_pass:
            drop = np.ones(len(tokens), dtype=bool)
            uncond_logits, null_enc = model.forward(tokens, mask, streams, drop,
                                                    enc_out=state.null_enc)
            logits = guided_logits(cond, uncond_logits.data[mask], config.gamma)
            if config.gamma > 0:
                # the conditional argmax always passes, so no row is all -inf
                plausible = cond - cond.max(axis=-1, keepdims=True) >= _LOG_PLAUSIBLE_RATIO
                logits = np.where(plausible, logits, -np.inf)
            return logits, replace(state, null_enc=null_enc)
    return cond, state


def sample_step(
    state: SamplerState,
    model: MaskedGridTransformer,
    streams,
    config: SamplerConfig,
    schedule: SampleSchedule,
) -> SamplerState:
    """Advance one schedule step; no-op steps only bump the counter."""
    n = state.step
    if not 0 <= n < schedule.n_steps:
        raise ValidationError(f"state step {n} outside schedule of {schedule.n_steps}")
    if int(state.mask.sum()) != schedule.masked_counts[n] * state.tokens.shape[0]:
        raise ValidationError(
            f"state/schedule mismatch at step {n}: "
            f"{int(state.mask.sum())} masked vs expected "
            f"{schedule.masked_counts[n]} per example"
        )
    logits, state = _model_logits(model, state, streams, config)
    kappa = schedule.masked_counts[n] - schedule.masked_counts[n + 1]
    if kappa == 0:
        return replace(state, step=n + 1)

    if config.temperature != 1.0:
        logits = logits / config.temperature
    log_probs = _log_softmax(logits)
    delta_n = diversity_at(config.delta, n, schedule.n_steps)
    mask = state.mask
    b, length, levels = mask.shape

    # each row's generator draws (L, K) uniforms, then (L, K) Gumbel noise,
    # committed positions included, so a row's bytes do not depend on the batch
    uniforms = np.stack([rng.random((length, levels)) for rng in state.rngs])
    picked = _multinomial(log_probs, uniforms[mask])
    draw = np.zeros(mask.shape, dtype=np.int64)
    draw[mask] = picked
    drawn_logp = np.zeros(mask.shape)
    drawn_logp[mask] = np.take_along_axis(log_probs, picked[:, None], axis=-1)[:, 0]
    conf = np.stack([confidence(lp, delta_n, rng)
                     for lp, rng in zip(drawn_logp, state.rngs)])
    conf[~mask] = np.inf  # committed positions never re-enter

    # stable sort of each row-major row breaks ties by (l, k)
    order = np.argsort(conf.reshape(b, -1), axis=1, kind="stable")
    remask = np.zeros((b, length * levels), dtype=bool)
    np.put_along_axis(remask, order[:, :schedule.masked_counts[n + 1]], True, axis=1)
    remask = remask.reshape(mask.shape)
    commit = mask & ~remask
    tokens = state.tokens.copy()
    tokens[commit] = draw[commit]
    tokens[remask] = model.config.spec.mask_token
    conf_out = state.confidences.copy()
    conf_out[commit] = conf[commit]
    return replace(state, step=n + 1, tokens=tokens, mask=remask, confidences=conf_out)


def sample_batch(
    model: MaskedGridTransformer,
    rows: list[dict[str, np.ndarray]],
    length: int,
    config: SamplerConfig,
    seeds: list[int] | None = None,
    trace: list[str] | None = None,
) -> list[Codegram]:
    """Run the full schedule for a batch of independent rows, each given by its
    stream dict; `trace` follows row 0."""
    spec = model.config.spec
    streams = stack_streams(rows)
    batch = len(rows)
    if seeds is None:
        seeds = [derive_seed(config.seed, "sample", i) for i in range(batch)]
    if len(seeds) != batch:
        raise ValidationError(f"need {batch} seeds, got {len(seeds)}")
    schedule = build_sample_schedule(length * spec.levels, config.n_steps)
    state = init_state(batch, length, spec.levels, spec, seeds)
    if trace is not None:
        trace.append("step,masked_count,mean_confidence")
    for _ in range(schedule.n_steps):
        state = sample_step(state, model, streams, config, schedule)
        if trace is not None:
            committed = state.confidences[0][np.isfinite(state.confidences[0])]
            mean_conf = float(committed.mean()) if committed.size else 0.0
            trace.append(
                f"{state.step},{schedule.masked_counts[state.step]},{mean_conf!r}"
            )
    if state.mask.any():
        raise ValidationError("sampling finished with masked positions left")
    return [Codegram(state.tokens[i], spec) for i in range(batch)]

