"""Iterative parallel decoding from a fully masked grid.

Each step: run the model conditionally (and unconditionally when guidance is
on), combine logits as (1+gamma)*cond - gamma*uncond, draw a token per masked
position from the tempered multinomial, score each draw by its log-probability
plus annealed Gumbel noise, then re-mask the schedule's next masked count of
lowest-confidence draws and commit the rest. Committed positions are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .codegram import Codegram, CodebookSpec
from .errors import ShapeMismatchError, ValidationError
from .features import ConditioningBundle, stack_streams
from .model import EncoderOutput, MaskedGridTransformer
from .scheduler import SampleSchedule, build_sample_schedule
from .seeding import derive_seed


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
        if self.gamma < 0:
            raise ValidationError("gamma must be >= 0")
        if self.delta < 0:
            raise ValidationError("delta must be >= 0")
        if self.temperature <= 0:
            raise ValidationError("temperature must be > 0")


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
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _multinomial(log_probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draw per position over the last axis."""
    probs = np.exp(log_probs)
    cdf = np.cumsum(probs, axis=-1)
    u = rng.random(log_probs.shape[:-1]) * cdf[..., -1]
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
    """Guided logits, and the state keeping each pass's encoder output."""
    feed = np.where(state.mask, 0, state.tokens)  # embedding reads MASK via flags

    def run(drop, enc):  # enc_out only once known, so stand-ins without it still work
        cached = {} if enc is None else {"enc_out": enc}
        return model.forward(feed, state.mask, streams, drop, **cached)

    with ad.no_grad():
        cond_logits, cond_enc = run(None, state.cond_enc)
        state = replace(state, cond_enc=cond_enc)
        if config.gamma > 0 or config.force_two_pass:
            uncond_logits, null_enc = run(np.ones(len(feed), dtype=bool), state.null_enc)
            logits = guided_logits(cond_logits.data, uncond_logits.data, config.gamma)
            return logits, replace(state, null_enc=null_enc)
    return cond_logits.data, state


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

    log_probs = _log_softmax(logits / config.temperature)
    delta_n = diversity_at(config.delta, n, schedule.n_steps)
    next_masked = schedule.masked_counts[n + 1]

    b, length, levels = state.tokens.shape
    tokens = state.tokens.copy()
    mask = state.mask.copy()
    conf_out = state.confidences.copy()
    for i in range(b):
        rng = state.rngs[i]
        draw = _multinomial(log_probs[i], rng)
        drawn_logp = np.take_along_axis(
            log_probs[i], draw[..., None], axis=-1
        )[..., 0]
        conf = confidence(drawn_logp, delta_n, rng)
        conf = np.where(mask[i], conf, np.inf)  # committed positions never re-enter
        flat = conf.ravel()  # row-major, so stable sort breaks ties by (l, k)
        order = np.argsort(flat, kind="stable")
        remask_flat = order[:next_masked]
        remask = np.zeros(length * levels, dtype=bool)
        remask[remask_flat] = True
        remask = remask.reshape(length, levels)
        commit = mask[i] & ~remask
        tokens[i][commit] = draw[commit]
        conf_out[i][commit] = conf[commit]
        mask[i] = remask
        tokens[i][remask] = model.config.spec.mask_token
    return replace(state, step=n + 1, tokens=tokens, mask=mask, confidences=conf_out)


def sample_batch(
    model: MaskedGridTransformer,
    bundles: list[ConditioningBundle] | None,
    length: int,
    config: SamplerConfig,
    seeds: list[int] | None = None,
    trace: list[str] | None = None,
) -> list[Codegram]:
    """Run the full schedule for a batch of independent rows; `trace` follows row 0."""
    spec = model.config.spec
    if bundles is not None:
        streams = stack_streams(bundles)
        batch = len(bundles)
    else:
        streams = None
        batch = 1 if seeds is None else len(seeds)
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


def sample(
    model: MaskedGridTransformer,
    bundle: ConditioningBundle | None,
    length: int,
    config: SamplerConfig,
    trace: list[str] | None = None,
) -> Codegram:
    """Single fully-masked-to-complete run; deterministic given config.seed."""
    bundles = [bundle] if bundle is not None else None
    return sample_batch(
        model, bundles, length, config,
        seeds=[derive_seed(config.seed, "sample", 0)], trace=trace,
    )[0]
