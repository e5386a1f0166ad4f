"""Training objective and optimizer loop.

Total loss is masked cross-entropy plus (for structures with an encoder) an
MSE between the encoder output sequence and a projected auxiliary target
sequence, and a contrastive term between the pooled [CLS] vector and the
average projected target, weighted by lambda_reg and lambda_cont.

Masked cross-entropy reduces by the mean over masked positions (all levels
weighted equally); for a batch the mean runs over every masked position in
the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codegram import Codegram, MaskTensor
from .errors import NonFiniteError, ShapeMismatchError, ValidationError
from .features import resample_indices
from .model import LogitsGrid, MaskedGridTransformer, ModelConfig
from .scheduler import draw_train_mask

INIT_LOGIT_SCALE = math.log(1.0 / 0.07)
MAX_LOGIT_SCALE = math.log(100.0)


@dataclass(frozen=True)
class LossBreakdown:
    l_mask: float
    l_mse: float
    l_contrastive: float
    lambda_reg: float = 1.0
    lambda_cont: float = 1.0

    @property
    def total(self) -> float:
        return self.l_mask + self.lambda_reg * self.l_mse + self.lambda_cont * self.l_contrastive


# -- loss terms ---------------------------------------------------------------


def _as_logits_array(logits) -> np.ndarray:
    if isinstance(logits, LogitsGrid):
        return logits.values
    if isinstance(logits, Tensor):
        return logits.data
    return np.asarray(logits, dtype=np.float64)


def masked_ce_t(logits: Tensor, tokens: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of true tokens over masked positions."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        return Tensor(0.0)
    log_probs = ad.log_softmax(logits, axis=-1)
    picked = ad.take_along_last(log_probs, np.asarray(tokens, dtype=np.int64))
    return ad.tsum(picked * np.where(mask, -1.0 / count, 0.0))


def masked_ce(logits, codegram: Codegram, mask: MaskTensor) -> float:
    """Array-facing wrapper over `masked_ce_t` for a single grid."""
    values = _as_logits_array(logits)
    if values.shape != codegram.tokens.shape + (codegram.spec.vocab_size,):
        raise ShapeMismatchError(
            "logits", codegram.tokens.shape + (codegram.spec.vocab_size,), values.shape
        )
    with ad.no_grad():
        return masked_ce_t(Tensor(values), codegram.tokens, mask.flags).item()


def seq_mse_t(encoder_seq: Tensor, target_seq: Tensor) -> Tensor:
    """Mean squared difference after resampling the target to the encoder length."""
    if encoder_seq.shape[-1] != target_seq.shape[-1]:
        raise ShapeMismatchError("width", encoder_seq.shape[-1], target_seq.shape[-1])
    n = encoder_seq.shape[-2]
    if target_seq.shape[-2] != n:
        target_seq = ad.index_select(
            target_seq, target_seq.ndim - 2, resample_indices(target_seq.shape[-2], n)
        )
    diff = encoder_seq - target_seq
    return ad.tmean(diff * diff)


def seq_mse(encoder_seq: np.ndarray, target_seq: np.ndarray) -> float:
    with ad.no_grad():
        return seq_mse_t(Tensor(np.asarray(encoder_seq, dtype=np.float64)),
                         Tensor(np.asarray(target_seq, dtype=np.float64))).item()


def _diag_ce(sim: Tensor) -> Tensor:
    b = sim.shape[0]
    log_probs = ad.log_softmax(sim, axis=-1)
    diag = ad.take_along_last(log_probs, np.arange(b, dtype=np.int64))
    return -ad.tmean(diag)


def clip_contrastive_t(cls_batch: Tensor, target_batch: Tensor, temperature) -> Tensor:
    """Symmetric cross-entropy over the cosine-similarity matrix, diagonal labels."""
    b = cls_batch.shape[0]
    if b < 2:
        raise ValidationError("contrastive loss requires batch size >= 2")
    if cls_batch.shape != target_batch.shape:
        raise ShapeMismatchError("contrastive batch", cls_batch.shape, target_batch.shape)
    a = ad.l2_normalize(cls_batch, eps=0.0)
    t = ad.l2_normalize(target_batch, eps=0.0)
    sim = ad.matmul(a, ad.swapaxes(t, 0, 1))
    sim = sim / temperature if isinstance(temperature, Tensor) else sim * (1.0 / temperature)
    return (_diag_ce(sim) + _diag_ce(ad.swapaxes(sim, 0, 1))) * 0.5


def clip_contrastive(cls_batch: np.ndarray, target_batch: np.ndarray,
                     temperature: float = 1.0) -> float:
    with ad.no_grad():
        return clip_contrastive_t(
            Tensor(np.asarray(cls_batch, dtype=np.float64)),
            Tensor(np.asarray(target_batch, dtype=np.float64)),
            temperature,
        ).item()


def masked_token_accuracy(logits, codegram_or_tokens, mask) -> float | None:
    """Fraction of masked positions whose argmax logit hits the true token.

    Returns None when nothing is masked (not applicable).
    """
    values = _as_logits_array(logits)
    tokens = (
        codegram_or_tokens.tokens
        if isinstance(codegram_or_tokens, Codegram)
        else np.asarray(codegram_or_tokens)
    )
    flags = mask.flags if isinstance(mask, MaskTensor) else np.asarray(mask, dtype=bool)
    if not flags.any():
        return None
    pred = values.argmax(axis=-1)
    return float((pred[flags] == tokens[flags]).mean())


# -- optimizer ------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay; lr is supplied per step."""

    def __init__(self, params: dict[str, Tensor], betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 1e-5):
        self.params = params
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - lr * (
                m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data
            )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup to the peak, then linear decay down to the floor."""

    peak: float = 2e-4
    floor: float = 1e-6
    warmup: int = 100
    total: int = 1000

    def at(self, step: int) -> float:
        if self.warmup > 0 and step < self.warmup:
            return self.peak * step / self.warmup
        if self.total <= self.warmup:
            return self.peak
        frac = min((step - self.warmup) / (self.total - self.warmup), 1.0)
        return self.floor + (self.peak - self.floor) * (1.0 - frac)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    batch_size: int = 32
    peak_lr: float = 2e-4
    floor_lr: float = 1e-6
    warmup: int = 100
    weight_decay: float = 1e-5
    lambda_reg: float = 1.0
    lambda_cont: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup < 0:
            raise ValidationError(f"warmup must be >= 0, got {self.warmup}")

    def schedule(self) -> LrSchedule:
        return LrSchedule(peak=self.peak_lr, floor=self.floor_lr,
                          warmup=self.warmup, total=self.steps)


def init_aux_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Learnable projection of raw auxiliary targets plus contrastive scale."""
    if not config.uses_encoder:
        return {}
    if config.aux_target_dim < 1:
        raise ValidationError("seq2seq/hybrid training requires aux_target_dim >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(config.aux_target_dim)
    params = {
        "aux.proj.w": Tensor(
            rng.uniform(-bound, bound, (config.aux_target_dim, config.aux_width)),
            requires_grad=True,
        ),
        "aux.proj.b": Tensor(np.zeros(config.aux_width), requires_grad=True),
        "aux.logit_scale": Tensor(np.array(INIT_LOGIT_SCALE), requires_grad=True),
    }
    if config.aux_width != config.hidden:
        hb = 1.0 / np.sqrt(config.hidden)
        params["aux.enc.w"] = Tensor(
            rng.uniform(-hb, hb, (config.hidden, config.aux_width)), requires_grad=True
        )
        params["aux.enc.b"] = Tensor(np.zeros(config.aux_width), requires_grad=True)
    return params


# -- batches and steps ------------------------------------------------------------


@dataclass
class Batch:
    tokens: np.ndarray                     # (B, L, K)
    streams: dict[str, np.ndarray]         # name -> (B, N, C)
    targets: np.ndarray | None = None      # (B, N_t, C_t) raw auxiliary features
    masks: np.ndarray | None = None        # optional pre-drawn (B, L, K) flags


@dataclass
class StepResult:
    loss: LossBreakdown
    lr: float
    accuracy: float | None


def compute_losses(
    model: MaskedGridTransformer,
    aux: dict[str, Tensor],
    batch: Batch,
    masks: np.ndarray,
    drop: np.ndarray | None,
    lambda_reg: float,
    lambda_cont: float,
) -> tuple:
    """Forward pass plus total-loss graph; returns (total, logits, parts, enc_out)."""
    logits, enc_out = model.forward(batch.tokens, masks, batch.streams, drop)
    l_mask = masked_ce_t(logits, batch.tokens, masks)
    parts = {"l_mask": l_mask.item()}
    total = l_mask
    if model.config.uses_encoder:
        if batch.targets is None:
            raise ValidationError(
                f"{model.config.structure} training requires auxiliary targets"
            )
        proj = ad.linear(
            Tensor(np.asarray(batch.targets, dtype=np.float64)),
            aux["aux.proj.w"], aux["aux.proj.b"],
        )
        enc_seq, enc_cls = enc_out.sequence, enc_out.cls
        if "aux.enc.w" in aux:
            enc_seq = ad.linear(enc_seq, aux["aux.enc.w"], aux["aux.enc.b"])
            enc_cls = ad.linear(enc_cls, aux["aux.enc.w"], aux["aux.enc.b"])
        l_mse = seq_mse_t(enc_seq, proj)
        temperature = ad.exp(-aux["aux.logit_scale"])
        l_cont = clip_contrastive_t(enc_cls, ad.tmean(proj, axis=1), temperature)
        parts["l_mse"] = l_mse.item()
        parts["l_cont"] = l_cont.item()
        total = total + lambda_reg * l_mse + lambda_cont * l_cont
    else:
        parts["l_mse"] = 0.0
        parts["l_cont"] = 0.0
    for name, value in parts.items():
        if not math.isfinite(value):
            raise NonFiniteError(f"loss component {name}")
    return total, logits, parts, enc_out


def train_step(
    model: MaskedGridTransformer,
    aux: dict[str, Tensor],
    optimizer: AdamW,
    batch: Batch,
    step: int,
    schedule: LrSchedule,
    rng: np.random.Generator,
    lambda_reg: float = 1.0,
    lambda_cont: float = 1.0,
) -> StepResult:
    """One optimizer step: draw masks, apply conditioning dropout, update."""
    b, length, levels = batch.tokens.shape
    if batch.masks is not None:
        masks = batch.masks
    else:
        masks = np.stack(
            [draw_train_mask(length, levels, rng).mask.flags for _ in range(b)]
        )
    prob = model.config.cond_dropout_prob
    drop = rng.random(b) < prob if prob > 0 else None
    total, logits, parts, _ = compute_losses(
        model, aux, batch, masks, drop, lambda_reg, lambda_cont
    )
    lr = schedule.at(step)
    optimizer.zero_grad()
    total.backward()
    optimizer.step(lr)
    if "aux.logit_scale" in aux:
        aux["aux.logit_scale"].data = np.clip(
            aux["aux.logit_scale"].data, 0.0, MAX_LOGIT_SCALE
        )
    accuracy = masked_token_accuracy(logits, batch.tokens, masks)
    loss = LossBreakdown(
        l_mask=parts["l_mask"], l_mse=parts["l_mse"], l_contrastive=parts["l_cont"],
        lambda_reg=lambda_reg, lambda_cont=lambda_cont,
    )
    return StepResult(loss=loss, lr=lr, accuracy=accuracy)


METRICS_HEADER = "step,l_mask,l_mse,l_cont,lr,accuracy"


def metrics_line(step: int, result: StepResult) -> str:
    acc = "" if result.accuracy is None else repr(result.accuracy)
    parts = result.loss
    return (
        f"{step},{parts.l_mask!r},{parts.l_mse!r},{parts.l_contrastive!r},"
        f"{result.lr!r},{acc}"
    )


def train_model(
    model: MaskedGridTransformer,
    aux: dict[str, Tensor],
    examples: list[dict],
    config: TrainConfig,
    log_lines: list[str] | None = None,
) -> list[StepResult]:
    """Minibatch loop over in-memory examples; returns per-step results."""
    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(
        {**model.params, **aux}, weight_decay=config.weight_decay
    )
    schedule = config.schedule()
    n = len(examples)
    if n == 0:
        raise ValidationError("cannot train on an empty example list")
    history: list[StepResult] = []
    if log_lines is not None:
        log_lines.append(METRICS_HEADER)
    order = rng.permutation(n)
    cursor = 0
    for step in range(config.steps):
        if cursor + config.batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor:cursor + config.batch_size]
        cursor += config.batch_size
        chosen = [examples[i] for i in idx]
        batch = Batch(
            tokens=np.stack([e["tokens"] for e in chosen]),
            streams={
                name: np.stack([e["streams"][name] for e in chosen])
                for name in chosen[0]["streams"]
            },
            targets=(
                np.stack([e["target"] for e in chosen])
                if chosen[0].get("target") is not None else None
            ),
        )
        result = train_step(
            model, aux, optimizer, batch, step, schedule, rng,
            lambda_reg=config.lambda_reg, lambda_cont=config.lambda_cont,
        )
        history.append(result)
        if log_lines is not None:
            log_lines.append(metrics_line(step, result))
    return history


def evaluate_masked_accuracy(
    model: MaskedGridTransformer,
    examples: list[dict],
    seed: int,
    batch_size: int = 32,
) -> float:
    """Masked-token prediction accuracy over held-out examples with drawn masks."""
    rng = np.random.default_rng(seed)
    hits = 0
    count = 0
    for start in range(0, len(examples), batch_size):
        chosen = examples[start:start + batch_size]
        tokens = np.stack([e["tokens"] for e in chosen])
        streams = {
            name: np.stack([e["streams"][name] for e in chosen])
            for name in chosen[0]["streams"]
        }
        b, length, levels = tokens.shape
        masks = np.stack(
            [draw_train_mask(length, levels, rng).mask.flags for _ in range(b)]
        )
        # ensure at least one masked position per example so every grid counts
        for i in range(b):
            if not masks[i].any():
                masks[i, rng.integers(length), rng.integers(levels)] = True
        with ad.no_grad():
            logits, _ = model.forward(tokens, masks, streams, None)
        pred = logits.data.argmax(axis=-1)
        hits += int((pred[masks] == tokens[masks]).sum())
        count += int(masks.sum())
    return hits / count if count else float("nan")
