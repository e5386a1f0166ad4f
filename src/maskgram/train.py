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
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NonFiniteError, ShapeMismatchError, ValidationError
from .features import resample_indices, stack_rows, stack_streams
from .model import MaskedGridTransformer, ModelConfig, init_params, linear_layout
from .scheduler import draw_train_mask

INIT_LOGIT_SCALE = math.log(1.0 / 0.07)
MAX_LOGIT_SCALE = math.log(100.0)


# -- loss terms ---------------------------------------------------------------


def masked_ce_t(logits: Tensor, tokens: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of true tokens over masked positions."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        return Tensor(0.0)
    log_probs = ad.log_softmax(logits, axis=-1)
    picked = ad.take_along_last(log_probs, np.asarray(tokens, dtype=np.int64))
    return ad.tsum(picked * np.where(mask, -1.0 / count, 0.0))


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


def _diag_ce(sim: Tensor) -> Tensor:
    b = sim.shape[0]
    log_probs = ad.log_softmax(sim, axis=-1)
    diag = ad.take_along_last(log_probs, np.arange(b, dtype=np.int64))
    return -ad.tmean(diag)


def symmetric_diag_ce(sim: Tensor) -> Tensor:
    """Mean of the row-wise and column-wise cross-entropies of a (B, B) similarity
    matrix whose diagonal holds the matched pairs."""
    return (_diag_ce(sim) + _diag_ce(ad.swapaxes(sim, 0, 1))) * 0.5


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
    return symmetric_diag_ce(sim)


def masked_token_accuracy(logits: np.ndarray, tokens: np.ndarray,
                          flags: np.ndarray) -> float | None:
    """Fraction of masked positions whose argmax logit hits the true token.

    Returns None when nothing is masked (not applicable).
    """
    if not flags.any():
        return None
    pred = logits.argmax(axis=-1)
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
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.warmup < 0:
            raise ValidationError(f"warmup must be >= 0, got {self.warmup}")
        for name in ("peak_lr", "floor_lr", "weight_decay", "lambda_reg", "lambda_cont"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # a chained comparison, so that nan fails
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")

    def lr_at(self, step: int) -> float:
        """Linear warmup to peak_lr, then linear decay down to floor_lr at `steps`."""
        if self.warmup > 0 and step < self.warmup:
            return self.peak_lr * step / self.warmup
        if self.steps <= self.warmup:
            return self.peak_lr
        frac = min((step - self.warmup) / (self.steps - self.warmup), 1.0)
        return self.floor_lr + (self.peak_lr - self.floor_lr) * (1.0 - frac)


def init_aux_params(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    """Learnable projection of raw auxiliary targets plus contrastive scale."""
    if not config.uses_encoder:
        return {}
    if config.aux_target_dim < 1:
        raise ValidationError("seq2seq/hybrid training requires aux_target_dim >= 1")
    return init_params({**linear_layout("aux.proj", config.aux_target_dim, config.hidden),
                        "aux.logit_scale": ((), ("fill", INIT_LOGIT_SCALE))}, seed)


# -- batches and steps ------------------------------------------------------------


@dataclass
class Batch:
    tokens: np.ndarray                     # (B, L, K)
    streams: dict[str, np.ndarray]         # name -> (B, N, C)
    targets: np.ndarray | None = None      # (B, N_t, C_t) raw auxiliary features


def _stack_examples(examples: list[dict]) -> Batch:
    """One checked batch from example dicts; targets only when the examples carry them."""
    return Batch(
        tokens=stack_rows(examples, "tokens"),
        streams=stack_streams([e["streams"] for e in examples]),
        targets=(
            stack_rows(examples, "target")
            if examples[0].get("target") is not None else None
        ),
    )


def _draw_masks(shape: tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """(B, L, K) training masks, one `draw_train_mask` per row in row order."""
    b, length, levels = shape
    return np.stack([draw_train_mask(length, levels, rng).mask.flags for _ in range(b)])


@dataclass(frozen=True)
class StepResult:
    """One training step, its fields in metrics.csv column order."""

    l_mask: float
    l_mse: float
    l_cont: float
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
        l_mse = seq_mse_t(enc_out.sequence, proj)
        temperature = ad.exp(-aux["aux.logit_scale"])
        l_cont = clip_contrastive_t(enc_out.cls, ad.tmean(proj, axis=1), temperature)
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
    config: TrainConfig,
    rng: np.random.Generator,
) -> StepResult:
    """One optimizer step: draw masks, apply conditioning dropout, update."""
    masks = _draw_masks(batch.tokens.shape, rng)
    prob = model.config.cond_dropout_prob
    drop = rng.random(len(masks)) < prob if prob > 0 else None
    total, logits, parts, _ = compute_losses(
        model, aux, batch, masks, drop, config.lambda_reg, config.lambda_cont
    )
    lr = config.lr_at(step)
    optimizer.zero_grad()
    total.backward()
    optimizer.step(lr)
    if "aux.logit_scale" in aux:
        aux["aux.logit_scale"].data = np.clip(
            aux["aux.logit_scale"].data, 0.0, MAX_LOGIT_SCALE
        )
    accuracy = masked_token_accuracy(logits.data, batch.tokens, masks)
    return StepResult(**parts, lr=lr, accuracy=accuracy)


METRICS_HEADER = ",".join(["step", *(f.name for f in fields(StepResult))])


def metrics_line(step: int, result: StepResult) -> str:
    """One metrics.csv row; a None accuracy leaves the last column empty."""
    return ",".join([str(step), *("" if v is None else repr(v) for v in astuple(result))])


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
        batch = _stack_examples([examples[i] for i in idx])
        result = train_step(model, aux, optimizer, batch, step, config, rng)
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
        batch = _stack_examples(examples[start:start + batch_size])
        tokens = batch.tokens
        b, length, levels = tokens.shape
        masks = _draw_masks(tokens.shape, rng)
        # ensure at least one masked position per example so every grid counts
        for i in range(b):
            if not masks[i].any():
                masks[i, rng.integers(length), rng.integers(levels)] = True
        with ad.no_grad():
            logits, _ = model.forward(tokens, masks, batch.streams, None)
        pred = logits.data.argmax(axis=-1)
        hits += int((pred[masks] == tokens[masks]).sum())
        count += int(masks.sum())
    return hits / count if count else float("nan")
