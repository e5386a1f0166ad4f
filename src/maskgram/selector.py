"""Distance-contrastive sequence encoder pair and beam-candidate selection.

Two small encoders map frame-semantic ("clip-like") and audio-descriptor
("beats-like") feature sequences into a common N x H sequential space. They
train with a symmetric cross-entropy over negated pairwise sequence distances,
so matched pairs end up close in plain Euclidean terms. Selection picks the
candidate whose encoded sequence is nearest the encoded conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codegram import config_from
from .errors import ShapeMismatchError, ValidationError
from .features import resample_indices, stack_rows
from .model import Layout, check_records, init_params, linear_layout, load_checkpoint
from .seeding import derive_seed
from .train import AdamW, symmetric_diag_ce

AUDIO_SUBBANDS = 8  # audio branch emits N x 8 x H, mean-reduced before distances


@dataclass(frozen=True)
class ScavConfig:
    n_scav: int = 16
    h_scav: int = 24
    video_dim: int = 16
    audio_dim: int = 24
    width: int = 64
    temperature: float = 0.07

    def __post_init__(self):
        if min(self.n_scav, self.h_scav, self.video_dim, self.audio_dim, self.width) < 1:
            raise ValidationError(
                "n_scav, h_scav, video_dim, audio_dim and width must be >= 1"
            )
        if not 0 < self.temperature < np.inf:
            raise ValidationError(f"temperature must be finite and > 0, got {self.temperature}")


def scav_layout(config: ScavConfig) -> Layout:
    """The encoder pair's parameter shapes and inits, in the order they are drawn."""
    return {
        **linear_layout("video.fc1", config.video_dim, config.width),
        **linear_layout("video.fc2", config.width, config.h_scav),
        **linear_layout("audio.fc1", config.audio_dim, config.width),
        **linear_layout("audio.fc2", config.width, config.h_scav * AUDIO_SUBBANDS),
    }


def init_scav_params(config: ScavConfig, seed: int) -> dict[str, Tensor]:
    return init_params(scav_layout(config), seed)


def scav_from_checkpoint(path) -> tuple[dict[str, Tensor], ScavConfig]:
    """A scav checkpoint's params and config (read by `config_from`), its records
    checked against the config's layout and for finite values."""
    params, _, meta = load_checkpoint(path)
    if "scav" not in meta:
        raise ValidationError(f"{path}: checkpoint does not describe a scav encoder")
    config = config_from(ScavConfig, meta["scav"], f"{path}.json", "scav")
    check_records(path, params, scav_layout(config))
    return params, config


def _encode(params: dict[str, Tensor], branch: str, feats, config: ScavConfig) -> Tensor:
    feats = np.asarray(feats, dtype=np.float64)
    squeeze = feats.ndim == 2
    if squeeze:
        feats = feats[None]
    if feats.shape[1] < 1:
        raise ValidationError(f"{branch} features are empty")
    width = config.video_dim if branch == "video" else config.audio_dim
    if feats.shape[2] != width:
        raise ShapeMismatchError(f"{branch} feature width", width, feats.shape[2])
    if not np.isfinite(feats).all():
        raise ValidationError(f"{branch} features hold non-finite values")
    feats = feats[:, resample_indices(feats.shape[1], config.n_scav)]
    x = ad.linear(Tensor(feats), params[f"{branch}.fc1.w"], params[f"{branch}.fc1.b"])
    x = ad.gelu(x)
    x = ad.linear(x, params[f"{branch}.fc2.w"], params[f"{branch}.fc2.b"])
    if branch == "audio":
        b = x.shape[0]
        x = ad.reshape(x, (b, config.n_scav, AUDIO_SUBBANDS, config.h_scav))
        x = ad.tmean(x, axis=2)
    return x[0] if squeeze else x


def scav_encode_video(params, feats, config: ScavConfig) -> np.ndarray:
    """Encode clip-like features to (n_scav, h_scav)."""
    with ad.no_grad():
        return _encode(params, "video", feats, config).data


def scav_encode_audio(params, feats, config: ScavConfig) -> np.ndarray:
    """Encode beats-like features to (n_scav, h_scav), sub-band mean reduced."""
    with ad.no_grad():
        return _encode(params, "audio", feats, config).data


def scav_distance(e_video: np.ndarray, e_audio: np.ndarray) -> float:
    """Mean squared Euclidean distance over the common sequence."""
    e_video = np.asarray(e_video, dtype=np.float64)
    e_audio = np.asarray(e_audio, dtype=np.float64)
    if e_video.shape != e_audio.shape:
        raise ShapeMismatchError("scav sequences", e_video.shape, e_audio.shape)
    diff = e_video - e_audio
    return float((diff * diff).mean())


def _pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared distance matrix between two (B, N, H) batches."""
    batch, n, h = a.shape
    a2 = ad.tsum(a * a, axis=(1, 2))                       # (B,)
    b2 = ad.tsum(b * b, axis=(1, 2))                       # (B,)
    af = ad.reshape(a, (batch, n * h))
    bf = ad.reshape(b, (batch, n * h))
    cross = ad.matmul(af, ad.swapaxes(bf, 0, 1))           # (B, B)
    d = ad.reshape(a2, (batch, 1)) + ad.reshape(b2, (1, batch)) - 2.0 * cross
    return d * (1.0 / (n * h))


def scav_contrastive_loss_t(e_video: Tensor, e_audio: Tensor,
                            temperature: float) -> Tensor:
    """Symmetric CE over negated pairwise distances; diagonal labels."""
    if e_video.shape[0] < 2:
        raise ValidationError("contrastive loss requires batch size >= 2")
    return symmetric_diag_ce(-_pairwise_sqdist(e_video, e_audio) * (1.0 / temperature))


def select_best(e_video: np.ndarray, candidate_feats: list[np.ndarray],
                params: dict[str, Tensor], config: ScavConfig) -> tuple[int, list[float]]:
    """Index of the candidate with minimal distance; ties go to the lowest index."""
    if not candidate_feats:
        raise ValidationError("candidate list is empty")
    distances = [
        scav_distance(e_video, scav_encode_audio(params, feats, config))
        for feats in candidate_feats
    ]
    return int(np.argmin(distances)), distances


def train_scav(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    config: ScavConfig,
    seed: int,
    steps: int = 400,
    batch_size: int = 32,
    lr: float = 1e-3,
) -> dict[str, Tensor]:
    """Fit the encoder pair on (clip-like, beats-like) feature sequences."""
    if len(pairs) < 2:
        raise ValidationError("training requires at least two pairs")
    if steps < 1 or batch_size < 2:
        raise ValidationError(f"scav training needs steps >= 1 and batch_size >= 2, "
                              f"got {steps} and {batch_size}")
    params = init_scav_params(config, seed)
    optimizer = AdamW(params, weight_decay=1e-5)
    rng = np.random.default_rng(derive_seed(seed, "scav-train"))
    n = len(pairs)
    for _ in range(steps):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        rows = [{"video": pairs[i][0], "audio": pairs[i][1]} for i in idx]
        e_v = _encode(params, "video", stack_rows(rows, "video"), config)
        e_a = _encode(params, "audio", stack_rows(rows, "audio"), config)
        loss = scav_contrastive_loss_t(e_v, e_a, config.temperature)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step(lr)
    return params
