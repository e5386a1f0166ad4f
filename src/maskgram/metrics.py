"""Objective evaluation: Fréchet distance, cosine scores, novelty correlation.

The Fréchet distance works on Gaussian statistics fit to any ingested
embedding set; the only built-in extractor is the MFCC-like front-end
(2048-sample windows, 512 shift, 128 mel filters, 64 coefficients). The
novelty score follows the checkerboard-kernel self-similarity method and
reports the Pearson correlation between two novelty curves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .features import load_features, resample_nn, save_features

WINDOW = 2048
SHIFT = 512
N_MELS = 128
N_MFCC = 64


@dataclass(frozen=True)
class EmbeddingSet:
    """n x d embedding collection tagged with its front-end label."""

    vectors: np.ndarray
    front_end_name: str

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] < 1:
            raise ValidationError("embedding set must be a non-empty 2-D matrix")
        if not np.isfinite(vectors).all():
            raise ValidationError("embedding set contains non-finite values")
        object.__setattr__(self, "vectors", vectors)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        save_features(path, self.vectors, self.front_end_name)

    @staticmethod
    def load(path) -> "EmbeddingSet":
        matrix, name = load_features(path)
        return EmbeddingSet(matrix, name)


@dataclass(frozen=True)
class GaussianStats:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        cov = np.ascontiguousarray(self.cov, dtype=np.float64)
        if cov.shape != (mean.size, mean.size):
            raise ShapeMismatchError("cov", (mean.size, mean.size), cov.shape)
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValidationError("covariance must be symmetric within 1e-10")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -1e-10 * max(1.0, abs(eigvals).max()):
            raise ValidationError("covariance has significantly negative eigenvalues")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @staticmethod
    def from_embeddings(embeddings: EmbeddingSet) -> "GaussianStats":
        """Sample mean/covariance; shrinkage kicks in when n < d + 1."""
        x = embeddings.vectors
        n, d = x.shape
        mean = x.mean(axis=0)
        centered = x - mean
        denom = max(n - 1, 1)
        cov = centered.T @ centered / denom
        cov = 0.5 * (cov + cov.T)
        if n < d + 1:
            eps = 1e-6 * max(np.trace(cov), 1e-12) / d
            cov = cov + eps * np.eye(d)
        return GaussianStats(mean, cov)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(0.5 * (mat + mat.T))
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), clamped at 0.

    The cross term uses the symmetrized product S_a^{1/2} S_b S_a^{1/2}; its
    eigenvalues are clipped at zero before the square root.
    """
    if a.mean.shape != b.mean.shape:
        raise ShapeMismatchError("mean", a.mean.shape, b.mean.shape)
    diff = a.mean - b.mean
    root_a = _psd_sqrt(a.cov)
    inner = root_a @ b.cov @ root_a
    eigvals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    trace_sqrt = np.sqrt(np.clip(eigvals, 0.0, None)).sum()
    value = diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * trace_sqrt
    return max(float(value), 0.0)


def frechet_from_sets(gen: EmbeddingSet, ref: EmbeddingSet) -> float:
    return frechet_distance(
        GaussianStats.from_embeddings(gen), GaussianStats.from_embeddings(ref)
    )


# -- MFCC-like front-end ---------------------------------------------------------


def frame_count(n_samples: int, window: int = WINDOW, shift: int = SHIFT) -> int:
    if n_samples < window:
        raise ValidationError(f"signal length {n_samples} shorter than window {window}")
    return (n_samples - window) // shift + 1


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank(n_fft: int, sample_rate: float, n_mels: int) -> np.ndarray:
    n_bins = n_fft // 2 + 1
    freqs = np.linspace(0.0, sample_rate / 2.0, n_bins)
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bank = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (freqs - lo) / max(center - lo, 1e-12)
        down = (hi - freqs) / max(hi - center, 1e-12)
        bank[m] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    # orthonormal DCT-II rows
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    return mat


def mfcc_like_frontend(signal: np.ndarray, sample_rate: float = 44100.0) -> EmbeddingSet:
    """Framewise 64-dim cepstral vectors from a 1-D signal."""
    signal = np.asarray(signal, dtype=np.float64).ravel()
    n_frames = frame_count(signal.size)
    window = np.hanning(WINDOW)
    bank = _mel_filterbank(WINDOW, sample_rate, N_MELS)
    dct = _dct_matrix(N_MFCC, N_MELS)
    frames = np.lib.stride_tricks.sliding_window_view(signal, WINDOW)[::SHIFT][:n_frames]
    spectra = np.abs(np.fft.rfft(frames * window, axis=-1))
    mel_energy = spectra @ bank.T
    log_mel = np.log(mel_energy + 1e-10)
    return EmbeddingSet(log_mel @ dct.T, "mfcc-like")


# -- cosine scores -----------------------------------------------------------------


def cosine_semantic(a_embed: np.ndarray, b_embed: np.ndarray) -> float:
    """Cosine of two L2-normalized vectors."""
    a = np.asarray(a_embed, dtype=np.float64).ravel()
    b = np.asarray(b_embed, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ShapeMismatchError("embedding", a.shape, b.shape)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine similarity of a zero vector is undefined")
    return float(a @ b / (na * nb))


# -- self-similarity novelty --------------------------------------------------------


def checkerboard_kernel(size: int) -> np.ndarray:
    """Gaussian-tapered checkerboard kernel, normalized by absolute sum."""
    if size < 2:
        raise ValidationError("kernel size must be >= 2")
    half = size / 2.0
    axis = np.arange(size) - (size - 1) / 2.0
    sign = np.sign(axis)
    taper = np.exp(-((axis / (half / 2.0)) ** 2))
    kernel = np.outer(sign, sign) * np.outer(taper, taper)
    total = np.abs(kernel).sum()
    return kernel / total if total > 0 else kernel


def _cosine_ssm(seq: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(seq, axis=1, keepdims=True)
    unit = seq / np.maximum(norms, 1e-12)
    return unit @ unit.T


def novelty_curve(seq: np.ndarray, kernel_size: int) -> np.ndarray:
    """Checkerboard correlation along the self-similarity diagonal."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise ValidationError("sequence must be 2-D (frames, dims)")
    n = seq.shape[0]
    if n < kernel_size:
        raise ValidationError(f"sequence length {n} shorter than kernel {kernel_size}")
    ssm = _cosine_ssm(seq)
    kernel = checkerboard_kernel(kernel_size)
    pad = kernel_size // 2
    padded = np.pad(ssm, pad, mode="constant")
    curve = np.empty(n)
    for i in range(n):
        curve[i] = np.sum(padded[i:i + kernel_size, i:i + kernel_size] * kernel)
    return curve


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc @ xc) * (yc @ yc))
    if denom == 0.0:
        warnings.warn("zero-variance novelty curve; correlation defined as 0")
        return 0.0
    return float(xc @ yc / denom)


def novelty_score(gen_seq: np.ndarray, ref_seq: np.ndarray,
                  kernel_size: int = 16) -> float:
    """Pearson correlation between two self-similarity novelty curves."""
    gen_curve = novelty_curve(gen_seq, kernel_size)
    ref_curve = novelty_curve(ref_seq, kernel_size)
    if gen_curve.size < ref_curve.size:
        gen_curve = resample_nn(gen_curve[:, None], ref_curve.size)[:, 0]
    elif ref_curve.size < gen_curve.size:
        ref_curve = resample_nn(ref_curve[:, None], gen_curve.size)[:, 0]
    return pearson(gen_curve, ref_curve)


def format_report(results: dict) -> str:
    """Metric name -> value as CSV lines, then a pretty table."""
    keys = sorted(results)

    def fmt(v):
        return repr(v) if isinstance(v, float) else str(v)

    lines = ["metric,value"] + [f"{k},{fmt(results[k])}" for k in keys]
    width = max(len(k) for k in keys)
    lines += ["", "metric".ljust(width) + "  value", "-" * (width + 9)]
    lines += [f"{k.ljust(width)}  {fmt(results[k])}" for k in keys]
    return "\n".join(lines) + "\n"
