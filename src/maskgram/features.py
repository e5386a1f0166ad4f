"""Conditioning feature sequences and their length adaptation.

Feature sequences stand in for pretrained frame-level encoders: each stream is
an N x C real matrix tagged with a semantic role. Two roles exist:
frame-semantic streams ("clip-like", one vector per frame) and
alignment-sensitive streams ("s3d-like", tuned to event onsets). Streams of
different lengths are reconciled by nearest-neighbor resampling (frame
repetition).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeaderError,
    MissingStreamError,
    ShapeMismatchError,
    TrailingBytesError,
    TruncatedPayloadError,
    ValidationError,
)

FRAME_SEMANTIC = "frame-semantic"
ALIGNMENT_SENSITIVE = "alignment-sensitive"
_ROLES = (FRAME_SEMANTIC, ALIGNMENT_SENSITIVE)


@dataclass(frozen=True)
class FeatureStream:
    """One named conditioning sequence (frames x channels)."""

    name: str
    sequence: np.ndarray
    role: str

    def __post_init__(self):
        seq = np.ascontiguousarray(self.sequence, dtype=np.float64)
        if seq.ndim != 2 or seq.shape[0] < 1:
            raise ValidationError(
                f"stream {self.name!r} must be a non-empty 2-D (frames, channels) matrix"
            )
        if not np.isfinite(seq).all():
            raise ValidationError(f"stream {self.name!r} contains non-finite values")
        if self.role not in _ROLES:
            raise ValidationError(f"unknown stream role {self.role!r}")
        seq.setflags(write=False)
        object.__setattr__(self, "sequence", seq)

    @property
    def frames(self) -> int:
        return self.sequence.shape[0]

    @property
    def channels(self) -> int:
        return self.sequence.shape[1]


@dataclass(frozen=True)
class ConditioningBundle:
    """Ordered collection of feature streams for one example."""

    streams: tuple[FeatureStream, ...]

    def __post_init__(self):
        if not self.streams:
            raise ValidationError("bundle must contain at least one stream")
        names = [s.name for s in self.streams]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate stream names: {names}")

    def get(self, name: str) -> FeatureStream:
        for s in self.streams:
            if s.name == name:
                return s
        raise MissingStreamError(f"no stream named {name!r}")


def resample_indices(n_in: int, n_out: int) -> np.ndarray:
    """Source index per output frame: round-half-down(j * n_in / n_out), clamped.

    Integer-exact: round-half-down(x) == ceil(x - 1/2), evaluated on the exact
    rational 2*j*n_in - n_out over 2*n_out.
    """
    if n_in < 1:
        raise ValidationError("input sequence is empty")
    if n_out < 1:
        raise ValidationError(f"n_out must be >= 1, got {n_out}")
    j = np.arange(n_out, dtype=np.int64)
    src = -((-(2 * j * n_in - n_out)) // (2 * n_out))
    return np.clip(src, 0, n_in - 1)


def resample_nn(seq: np.ndarray, n_out: int) -> np.ndarray:
    """Nearest-neighbor resampling (frame repetition) along the first axis."""
    seq = np.asarray(seq)
    return seq[resample_indices(seq.shape[0], n_out)]


# -- feature file format -----------------------------------------------------
# Shared by conditioning streams, auxiliary targets, and metric embeddings.

MAGIC = b"EMBS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIH")  # magic, version, n, d, name length


def save_features(path, matrix: np.ndarray, name: str) -> None:
    """Header (magic, n, d, name) + row-major 32-bit floats."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValidationError("feature matrix must be 2-D")
    name_bytes = name.encode("utf-8")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, matrix.shape[0], matrix.shape[1],
                          len(name_bytes))
    Path(path).write_bytes(header + name_bytes + matrix.tobytes(order="C"))


def load_features(path) -> tuple[np.ndarray, str]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than header")
    magic, version, n, d, name_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptHeaderError(f"{path}: unsupported version {version}")
    offset = _HEADER.size
    if len(raw) < offset + name_len:
        raise TruncatedPayloadError(f"{path}: header name truncated")
    name = raw[offset:offset + name_len].decode("utf-8")
    offset += name_len
    expected = offset + 4 * n * d
    if len(raw) != expected:
        error = TruncatedPayloadError if len(raw) < expected else TrailingBytesError
        raise error(f"{path}: expected {expected} bytes, got {len(raw)}")
    matrix = np.frombuffer(raw, dtype="<f4", count=n * d, offset=offset).reshape(n, d)
    return matrix.astype(np.float64), name


def stack_streams(bundles: list[ConditioningBundle]) -> dict[str, np.ndarray]:
    """Stack equally-shaped streams across a batch: name -> (B, N, C)."""
    first = bundles[0]
    stacked = {}
    for stream in first.streams:
        mats = []
        for bundle in bundles:
            s = bundle.get(stream.name)
            if s.sequence.shape != stream.sequence.shape:
                raise ShapeMismatchError(
                    f"stream {stream.name!r}", stream.sequence.shape, s.sequence.shape
                )
            mats.append(s.sequence)
        stacked[stream.name] = np.stack(mats, axis=0)
    return stacked
