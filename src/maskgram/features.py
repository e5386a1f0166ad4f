"""Conditioning feature sequences, their batching and length adaptation.

Feature sequences stand in for pretrained frame-level encoders. A row's
conditioning is a dict of streams, name -> (N, C) real matrix, as
`make_example` and `load_example` produce it; the model's `StreamSpec`s say
which stream is frame-semantic ("clip-like", one vector per frame) and which is
alignment-sensitive ("s3d-like", tuned to event onsets). Per-row arrays become
a batch only through `stack_rows`, which checks them. Streams of different
lengths are reconciled by nearest-neighbor resampling (frame repetition).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .codegram import ByteReader
from .errors import (
    CorruptHeaderError,
    MissingStreamError,
    ShapeMismatchError,
    ValidationError,
)

FRAME_SEMANTIC = "frame-semantic"
ALIGNMENT_SENSITIVE = "alignment-sensitive"


def stack_rows(rows, field: str) -> np.ndarray:
    """`row[field]` of every row, stacked on a new leading axis.

    The one rule for turning per-row data into a batch: every row holds the
    field (else MissingStreamError), at row 0's shape (else ShapeMismatchError
    naming the field), and float data is non-empty and finite.
    """
    try:
        arrays = [np.asarray(row[field]) for row in rows]
    except KeyError:
        raise MissingStreamError(f"a row has no {field!r}") from None
    shape = arrays[0].shape
    for arr in arrays:
        if arr.shape != shape:
            raise ShapeMismatchError(f"{field!r} across rows", shape, arr.shape)
    out = np.stack(arrays)
    if out.dtype.kind == "f" and not (out.size and np.isfinite(out).all()):
        raise ValidationError(f"{field!r} is empty or holds non-finite values")
    return out


def stack_streams(rows: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Per-row stream dicts as one batch, name -> (B, N, C), each by `stack_rows`."""
    return {name: stack_rows(rows, name) for name in rows[0]}


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
    reader = ByteReader(path)
    magic, version, n, d, name_len = reader.unpack(_HEADER, "header")
    if magic != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptHeaderError(f"{path}: unsupported version {version}")
    name = reader.text(name_len, "stream name")
    matrix = reader.array("<f4", (n, d), "feature payload")
    reader.finish()
    return matrix.astype(np.float64), name
