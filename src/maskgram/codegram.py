"""Token-grid data model: codebook spec, grids, masks, file IO.

A codegram is an L x K grid of discrete token indices: L time-steps, K
hierarchical levels sharing one vocabulary size D per level. Grids are
immutable after construction; all operations here are pure.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptHeaderError,
    MalformedJsonError,
    ShapeMismatchError,
    TokenRangeError,
    TrailingBytesError,
    TruncatedPayloadError,
    ValidationError,
)

MAGIC = b"CGRM"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIIId")  # magic, version, L, K, D, frame_rate


@dataclass(frozen=True)
class CodebookSpec:
    """Shape and vocabulary of the residual-level token grid.

    Defaults match a 9-level, 1024-codeword full-band codec running at
    86.1 tokens per second; desk-scale runs override them.
    """

    levels: int = 9
    vocab_size: int = 1024
    embed_dim: int = 8
    frame_rate: float = 86.1

    def __post_init__(self):
        if self.levels < 1:
            raise ValidationError(f"levels must be >= 1, got {self.levels}")
        if self.vocab_size < 2:
            raise ValidationError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.embed_dim < 1:
            raise ValidationError(f"embed_dim must be >= 1, got {self.embed_dim}")

    @property
    def mask_token(self) -> int:
        """Sentinel id one past the vocabulary, marking masked positions."""
        return self.vocab_size


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Codegram:
    """Immutable L x K grid of token indices in [0, vocab_size)."""

    tokens: np.ndarray
    spec: CodebookSpec

    def __post_init__(self):
        tokens = np.ascontiguousarray(self.tokens, dtype=np.int32)
        if tokens.ndim != 2:
            raise ValidationError(f"tokens must be 2-D (L, K), got ndim={tokens.ndim}")
        length, levels = tokens.shape
        if length < 1:
            raise ValidationError("codegram must have at least one time-step")
        if levels != self.spec.levels:
            raise ShapeMismatchError("levels", self.spec.levels, levels)
        if tokens.min() < 0 or tokens.max() >= self.spec.vocab_size:
            raise TokenRangeError(
                f"token values must lie in [0, {self.spec.vocab_size}), "
                f"found range [{tokens.min()}, {tokens.max()}]"
            )
        object.__setattr__(self, "tokens", _freeze(tokens))

    @property
    def length(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class MaskTensor:
    """Boolean L x K grid; True marks a masked position."""

    flags: np.ndarray

    def __post_init__(self):
        flags = np.ascontiguousarray(self.flags, dtype=bool)
        if flags.ndim != 2:
            raise ValidationError(f"mask flags must be 2-D (L, K), got ndim={flags.ndim}")
        object.__setattr__(self, "flags", _freeze(flags))

    @property
    def count_masked(self) -> int:
        return int(self.flags.sum())

    @staticmethod
    def full(length: int, levels: int, value: bool = True) -> "MaskTensor":
        return MaskTensor(np.full((length, levels), value, dtype=bool))


# -- file format -----------------------------------------------------------------


def save_codegram(codegram: Codegram, path) -> None:
    """Fixed little-endian header + row-major 32-bit token payload."""
    length, levels = codegram.tokens.shape
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, length, levels, codegram.spec.vocab_size,
        codegram.spec.frame_rate,
    )
    payload = codegram.tokens.astype("<i4").tobytes(order="C")
    Path(path).write_bytes(header + payload)


def load_codegram(path, embed_dim: int = 8) -> Codegram:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than header ({len(raw)} bytes)")
    magic, version, length, levels, vocab, frame_rate = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptHeaderError(f"{path}: unsupported version {version}")
    if length < 1 or levels < 1 or vocab < 2:
        raise CorruptHeaderError(f"{path}: invalid dims L={length} K={levels} D={vocab}")
    expected = _HEADER.size + 4 * length * levels
    if len(raw) != expected:
        error = TruncatedPayloadError if len(raw) < expected else TrailingBytesError
        raise error(f"{path}: expected {expected} bytes, got {len(raw)}")
    tokens = np.frombuffer(raw, dtype="<i4", count=length * levels, offset=_HEADER.size)
    tokens = tokens.reshape(length, levels)
    if tokens.min() < 0 or tokens.max() >= vocab:
        raise TokenRangeError(f"{path}: token outside [0, {vocab})")
    spec = CodebookSpec(levels=levels, vocab_size=vocab, embed_dim=embed_dim,
                        frame_rate=frame_rate)
    return Codegram(tokens.copy(), spec)


def load_json(path) -> dict:
    """A JSON side file's top-level object; bad JSON is a file-format error."""
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJsonError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def dump_text(codegram: Codegram) -> str:
    """Human-readable dump: one line per time-step, K integers."""
    return "\n".join(" ".join(str(t) for t in row) for row in codegram.tokens) + "\n"
