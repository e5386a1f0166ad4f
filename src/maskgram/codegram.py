"""Token-grid data model: codebook spec, grids, masks, file IO.

A codegram is an L x K grid of discrete token indices: L time-steps, K
hierarchical levels sharing one vocabulary size D per level. Grids are
immutable after construction; all operations here are pure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
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
    frame_rate: float = 86.1

    def __post_init__(self):
        if self.levels < 1:
            raise ValidationError(f"levels must be >= 1, got {self.levels}")
        if self.vocab_size < 2:
            raise ValidationError(f"vocab_size must be >= 2, got {self.vocab_size}")

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


def load_codegram(path) -> Codegram:
    reader = ByteReader(path)
    magic, version, length, levels, vocab, frame_rate = reader.unpack(_HEADER, "header")
    if magic != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CorruptHeaderError(f"{path}: unsupported version {version}")
    if length < 1 or levels < 1 or vocab < 2:
        raise CorruptHeaderError(f"{path}: invalid dims L={length} K={levels} D={vocab}")
    tokens = reader.array("<i4", (length, levels), "token payload")
    reader.finish()
    if tokens.min() < 0 or tokens.max() >= vocab:
        raise TokenRangeError(f"{path}: token outside [0, {vocab})")
    # a copy: the view sits at byte 26 of the file, unaligned for int32
    return Codegram(tokens.copy(), CodebookSpec(levels=levels, vocab_size=vocab,
                                                frame_rate=frame_rate))


# -- shared readers for binary and JSON side files ------------------------------------


class ByteReader:
    """Bounds-checked little-endian reads through one file's bytes, front to back.

    A read past the end raises TruncatedPayloadError and `finish` raises
    TrailingBytesError for bytes after the last field; each names the file and
    the field (`what`) being read.
    """

    def __init__(self, path):
        self.path = path
        self.raw = Path(path).read_bytes()
        self.offset = 0

    def _advance(self, size: int, what: str) -> int:
        start = self.offset
        if size > len(self.raw) - start:
            raise TruncatedPayloadError(
                f"{self.path}: truncated {what} at offset {start} of {len(self.raw)} bytes"
            )
        self.offset = start + size
        return start

    def unpack(self, layout: struct.Struct | str, what: str) -> tuple:
        if isinstance(layout, str):
            layout = struct.Struct(layout)
        return layout.unpack_from(self.raw, self._advance(layout.size, what))

    def take(self, size: int, what: str) -> bytes:
        start = self._advance(size, what)
        return self.raw[start:self.offset]

    def text(self, size: int, what: str) -> str:
        try:
            return self.take(size, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptHeaderError(f"{self.path}: {what} is not UTF-8") from exc

    def array(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Read-only view of the next prod(shape) items, stored row-major."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._advance(count * dtype.itemsize, what)
        flat = np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)
        try:
            return flat.reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CorruptHeaderError(f"{self.path}: {what} has shape {shape}") from exc

    def finish(self) -> None:
        """Raise unless the last field ended the file."""
        if self.offset != len(self.raw):
            raise TrailingBytesError(
                f"{self.path}: {len(self.raw) - self.offset} bytes after the last field"
            )


def load_json(path, version: int) -> dict:
    """A JSON side file's top-level object, whose "version" must be the JSON int
    `version` (not `true`, not `1.0`); bad JSON is a file-format error."""
    try:
        data = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedJsonError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    found = data.get("version")
    if type(found) is not int or found != version:
        raise ValidationError(f"{path}: version must be {version}, got {found!r}")
    return data


# keys that older JSON side files hold for config fields since deleted; readers skip them
RETIRED_KEYS = frozenset({"target_embed_dim", "embed_dim"})


def config_from(cls, data, where, name: str):
    """The config dataclass `cls` built from `data`, the JSON value at `name` in `where`.

    Every field must be present at its declared type: a JSON int passes for a float,
    `true` for nothing but a bool. Config dataclasses, and tuples of them, nest as
    objects and lists. A key that is no field is an error unless RETIRED_KEYS holds
    it. Each error names `where` and the field."""
    if type(data) is not dict:
        raise ValidationError(f"{where}: {name} must be a JSON object, got {data!r}")
    fields = [f.name for f in dataclasses.fields(cls)]
    odd = sorted(set(fields) ^ (set(data) - RETIRED_KEYS))
    if odd:
        kind = "missing" if odd[0] in fields else "unknown"
        raise ValidationError(f"{where}: {kind} field {name}.{odd[0]}")
    hints = typing.get_type_hints(cls)
    values = {key: json_value(hints[key], data[key], where, f"{name}.{key}")
              for key in fields}
    try:
        return cls(**values)
    except ValidationError as exc:  # a range check of the config itself
        raise ValidationError(f"{where}: {name}: {exc}") from exc


def json_value(hint, value, where, name: str):
    """`value`, the JSON value of field `name` in `where`, checked against the type
    `hint` as `config_from` checks every field."""
    if dataclasses.is_dataclass(hint):
        return config_from(hint, value, where, name)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...], a JSON list
        if type(value) is not list:
            raise ValidationError(f"{where}: {name} must be a JSON list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(json_value(item, v, where, f"{name}[{i}]") for i, v in enumerate(value))
    if type(value) is not hint and not (hint is float and type(value) is int):
        raise ValidationError(f"{where}: {name} must be a JSON {hint.__name__}, "
                              f"got {value!r}")
    return value


def dump_text(codegram: Codegram) -> str:
    """Human-readable dump: one line per time-step, K integers."""
    return "\n".join(" ".join(str(t) for t in row) for row in codegram.tokens) + "\n"
