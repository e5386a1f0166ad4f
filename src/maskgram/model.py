"""Trainable masked-grid transformer with three conditioning structures.

adaln: stacks blocks whose layer-norm scale/shift/gate come from a
conditioning sequence aligned (by frame repetition) to the token length.
seq2seq: a transformer encoder embeds the conditioning; decoder blocks mix it
in through cross-attention. hybrid: cross-attention to the encoded
frame-semantic streams plus AdaLN modulation from the alignment-sensitive
streams.

The forward pass runs on the in-package autodiff engine in float64; gradients
come from the handwritten VJPs and are checked against finite differences in
the tests.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codegram import ByteReader, CodebookSpec, config_from, load_json
from .errors import (
    CorruptHeaderError,
    MissingStreamError,
    NonFiniteError,
    ShapeMismatchError,
    ValidationError,
)
from .features import ALIGNMENT_SENSITIVE, FRAME_SEMANTIC, resample_indices

STRUCTURES = ("adaln", "seq2seq", "hybrid")

# modulation chunk order within the per-block 6H projection
_MOD_FIELDS = ("shift_attn", "scale_attn", "gate_attn", "shift_mlp", "scale_mlp", "gate_mlp")


@dataclass(frozen=True)
class StreamSpec:
    """Declared conditioning stream: name, channel width, semantic role."""

    name: str
    channels: int
    role: str


@dataclass(frozen=True)
class ModelConfig:
    structure: str
    spec: CodebookSpec
    streams: tuple[StreamSpec, ...]
    depth: int = 4
    hidden: int = 128
    heads: int = 4
    encoder_depth: int = 2
    aux_target_dim: int = 0
    cond_dropout_prob: float = 0.10
    max_len: int = 256
    cond_max_len: int = 256

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValidationError(f"unknown structure {self.structure!r}")
        for name in ("depth", "heads", "hidden"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.cond_dropout_prob <= 1:  # a chained comparison, so that nan fails
            raise ValidationError(f"cond_dropout_prob must lie in [0, 1], got "
                                  f"{self.cond_dropout_prob}")
        if self.hidden % self.heads != 0:
            raise ValidationError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
            )
        if not self.streams:
            raise ValidationError("at least one conditioning stream must be declared")
        roles = {s.role for s in self.streams}
        if self.structure in ("seq2seq", "hybrid") and FRAME_SEMANTIC not in roles:
            raise MissingStreamError(f"{self.structure} requires a frame-semantic stream")
        if self.structure == "hybrid" and ALIGNMENT_SENSITIVE not in roles:
            raise MissingStreamError("hybrid requires an alignment-sensitive stream")

    @property
    def uses_encoder(self) -> bool:
        return self.structure in ("seq2seq", "hybrid")

    def encoder_streams(self) -> tuple[StreamSpec, ...]:
        if self.structure == "hybrid":
            return tuple(s for s in self.streams if s.role == FRAME_SEMANTIC)
        return self.streams

    def adaln_streams(self) -> tuple[StreamSpec, ...]:
        if self.structure == "hybrid":
            return tuple(s for s in self.streams if s.role == ALIGNMENT_SENSITIVE)
        return self.streams


@dataclass
class EncoderOutput:
    """Pooled representative plus the per-frame encoder sequence (no CLS)."""

    cls: Tensor
    sequence: Tensor


class MaskedGridTransformer:
    """Parameter container plus forward pass for all three structures."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.forward_calls = 0
        self._init_params(np.random.default_rng(seed))

    # -- parameters ---------------------------------------------------------

    def _param(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data, requires_grad=True)

    def _linear_init(self, rng, name: str, n_in: int, n_out: int) -> None:
        bound = 1.0 / np.sqrt(n_in)
        self._param(f"{name}.w", rng.uniform(-bound, bound, (n_in, n_out)))
        self._param(f"{name}.b", np.zeros(n_out))

    def _norm_init(self, name: str, width: int) -> None:
        self._param(f"{name}.g", np.ones(width))
        self._param(f"{name}.b", np.zeros(width))

    def _attn_init(self, rng, name: str, width: int) -> None:
        for part in ("q", "k", "v", "o"):
            self._linear_init(rng, f"{name}.{part}", width, width)

    def _mlp_init(self, rng, name: str, width: int) -> None:
        self._linear_init(rng, f"{name}.fc1", width, 4 * width)
        self._linear_init(rng, f"{name}.fc2", 4 * width, width)

    def _modulation_init(self, name: str, width: int) -> None:
        # neutral start: shift=0, scale=1, gate=1, so blocks begin unmodulated
        self._param(f"{name}.w", np.zeros((width, 6 * width)))
        bias = np.zeros(6 * width)
        for i, fld in enumerate(_MOD_FIELDS):
            if fld.startswith(("scale", "gate")):
                bias[i * width:(i + 1) * width] = 1.0
        self._param(f"{name}.b", bias)

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        h = cfg.hidden
        d = cfg.spec.vocab_size
        emb_bound = 1.0 / np.sqrt(h)
        for k in range(cfg.spec.levels):
            self._param(f"tok.{k}.table", rng.uniform(-emb_bound, emb_bound, (d, h)))
            self._param(f"tok.{k}.mask", rng.uniform(-emb_bound, emb_bound, (1, h)))
        self._param("tok.pos", rng.normal(0.0, 0.02, (cfg.max_len, h)))
        for s in cfg.streams:
            self._param(f"null.{s.name}", rng.normal(0.0, 0.02, (1, s.channels)))

        if cfg.structure in ("adaln", "hybrid"):
            ada_width = sum(s.channels for s in cfg.adaln_streams())
            self._linear_init(rng, "ada.in1", ada_width, h)
            self._linear_init(rng, "ada.in2", h, h)

        if cfg.uses_encoder:
            enc_width = sum(s.channels for s in cfg.encoder_streams())
            self._linear_init(rng, "enc.in", enc_width, h)
            self._param("enc.cls", rng.normal(0.0, 0.02, (1, h)))
            self._param("enc.pos", rng.normal(0.0, 0.02, (cfg.cond_max_len, h)))
            for j in range(cfg.encoder_depth):
                self._norm_init(f"enc.{j}.norm1", h)
                self._attn_init(rng, f"enc.{j}.attn", h)
                self._norm_init(f"enc.{j}.norm2", h)
                self._mlp_init(rng, f"enc.{j}.mlp", h)
            self._norm_init("enc.norm", h)

        for i in range(cfg.depth):
            self._attn_init(rng, f"blk.{i}.attn", h)
            self._mlp_init(rng, f"blk.{i}.mlp", h)
            if cfg.structure == "adaln":
                self._modulation_init(f"blk.{i}.ada", h)
            elif cfg.structure == "seq2seq":
                self._norm_init(f"blk.{i}.norm1", h)
                self._norm_init(f"blk.{i}.norm2", h)
                self._norm_init(f"blk.{i}.norm3", h)
                self._attn_init(rng, f"blk.{i}.xattn", h)
            else:  # hybrid
                self._modulation_init(f"blk.{i}.ada", h)
                self._norm_init(f"blk.{i}.xnorm", h)
                self._attn_init(rng, f"blk.{i}.xattn", h)

        self._norm_init("trunk.norm", h)
        for k in range(cfg.spec.levels):
            self._linear_init(rng, f"head.{k}", h, d)

    def n_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def check_finite_params(self) -> None:
        for name, p in self.params.items():
            if not np.isfinite(p.data).all():
                raise NonFiniteError(f"parameter {name}")

    # -- building blocks -----------------------------------------------------

    def _lin(self, name: str, x: Tensor) -> Tensor:
        return ad.linear(x, self.params[f"{name}.w"], self.params[f"{name}.b"])

    def _norm(self, name: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{name}.g"], self.params[f"{name}.b"])

    def _attention(self, name: str, x_q: Tensor, x_kv: Tensor) -> Tensor:
        h = self.config.hidden
        heads = self.config.heads
        hd = h // heads
        b, lq = x_q.shape[0], x_q.shape[1]
        lkv = x_kv.shape[1]

        def split(t: Tensor, length: int) -> Tensor:
            t = ad.reshape(t, (b, length, heads, hd))
            return ad.swapaxes(t, 1, 2)  # (B, heads, len, hd)

        q = split(self._lin(f"{name}.q", x_q), lq)
        k = split(self._lin(f"{name}.k", x_kv), lkv)
        v = split(self._lin(f"{name}.v", x_kv), lkv)
        scores = ad.matmul(q, ad.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(hd))
        att = ad.softmax(scores, axis=-1)
        out = ad.matmul(att, v)
        out = ad.reshape(ad.swapaxes(out, 1, 2), (b, lq, h))
        return self._lin(f"{name}.o", out)

    def _mlp(self, name: str, x: Tensor) -> Tensor:
        return self._lin(f"{name}.fc2", ad.gelu(self._lin(f"{name}.fc1", x)))

    def _modulation(self, name: str, cond: Tensor) -> dict[str, Tensor]:
        h = self.config.hidden
        mod = self._lin(name, cond)  # (B, L, 6H)
        return {
            fld: mod[..., i * h:(i + 1) * h] for i, fld in enumerate(_MOD_FIELDS)
        }

    def _adaln_block(self, i: int, x: Tensor, cond: Tensor,
                     enc_seq: Tensor | None) -> Tensor:
        mod = self._modulation(f"blk.{i}.ada", cond)
        moded = ad.layer_norm(x) * mod["scale_attn"] + mod["shift_attn"]
        x = x + mod["gate_attn"] * self._attention(f"blk.{i}.attn", moded, moded)
        if enc_seq is not None:
            x = x + self._attention(
                f"blk.{i}.xattn", self._norm(f"blk.{i}.xnorm", x), enc_seq
            )
        moded = ad.layer_norm(x) * mod["scale_mlp"] + mod["shift_mlp"]
        return x + mod["gate_mlp"] * self._mlp(f"blk.{i}.mlp", moded)

    def _seq2seq_block(self, i: int, x: Tensor, enc_seq: Tensor) -> Tensor:
        normed = self._norm(f"blk.{i}.norm1", x)
        x = x + self._attention(f"blk.{i}.attn", normed, normed)
        x = x + self._attention(
            f"blk.{i}.xattn", self._norm(f"blk.{i}.norm2", x), enc_seq
        )
        return x + self._mlp(f"blk.{i}.mlp", self._norm(f"blk.{i}.norm3", x))

    # -- conditioning assembly ------------------------------------------------

    def _stream_tensor(self, spec: StreamSpec, streams, drop: np.ndarray) -> Tensor:
        """Stream content as a (B, N, C) tensor, B = len(drop); rows flagged in
        `drop` read [NULL]."""
        if streams is None or spec.name not in streams:
            raise MissingStreamError(f"stream {spec.name!r} is missing")
        data = np.asarray(streams[spec.name], dtype=np.float64)
        if data.ndim != 3 or data.shape[0] != drop.size or data.shape[2] != spec.channels:
            raise ShapeMismatchError(
                f"stream {spec.name!r}", f"({drop.size}, N, {spec.channels})", data.shape
            )
        base = Tensor(data)
        if not drop.any():
            return base
        null = ad.reshape(self.params[f"null.{spec.name}"], (1, 1, spec.channels))
        return ad.where(~drop[:, None, None], base, null)

    def _assemble(self, specs, streams, drop, target_len=None) -> Tensor:
        """Concat streams channel-wise, resampled to `target_len` (else the first
        stream's length)."""
        tensors = [self._stream_tensor(spec, streams, drop) for spec in specs]
        anchor = target_len if target_len is not None else tensors[0].shape[1]
        parts = []
        for t in tensors:
            if t.shape[1] != anchor:
                t = ad.index_select(t, 1, resample_indices(t.shape[1], anchor))
            parts.append(t)
        return ad.concat(parts, axis=-1)

    def _encode(self, streams, drop) -> EncoderOutput:
        cfg = self.config
        x = self._lin("enc.in", self._assemble(cfg.encoder_streams(), streams, drop))
        batch = x.shape[0]
        cls = ad.broadcast_to(
            ad.reshape(self.params["enc.cls"], (1, 1, cfg.hidden)),
            (batch, 1, cfg.hidden),
        )
        x = ad.concat([cls, x], axis=1)
        if x.shape[1] > cfg.cond_max_len:
            raise ValidationError(
                f"encoder input length {x.shape[1]} exceeds cond_max_len {cfg.cond_max_len}"
            )
        x = x + self.params["enc.pos"][: x.shape[1]]
        for j in range(cfg.encoder_depth):
            normed = self._norm(f"enc.{j}.norm1", x)
            x = x + self._attention(f"enc.{j}.attn", normed, normed)
            x = x + self._mlp(f"enc.{j}.mlp", self._norm(f"enc.{j}.norm2", x))
            self._check_finite(x, f"encoder block {j}")
        x = self._norm("enc.norm", x)
        return EncoderOutput(cls=x[:, 0, :], sequence=x[:, 1:, :])

    @staticmethod
    def _check_finite(x: Tensor, where: str) -> None:
        if not np.isfinite(x.data).all():
            raise NonFiniteError(where)

    # -- forward ---------------------------------------------------------------

    def forward(
        self,
        tokens: np.ndarray,
        mask: np.ndarray,
        streams: dict[str, np.ndarray],
        drop: np.ndarray | None = None,
        enc_out: EncoderOutput | None = None,
    ) -> tuple[Tensor, EncoderOutput | None]:
        """Batched forward pass.

        tokens: (B, L, K) ints in [0, D); mask: (B, L, K) bools, True = masked
        (those positions read the MASK embedding regardless of token value);
        streams: name -> (B, N, C) arrays, one for every declared stream;
        drop: per-example flags replacing stream content with [NULL];
        enc_out: an encoder output returned earlier for the same streams and
        drop flags, which is reused instead of running the encoder again.
        Returns logits (B, L, K, D) and the encoder output when the structure
        has one.
        """
        cfg = self.config
        self.forward_calls += 1
        tokens = np.asarray(tokens)
        mask = np.asarray(mask, dtype=bool)
        if tokens.ndim != 3 or tokens.shape[2] != cfg.spec.levels:
            raise ShapeMismatchError("tokens", f"(B, L, {cfg.spec.levels})", tokens.shape)
        if mask.shape != tokens.shape:
            raise ShapeMismatchError("mask", tokens.shape, mask.shape)
        b, length, levels = tokens.shape
        if length > cfg.max_len:
            raise ValidationError(f"sequence length {length} exceeds max_len {cfg.max_len}")
        drop = np.zeros(b, dtype=bool) if drop is None else np.asarray(drop, dtype=bool)
        if drop.shape != (b,):
            raise ShapeMismatchError("drop flags", (b,), drop.shape)

        ids = np.where(mask, cfg.spec.mask_token, tokens)
        x = None
        for k in range(levels):
            table = ad.concat(
                [self.params[f"tok.{k}.table"], self.params[f"tok.{k}.mask"]], axis=0
            )
            e = ad.embedding(table, ids[:, :, k])
            x = e if x is None else x + e
        x = x + self.params["tok.pos"][:length]
        self._check_finite(x, "token embedding")

        if cfg.uses_encoder and enc_out is None:
            enc_out = self._encode(streams, drop)
        enc_seq = enc_out.sequence if enc_out is not None else None
        cond = None
        if cfg.structure in ("adaln", "hybrid"):
            raw = self._assemble(cfg.adaln_streams(), streams, drop, target_len=length)
            cond = self._lin("ada.in2", ad.gelu(self._lin("ada.in1", raw)))

        for i in range(cfg.depth):
            if cfg.structure == "adaln":
                x = self._adaln_block(i, x, cond, None)
            elif cfg.structure == "seq2seq":
                x = self._seq2seq_block(i, x, enc_seq)
            else:
                x = self._adaln_block(i, x, cond, enc_seq)
            self._check_finite(x, f"decoder block {i}")

        x = self._norm("trunk.norm", x)
        # the K level heads run as one (H, K*D) GEMM over their concatenated params
        head_w = ad.concat([self.params[f"head.{k}.w"] for k in range(levels)], axis=1)
        head_b = ad.concat([self.params[f"head.{k}.b"] for k in range(levels)], axis=0)
        logits = ad.reshape(ad.linear(x, head_w, head_b),
                            (b, length, levels, cfg.spec.vocab_size))
        self._check_finite(logits, "logits head")
        return logits, enc_out


# -- checkpoint format -----------------------------------------------------------

CKPT_MAGIC = b"MGCK"
CKPT_VERSION = 1


def save_checkpoint(path, params: dict[str, Tensor], meta: dict,
                    extra: dict[str, Tensor] | None = None) -> None:
    """Versioned named-tensor records; meta JSON written alongside."""
    records = dict(params)
    if extra:
        for name, tensor in extra.items():
            records[f"extra.{name}"] = tensor
    chunks = [CKPT_MAGIC, struct.pack("<HI", CKPT_VERSION, len(records))]
    for name, tensor in records.items():
        name_b = name.encode("utf-8")
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes(order="C"))
    Path(path).write_bytes(b"".join(chunks))
    Path(str(path) + ".json").write_text(
        json.dumps({"version": CKPT_VERSION, **meta}, indent=2, sort_keys=True)
    )


def load_checkpoint(path) -> tuple[dict[str, Tensor], dict[str, Tensor], dict]:
    """Returns (named params, extra params, meta dict)."""
    reader = ByteReader(path)
    magic, version, count = reader.unpack("<4sHI", "header")
    if magic != CKPT_MAGIC:
        raise CorruptHeaderError(f"{path}: not a checkpoint file")
    if version != CKPT_VERSION:
        raise CorruptHeaderError(f"{path}: unsupported checkpoint version {version}")
    params: dict[str, Tensor] = {}
    extra: dict[str, Tensor] = {}
    for index in range(count):
        what = f"record {index}"
        (name_len,) = reader.unpack("<H", f"{what} name length")
        name = reader.text(name_len, f"{what} name")
        (ndim,) = reader.unpack("<B", f"{what} ndim")
        shape = reader.unpack(f"<{ndim}I", f"{what} shape")
        data = reader.array("<f8", shape, f"{what} data")
        if name.startswith("extra."):
            records, key = extra, name[len("extra."):]
        else:
            records, key = params, name
        if key in records:
            raise CorruptHeaderError(f"{path}: {what} repeats the name {name!r}")
        records[key] = Tensor(data.copy(), requires_grad=True)
    reader.finish()
    config_path = Path(str(path) + ".json")
    if not config_path.exists():
        raise CorruptHeaderError(f"{config_path}: missing checkpoint config")
    return params, extra, load_json(config_path, CKPT_VERSION)


def model_from_checkpoint(path) -> tuple["MaskedGridTransformer", dict[str, Tensor]]:
    """The generator a checkpoint holds, its config read by `config_from`, and its extra
    (aux) params; the records must have the names and shapes the config implies."""
    params, extra, meta = load_checkpoint(path)
    if "model" not in meta:
        raise ValidationError(f"{path}: checkpoint does not describe a model")
    config = config_from(ModelConfig, meta["model"], f"{path}.json", "model")
    model = MaskedGridTransformer(config, seed=0)
    check_records(path, params, model.params)
    model.params.update(params)
    model.check_finite_params()
    return model, extra


def check_records(path, params: dict[str, Tensor], expected: dict[str, Tensor]) -> None:
    """Raise unless the checkpoint's records have exactly the expected names and shapes."""
    missing = sorted(set(expected) ^ set(params))
    if missing:
        more = ", ..." if len(missing) > 5 else ""
        raise ValidationError(f"{path}: checkpoint/config parameter mismatch in "
                              f"{len(missing)} names: {', '.join(missing[:5])}{more}")
    for name, tensor in params.items():
        if expected[name].data.shape != tensor.data.shape:
            raise ValidationError(f"{path}: checkpoint shape mismatch for {name}")
