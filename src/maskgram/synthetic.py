"""Synthetic paired data standing in for pretrained feature extractors.

Three rules generate (conditioning, codegram, auxiliary-target) triples:

deterministic-map: an example belongs to one of n_classes scenes; conditioning
streams are the scene's fixed signature sequences and the codegram is the
scene's fixed token grid (a seeded hash of class and position), so identical
conditioning always implies an identical grid.

noisy-map: the same mapping with per-example Gaussian noise added to every
feature stream; the grid stays the clean class grid.

event-onsets: conditioning carries impulse frames at random onsets; the grid
is piecewise constant in time with token changes exactly at the onsets scaled
to grid coordinates.

Also provides codegram-derived evaluation front-ends: a per-frame latent
sequence (per-level lookup tables, concatenated) and a deterministic
pseudo-signal for the MFCC-like front-end.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .codegram import (Codegram, CodebookSpec, config_from, load_codegram, load_json,
                       save_codegram)
from .errors import ValidationError
from .features import ALIGNMENT_SENSITIVE, FRAME_SEMANTIC, load_features, save_features
from .metrics import EmbeddingSet
from .model import StreamSpec
from .seeding import derived_rng

RULES = ("deterministic-map", "noisy-map", "event-onsets")
MANIFEST_VERSION = 1
IMPULSE_GAIN = 4.0


@dataclass(frozen=True)
class SyntheticTaskSpec:
    rule: str
    length: int = 32
    levels: int = 4
    vocab_size: int = 64
    clip_frames: int = 8
    clip_dim: int = 16
    s3d_frames: int = 12
    s3d_dim: int = 8
    target_frames: int = 10
    target_dim: int = 24
    n_classes: int = 32
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValidationError(f"unknown rule {self.rule!r}")
        for name in ("length", "levels", "vocab_size", "clip_frames", "clip_dim",
                     "s3d_frames", "s3d_dim", "target_frames", "target_dim",
                     "n_classes"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not 0 <= self.noise_level < np.inf:
            raise ValidationError(
                f"noise_level must be finite and >= 0, got {self.noise_level}")

    def codebook_spec(self) -> CodebookSpec:
        return CodebookSpec(levels=self.levels, vocab_size=self.vocab_size)

    def stream_specs(self) -> tuple[StreamSpec, ...]:
        return (
            StreamSpec("clip", self.clip_dim, FRAME_SEMANTIC),
            StreamSpec("s3d", self.s3d_dim, ALIGNMENT_SENSITIVE),
        )


def _f32(x: np.ndarray) -> np.ndarray:
    # features round-trip through the 32-bit file format; bake that in so
    # in-memory and on-disk examples are bit-identical
    return x.astype(np.float32).astype(np.float64)


def _class_rng(spec: SyntheticTaskSpec, cls: int) -> np.random.Generator:
    return derived_rng(spec.seed, "class", cls)


@functools.lru_cache(maxsize=8)
def _grid_permutations(spec: SyntheticTaskSpec) -> np.ndarray:
    """Per-position permutations of the vocabulary, shared by all classes.

    Class grids read tokens[l, k] = perm[l, k, class mod D]: distinct classes
    disagree at every position and, with enough classes, the per-position
    marginal over classes is uniform over the whole vocabulary. So the
    unconditional mode knows nothing, the regime guidance assumes, but only
    until context is committed: one committed token fixes the class, and from
    then on the unconditional pass reads the answer from the grid itself.
    """
    rng = derived_rng(spec.seed, "grid-perms")
    perms = np.empty((spec.length, spec.levels, spec.vocab_size), dtype=np.int64)
    for l in range(spec.length):
        for k in range(spec.levels):
            perms[l, k] = rng.permutation(spec.vocab_size)
    return perms


def _class_signatures(spec: SyntheticTaskSpec, cls: int) -> dict[str, np.ndarray]:
    rng = _class_rng(spec, cls)
    perms = _grid_permutations(spec)
    return {
        "clip": rng.normal(0.0, 1.0, (spec.clip_frames, spec.clip_dim)),
        "s3d": rng.normal(0.0, 1.0, (spec.s3d_frames, spec.s3d_dim)),
        "beats": rng.normal(0.0, 1.0, (spec.target_frames, spec.target_dim)),
        "tokens": perms[:, :, cls % spec.vocab_size],
    }


def _scale_index(frame: int, n_from: int, n_to: int) -> int:
    return min(int(round(frame * n_to / n_from)), n_to - 1)


def make_example(spec: SyntheticTaskSpec, index: int) -> dict:
    """Deterministic (streams, tokens, target) triple for one example index."""
    rng = derived_rng(spec.seed, "example", index)
    if spec.rule in ("deterministic-map", "noisy-map"):
        cls = int(rng.integers(spec.n_classes))
        sig = _class_signatures(spec, cls)
        clip, s3d, beats = sig["clip"], sig["s3d"], sig["beats"]
        if spec.rule == "noisy-map" and spec.noise_level > 0:
            clip = clip + spec.noise_level * rng.normal(size=clip.shape)
            s3d = s3d + spec.noise_level * rng.normal(size=s3d.shape)
            beats = beats + spec.noise_level * rng.normal(size=beats.shape)
        tokens = sig["tokens"]
        meta = {"class": cls}
    else:  # event-onsets
        n_onsets = int(rng.integers(2, 5))
        onsets = np.sort(
            rng.choice(np.arange(1, spec.clip_frames), size=min(n_onsets, spec.clip_frames - 1),
                       replace=False)
        )
        impulse_dir = derived_rng(spec.seed, "impulse").normal(0.0, 1.0, spec.clip_dim)
        s3d_dir = derived_rng(spec.seed, "impulse-s3d").normal(0.0, 1.0, spec.s3d_dim)
        beats_dir = derived_rng(spec.seed, "impulse-beats").normal(0.0, 1.0, spec.target_dim)
        clip = 0.5 * rng.normal(size=(spec.clip_frames, spec.clip_dim))
        s3d = 0.5 * rng.normal(size=(spec.s3d_frames, spec.s3d_dim))
        beats = 0.5 * rng.normal(size=(spec.target_frames, spec.target_dim))
        for f in onsets:
            clip[f] += IMPULSE_GAIN * impulse_dir
            s3d[_scale_index(int(f), spec.clip_frames, spec.s3d_frames)] += (
                IMPULSE_GAIN * s3d_dir
            )
            beats[_scale_index(int(f), spec.clip_frames, spec.target_frames)] += (
                IMPULSE_GAIN * beats_dir
            )
        boundaries = [0] + [
            _scale_index(int(f), spec.clip_frames, spec.length) for f in onsets
        ] + [spec.length]
        boundaries = sorted(set(boundaries))
        tokens = np.empty((spec.length, spec.levels), dtype=np.int64)
        for seg, (lo, hi) in enumerate(zip(boundaries[:-1], boundaries[1:])):
            tokens[lo:hi] = rng.integers(0, spec.vocab_size, spec.levels)
        meta = {"onsets": [int(f) for f in onsets]}
    return {
        "index": index,
        "tokens": np.ascontiguousarray(tokens, dtype=np.int32),
        "streams": {"clip": _f32(clip), "s3d": _f32(s3d)},
        "target": _f32(beats),
        **meta,
    }


def split_indices(count: int) -> dict[str, list[int]]:
    """80/10/10 by index."""
    n_train = int(count * 0.8)
    n_valid = int(count * 0.1)
    return {
        "train": list(range(n_train)),
        "valid": list(range(n_train, n_train + n_valid)),
        "test": list(range(n_train + n_valid, count)),
    }


def bundle_for(example: dict, spec: SyntheticTaskSpec) -> dict[str, np.ndarray]:
    """The sampler's conditioning row of an example: its stream dict."""
    return example["streams"]


def make_dataset(spec: SyntheticTaskSpec, count: int) -> list[dict]:
    return [make_example(spec, i) for i in range(count)]


def gen_dataset(spec: SyntheticTaskSpec, count: int, out_dir) -> dict:
    """Write codegram + feature files and a manifest; returns the manifest."""
    if count < 1:
        raise ValidationError("count must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cb_spec = spec.codebook_spec()
    for example in make_dataset(spec, count):
        stem = out / f"ex_{example['index']:05d}"
        save_codegram(Codegram(example["tokens"], cb_spec), f"{stem}.cgram")
        save_features(f"{stem}.clip.emb", example["streams"]["clip"], "clip-like")
        save_features(f"{stem}.s3d.emb", example["streams"]["s3d"], "s3d-like")
        save_features(f"{stem}.beats.emb", example["target"], "beats-like")
    manifest = {
        "version": MANIFEST_VERSION,
        "task": asdict(spec),
        "count": count,
        "splits": split_indices(count),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_manifest(path) -> tuple[SyntheticTaskSpec, int, dict[str, list[int]]]:
    """A dataset's task spec (read by `config_from`), example count (a JSON int >= 1)
    and splits (example indices in [0, count)), checked; reads no example."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"{root}: missing manifest.json")
    manifest = load_json(manifest_path, MANIFEST_VERSION)
    spec = config_from(SyntheticTaskSpec, manifest.get("task"), manifest_path, "task")
    count = manifest.get("count")
    if type(count) is not int or count < 1:
        raise ValidationError(f"{manifest_path}: count must be a JSON int >= 1, got {count!r}")
    indices = range(count)
    try:
        splits = {name: list(manifest["splits"][name]) for name in ("train", "valid", "test")}
    except (KeyError, TypeError) as exc:  # missing or mistyped keys
        raise ValidationError(f"{manifest_path}: malformed splits ({exc!r})") from exc
    for name, split in splits.items():
        bad = [i for i in split if type(i) is not int or i not in indices]
        if bad:
            raise ValidationError(
                f"{manifest_path}: split {name!r} holds {bad[0]!r}, "
                f"not an example index in [0, {len(indices)})"
            )
    return spec, len(indices), splits


def load_example(path, index: int) -> dict:
    """The four files of example `index` in the dataset directory `path`."""
    stem = Path(path) / f"ex_{index:05d}"
    cgram = load_codegram(f"{stem}.cgram")
    clip, _ = load_features(f"{stem}.clip.emb")
    s3d, _ = load_features(f"{stem}.s3d.emb")
    beats, _ = load_features(f"{stem}.beats.emb")
    return {
        "index": index,
        "tokens": cgram.tokens,
        "streams": {"clip": clip, "s3d": s3d},
        "target": beats,
    }


def load_dataset(path) -> tuple[SyntheticTaskSpec, list[dict], dict[str, list[int]]]:
    spec, count, splits = load_manifest(path)
    return spec, [load_example(path, i) for i in range(count)], splits


# -- codegram-derived evaluation front-ends -----------------------------------------

LATENT_DIM = 8
SAMPLES_PER_STEP = 512


def _latent_tables(levels: int, vocab: int) -> np.ndarray:
    rng = derived_rng(0, "latent-frontend", levels, vocab)
    return rng.normal(0.0, 1.0, (levels, vocab, LATENT_DIM))


def latent_sequence(codegram: Codegram) -> np.ndarray:
    """Per-frame concatenation of per-level latent lookups: (L, 8*K)."""
    tables = _latent_tables(codegram.spec.levels, codegram.spec.vocab_size)
    parts = [tables[k][codegram.tokens[:, k]] for k in range(codegram.spec.levels)]
    return np.concatenate(parts, axis=1)


def latent_embedding_set(codegrams: list[Codegram]) -> EmbeddingSet:
    """Pool latent frames of many grids into one embedding set."""
    frames = np.concatenate([latent_sequence(c) for c in codegrams], axis=0)
    return EmbeddingSet(frames, "dac-latent")


def _signal_tables(levels: int, vocab: int) -> np.ndarray:
    rng = derived_rng(0, "signal-frontend", levels, vocab)
    return rng.normal(0.0, 1.0, (levels, vocab, SAMPLES_PER_STEP))


def codegram_to_signal(codegram: Codegram) -> np.ndarray:
    """Deterministic pseudo-waveform: token-indexed chunks averaged over levels."""
    tables = _signal_tables(codegram.spec.levels, codegram.spec.vocab_size)
    chunks = np.zeros((codegram.length, SAMPLES_PER_STEP))
    for k in range(codegram.spec.levels):
        chunks += tables[k][codegram.tokens[:, k]]
    return (chunks / codegram.spec.levels).ravel()


def token_match_fraction(a: Codegram, b: Codegram) -> float:
    if a.tokens.shape != b.tokens.shape:
        raise ValidationError("grids must share a shape to compare")
    return float((a.tokens == b.tokens).mean())
