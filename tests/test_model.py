"""Model forward contracts: oracle reimplementation, dropout, determinism."""

import struct
from dataclasses import asdict

import numpy as np
import pytest

from maskgram import autodiff as ad
from maskgram.codegram import CodebookSpec
from maskgram.errors import (
    CorruptHeaderError,
    MissingStreamError,
    NonFiniteError,
    ShapeMismatchError,
    TrailingBytesError,
    TruncatedPayloadError,
    ValidationError,
)
from maskgram.features import (
    ALIGNMENT_SENSITIVE,
    FRAME_SEMANTIC,
    resample_indices,
)
from maskgram.model import (
    MaskedGridTransformer,
    ModelConfig,
    StreamSpec,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)

GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715


def tiny_config(structure="adaln", levels=2, vocab=8, hidden=16, depth=1,
                heads=2, enc_depth=1):
    return ModelConfig(
        structure=structure,
        spec=CodebookSpec(levels=levels, vocab_size=vocab),
        streams=(
            StreamSpec("clip", 4, FRAME_SEMANTIC),
            StreamSpec("s3d", 3, ALIGNMENT_SENSITIVE),
        ),
        depth=depth,
        hidden=hidden,
        heads=heads,
        encoder_depth=enc_depth,
        aux_target_dim=6,
        max_len=16,
        cond_max_len=16,
    )


def rand_inputs(cfg, rng, batch=2, length=4):
    tokens = rng.integers(0, cfg.spec.vocab_size, (batch, length, cfg.spec.levels))
    mask = rng.random((batch, length, cfg.spec.levels)) < 0.5
    streams = {
        "clip": rng.normal(size=(batch, 5, 4)),
        "s3d": rng.normal(size=(batch, 3, 3)),
    }
    return tokens, mask, streams


# -- straight-line numpy oracle -------------------------------------------------


def np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * x**3)))


def np_ln(x, g=None, b=None, eps=1e-6):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + eps)
    return xhat if g is None else xhat * g + b


def np_softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def oracle_attn(p, prefix, xq, xkv, heads):
    hidden = xq.shape[-1]
    hd = hidden // heads
    q = xq @ p[f"{prefix}.q.w"] + p[f"{prefix}.q.b"]
    k = xkv @ p[f"{prefix}.k.w"] + p[f"{prefix}.k.b"]
    v = xkv @ p[f"{prefix}.v.w"] + p[f"{prefix}.v.b"]
    outs = []
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = q[..., sl] @ k[..., sl].swapaxes(-1, -2) / np.sqrt(hd)
        outs.append(np_softmax(scores) @ v[..., sl])
    return np.concatenate(outs, -1) @ p[f"{prefix}.o.w"] + p[f"{prefix}.o.b"]


def oracle_mlp(p, prefix, x):
    return np_gelu(x @ p[f"{prefix}.fc1.w"] + p[f"{prefix}.fc1.b"]) @ p[
        f"{prefix}.fc2.w"
    ] + p[f"{prefix}.fc2.b"]


def oracle_stream(p, name, streams, channels):
    if streams is None or name not in streams:
        return p[f"null.{name}"][None]  # (1, 1, C)
    return np.asarray(streams[name], dtype=np.float64)


def oracle_assemble(p, specs, streams, target_len=None):
    tensors = [oracle_stream(p, s.name, streams, s.channels) for s in specs]
    anchor = target_len if target_len is not None else tensors[0].shape[1]
    parts = [
        t[:, resample_indices(t.shape[1], anchor)] if t.shape[1] != anchor else t
        for t in tensors
    ]
    return np.concatenate(parts, axis=-1)


def oracle_forward(model, tokens, mask, streams):
    cfg = model.config
    p = {k: v.data for k, v in model.params.items()}
    b, length, levels = tokens.shape
    ids = np.where(mask, cfg.spec.mask_token, tokens)
    x = np.zeros((b, length, cfg.hidden))
    for k in range(levels):
        table = np.concatenate([p[f"tok.{k}.table"], p[f"tok.{k}.mask"]], axis=0)
        x = x + table[ids[:, :, k]]
    x = x + p["tok.pos"][:length]

    enc_seq = None
    if cfg.uses_encoder:
        cond = oracle_assemble(p, cfg.encoder_streams(), streams)
        e = cond @ p["enc.in.w"] + p["enc.in.b"]
        e = np.broadcast_to(e, (b,) + e.shape[1:])
        cls = np.broadcast_to(p["enc.cls"][None], (b, 1, cfg.hidden))
        e = np.concatenate([cls, e], axis=1)
        e = e + p["enc.pos"][: e.shape[1]]
        for j in range(cfg.encoder_depth):
            n1 = np_ln(e, p[f"enc.{j}.norm1.g"], p[f"enc.{j}.norm1.b"])
            e = e + oracle_attn(p, f"enc.{j}.attn", n1, n1, cfg.heads)
            n2 = np_ln(e, p[f"enc.{j}.norm2.g"], p[f"enc.{j}.norm2.b"])
            e = e + oracle_mlp(p, f"enc.{j}.mlp", n2)
        e = np_ln(e, p["enc.norm.g"], p["enc.norm.b"])
        enc_seq = e[:, 1:]

    cond_seq = None
    if cfg.structure in ("adaln", "hybrid"):
        raw = oracle_assemble(p, cfg.adaln_streams(), streams, target_len=length)
        cond_seq = (
            np_gelu(raw @ p["ada.in1.w"] + p["ada.in1.b"]) @ p["ada.in2.w"]
            + p["ada.in2.b"]
        )
        cond_seq = np.broadcast_to(cond_seq, (b,) + cond_seq.shape[1:])

    for i in range(cfg.depth):
        if cfg.structure == "seq2seq":
            n1 = np_ln(x, p[f"blk.{i}.norm1.g"], p[f"blk.{i}.norm1.b"])
            x = x + oracle_attn(p, f"blk.{i}.attn", n1, n1, cfg.heads)
            n2 = np_ln(x, p[f"blk.{i}.norm2.g"], p[f"blk.{i}.norm2.b"])
            x = x + oracle_attn(p, f"blk.{i}.xattn", n2, enc_seq, cfg.heads)
            n3 = np_ln(x, p[f"blk.{i}.norm3.g"], p[f"blk.{i}.norm3.b"])
            x = x + oracle_mlp(p, f"blk.{i}.mlp", n3)
        else:
            h = cfg.hidden
            mod = cond_seq @ p[f"blk.{i}.ada.w"] + p[f"blk.{i}.ada.b"]
            sh_a, sc_a, g_a, sh_m, sc_m, g_m = [
                mod[..., j * h:(j + 1) * h] for j in range(6)
            ]
            moded = np_ln(x) * sc_a + sh_a
            x = x + g_a * oracle_attn(p, f"blk.{i}.attn", moded, moded, cfg.heads)
            if cfg.structure == "hybrid":
                xn = np_ln(x, p[f"blk.{i}.xnorm.g"], p[f"blk.{i}.xnorm.b"])
                x = x + oracle_attn(p, f"blk.{i}.xattn", xn, enc_seq, cfg.heads)
            moded = np_ln(x) * sc_m + sh_m
            x = x + g_m * oracle_mlp(p, f"blk.{i}.mlp", moded)

    x = np_ln(x, p["trunk.norm.g"], p["trunk.norm.b"])
    logits = np.stack(
        [x @ p[f"head.{k}.w"] + p[f"head.{k}.b"] for k in range(levels)], axis=2
    )
    return logits


@pytest.mark.parametrize("structure", ["adaln", "seq2seq", "hybrid"])
def test_forward_matches_straight_line_oracle(structure):
    cfg = tiny_config(structure)
    model = MaskedGridTransformer(cfg, seed=5)
    # move modulation weights off their neutral init so the oracle covers them
    rng = np.random.default_rng(6)
    for name, p in model.params.items():
        if ".ada.w" in name:
            p.data = rng.normal(0.0, 0.2, p.data.shape)
    tokens, mask, streams = rand_inputs(cfg, rng)
    with ad.no_grad():
        logits, _ = model.forward(tokens, mask, streams)
    np.testing.assert_allclose(
        logits.data, oracle_forward(model, tokens, mask, streams), atol=1e-10
    )


@pytest.mark.parametrize("structure", ["adaln", "seq2seq", "hybrid"])
def test_zero_weights_leave_head_biases(structure):
    cfg = tiny_config(structure)
    model = MaskedGridTransformer(cfg, seed=0)
    rng = np.random.default_rng(1)
    for name, p in model.params.items():
        if name.endswith(".w") or "table" in name or "pos" in name or "cls" in name \
                or "mask" in name or name.startswith("null."):
            p.data = np.zeros_like(p.data)
        elif name.endswith(".b") and "head" in name:
            p.data = rng.normal(size=p.data.shape)
    tokens, mask, streams = rand_inputs(cfg, rng)
    with ad.no_grad():
        logits, _ = model.forward(tokens, mask, streams)
    expected = np.stack(
        [np.tile(model.params[f"head.{k}.b"].data, (2, 4, 1)) for k in range(2)], axis=2
    )
    np.testing.assert_allclose(logits.data, expected, atol=1e-12)


def test_forward_deterministic():
    cfg = tiny_config("seq2seq")
    model = MaskedGridTransformer(cfg, seed=3)
    rng = np.random.default_rng(4)
    tokens, mask, streams = rand_inputs(cfg, rng)
    with ad.no_grad():
        a, _ = model.forward(tokens, mask, streams)
        b, _ = model.forward(tokens, mask, streams)
    assert (a.data == b.data).all()


def test_adaln_neutral_modulation_equals_plain_block():
    # init keeps scale=1/shift=0/gate=1; a plain-block oracle must agree
    cfg = tiny_config("adaln")
    model = MaskedGridTransformer(cfg, seed=7)
    rng = np.random.default_rng(8)
    tokens, mask, streams = rand_inputs(cfg, rng)
    with ad.no_grad():
        logits, _ = model.forward(tokens, mask, streams)

    p = {k: v.data for k, v in model.params.items()}
    b, length, levels = tokens.shape
    ids = np.where(mask, cfg.spec.mask_token, tokens)
    x = np.zeros((b, length, cfg.hidden))
    for k in range(levels):
        table = np.concatenate([p[f"tok.{k}.table"], p[f"tok.{k}.mask"]], axis=0)
        x = x + table[ids[:, :, k]]
    x = x + p["tok.pos"][:length]
    for i in range(cfg.depth):
        n = np_ln(x)
        x = x + oracle_attn(p, f"blk.{i}.attn", n, n, cfg.heads)
        x = x + oracle_mlp(p, f"blk.{i}.mlp", np_ln(x))
    x = np_ln(x, p["trunk.norm.g"], p["trunk.norm.b"])
    plain = np.stack(
        [x @ p[f"head.{k}.w"] + p[f"head.{k}.b"] for k in range(levels)], axis=2
    )
    np.testing.assert_allclose(logits.data, plain, atol=1e-10)


def test_dropout_all_makes_output_bundle_independent():
    cfg = tiny_config("seq2seq")
    model = MaskedGridTransformer(cfg, seed=9)
    rng = np.random.default_rng(10)
    tokens, mask, streams_a = rand_inputs(cfg, rng)
    _, _, streams_b = rand_inputs(cfg, np.random.default_rng(99))
    drop = np.ones(2, dtype=bool)
    with ad.no_grad():
        a, _ = model.forward(tokens, mask, streams_a, drop)
        b, _ = model.forward(tokens, mask, streams_b, drop)
    assert (a.data == b.data).all()


def test_dropout_none_keeps_bundle_effect():
    cfg = tiny_config("seq2seq")
    model = MaskedGridTransformer(cfg, seed=9)
    rng = np.random.default_rng(11)
    tokens, mask, streams_a = rand_inputs(cfg, rng)
    _, _, streams_b = rand_inputs(cfg, np.random.default_rng(98))
    with ad.no_grad():
        a, _ = model.forward(tokens, mask, streams_a, None)
        b, _ = model.forward(tokens, mask, streams_b, None)
    assert not (a.data == b.data).all()


def test_batch_permutation_permutes_outputs():
    cfg = tiny_config("hybrid")
    model = MaskedGridTransformer(cfg, seed=12)
    rng = np.random.default_rng(13)
    tokens, mask, streams = rand_inputs(cfg, rng, batch=4)
    perm = np.array([2, 0, 3, 1])
    with ad.no_grad():
        out, _ = model.forward(tokens, mask, streams, None)
        permuted, _ = model.forward(
            tokens[perm], mask[perm],
            {k: v[perm] for k, v in streams.items()}, None,
        )
    np.testing.assert_allclose(permuted.data, out.data[perm], atol=1e-12)


@pytest.mark.parametrize("structure", ["adaln", "seq2seq", "hybrid"])
@pytest.mark.parametrize("missing", [None, "clip", "s3d"])
def test_missing_streams_are_an_error(structure, missing):
    # [NULL] conditioning comes only from drop flags, never from absent streams
    cfg = tiny_config(structure)
    model = MaskedGridTransformer(cfg, seed=14)
    tokens, mask, streams = rand_inputs(cfg, np.random.default_rng(15))
    if missing is None:
        streams = None
    else:
        del streams[missing]
    with ad.no_grad(), pytest.raises(MissingStreamError):
        model.forward(tokens, mask, streams, np.ones(2, dtype=bool))


@pytest.mark.parametrize("structure", ["adaln", "seq2seq", "hybrid"])
def test_stream_rows_must_match_the_token_batch(structure):
    cfg = tiny_config(structure)
    model = MaskedGridTransformer(cfg, seed=14)
    tokens, mask, streams = rand_inputs(cfg, np.random.default_rng(15))
    streams["s3d"] = streams["s3d"][:1]
    with ad.no_grad(), pytest.raises(ShapeMismatchError, match="stream 's3d'"):
        model.forward(tokens, mask, streams)


def test_logits_finite_across_random_tiny_configs():
    rng = np.random.default_rng(16)
    structures = ["adaln", "seq2seq", "hybrid"]
    for trial in range(1000):
        structure = structures[trial % 3]
        heads = int(rng.integers(1, 3))
        cfg = tiny_config(
            structure,
            levels=int(rng.integers(1, 4)),
            vocab=int(rng.integers(2, 9)),
            hidden=int(heads * rng.integers(2, 5)),
            depth=int(rng.integers(1, 3)),
            heads=heads,
        )
        model = MaskedGridTransformer(cfg, seed=int(rng.integers(2**31)))
        length = int(rng.integers(1, 6))
        batch = int(rng.integers(1, 3))
        tokens = rng.integers(0, cfg.spec.vocab_size, (batch, length, cfg.spec.levels))
        mask = rng.random((batch, length, cfg.spec.levels)) < rng.random()
        streams = {
            "clip": rng.normal(size=(batch, int(rng.integers(1, 5)), 4)),
            "s3d": rng.normal(size=(batch, int(rng.integers(1, 5)), 3)),
        }
        with ad.no_grad():
            logits, _ = model.forward(tokens, mask, streams)
        assert np.isfinite(logits.data).all()


def test_non_finite_parameter_raises_named_error():
    cfg = tiny_config("adaln")
    model = MaskedGridTransformer(cfg, seed=17)
    model.params["blk.0.attn.q.w"].data = np.full_like(
        model.params["blk.0.attn.q.w"].data, np.nan
    )
    rng = np.random.default_rng(18)
    tokens, mask, streams = rand_inputs(cfg, rng)
    with pytest.raises(NonFiniteError) as err:
        with ad.no_grad():
            model.forward(tokens, mask, streams)
    assert "block" in str(err.value)


def test_config_validation():
    with pytest.raises(ValidationError):
        tiny_config("adaln", hidden=10, heads=3)
    with pytest.raises(ValidationError):
        ModelConfig(
            structure="seq2seq",
            spec=CodebookSpec(levels=2, vocab_size=8),
            streams=(StreamSpec("s3d", 3, ALIGNMENT_SENSITIVE),),
            depth=1, hidden=8, heads=2,
        )


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config("seq2seq")
    model = MaskedGridTransformer(cfg, seed=19)
    extra = {"aux.proj.w": model.params["enc.cls"]}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, {"model": asdict(cfg)}, extra=extra)
    params, loaded_extra, meta = load_checkpoint(path)
    assert set(params) == set(model.params)
    for name in model.params:
        np.testing.assert_array_equal(params[name].data, model.params[name].data)
    np.testing.assert_array_equal(
        loaded_extra["aux.proj.w"].data, model.params["enc.cls"].data
    )
    restored, _ = model_from_checkpoint(path)
    rng = np.random.default_rng(20)
    tokens, mask, streams = rand_inputs(cfg, rng)
    with ad.no_grad():
        a, _ = model.forward(tokens, mask, streams)
        b, _ = restored.forward(tokens, mask, streams)
    assert (a.data == b.data).all()


def test_checkpoint_config_with_the_retired_target_embed_dim_key_loads(tmp_path):
    # older checkpoint configs carry "target_embed_dim": null, which the reader skips
    cfg = tiny_config("seq2seq")
    model = MaskedGridTransformer(cfg, seed=19)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params,
                    {"model": {**asdict(cfg), "target_embed_dim": None}})
    restored, _ = model_from_checkpoint(path)
    assert restored.config == cfg
    assert "target_embed_dim" not in asdict(cfg)


def test_checkpoint_config_with_the_retired_spec_embed_dim_key_loads(tmp_path):
    # older checkpoint configs carry "spec": {"embed_dim": 8, ...}, which the reader skips
    cfg = tiny_config("hybrid")
    model = MaskedGridTransformer(cfg, seed=19)
    path = tmp_path / "model.ckpt"
    meta = asdict(cfg)
    meta["spec"]["embed_dim"] = 8
    save_checkpoint(path, model.params, {"model": meta})
    restored, _ = model_from_checkpoint(path)
    assert restored.config == cfg
    assert "embed_dim" not in asdict(cfg)["spec"]


@pytest.mark.parametrize("length", [12, 100, 2000, -8])
def test_truncated_checkpoint_payload_raises(tmp_path, length):
    cfg = tiny_config("seq2seq")
    model = MaskedGridTransformer(cfg, seed=23)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, {"model": asdict(cfg)})
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(TruncatedPayloadError):
        load_checkpoint(path)


def test_checkpoint_trailing_byte_raises(tmp_path):
    cfg = tiny_config("seq2seq")
    model = MaskedGridTransformer(cfg, seed=23)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params, {"model": asdict(cfg)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(TrailingBytesError):
        load_checkpoint(path)


def test_checkpoint_record_with_more_dims_than_numpy_raises(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"MGCK" + struct.pack("<HIH", 1, 1, 1) + b"w"
                     + struct.pack("<B65I", 65, *[1] * 65) + struct.pack("<d", 0.0))
    with pytest.raises(CorruptHeaderError):
        load_checkpoint(path)


@pytest.mark.parametrize("structure", ["seq2seq", "hybrid"])
def test_forward_reuses_given_encoder_output(structure, monkeypatch):
    cfg = tiny_config(structure)
    model = MaskedGridTransformer(cfg, seed=24)
    tokens, mask, streams = rand_inputs(cfg, np.random.default_rng(25))
    drop = np.array([False, True])
    with ad.no_grad():
        fresh, enc = model.forward(tokens, mask, streams, drop)
        monkeypatch.setattr(model, "_encode", lambda *a: pytest.fail("encoder ran"))
        reused, enc_again = model.forward(tokens, mask, streams, drop, enc_out=enc)
    assert enc_again is enc
    assert fresh.data.tobytes() == reused.data.tobytes()

