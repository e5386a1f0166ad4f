"""Guided logits, annealing, confidence, and the unmasking loop contracts."""

from dataclasses import replace

import numpy as np
import pytest

from maskgram import autodiff as ad
from maskgram.codegram import CodebookSpec
from maskgram.errors import MissingStreamError, ShapeMismatchError, ValidationError
from maskgram.features import ALIGNMENT_SENSITIVE, FRAME_SEMANTIC, stack_streams
from maskgram.model import MaskedGridTransformer, ModelConfig, StreamSpec
from maskgram.sampler import (
    SamplerConfig,
    _model_logits,
    confidence,
    diversity_at,
    guided_logits,
    init_state,
    sample_batch,
    sample_step,
)
from maskgram.scheduler import build_sample_schedule
from maskgram.seeding import derive_seed


def test_guided_logits_gamma_zero_is_conditional():
    rng = np.random.default_rng(0)
    cond = rng.normal(size=(4, 2, 8))
    uncond = rng.normal(size=(4, 2, 8))
    out = guided_logits(cond, uncond, 0.0)
    assert np.array_equal(out, cond)


def test_guided_logits_equal_inputs_any_gamma():
    rng = np.random.default_rng(1)
    cond = rng.normal(size=(3, 2, 5))
    out = guided_logits(cond, cond, 2.0)
    np.testing.assert_allclose(out, cond, atol=1e-12)


def test_guided_logits_scalar_case():
    out = guided_logits(np.array([[1.0]]), np.array([[0.5]]), 2.0)
    assert out[0, 0] == pytest.approx(2.0)


def test_guided_logits_errors():
    with pytest.raises(ShapeMismatchError):
        guided_logits(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)
    with pytest.raises(ValidationError):
        guided_logits(np.zeros((2, 2)), np.zeros((2, 2)), -0.5)


class PairModel:
    """Fixed conditional logits, and fixed unconditional ones for dropped rows."""

    def __init__(self, cond: np.ndarray, uncond: np.ndarray, spec: CodebookSpec):
        self.cond, self.uncond = cond, uncond
        self.config = type("Cfg", (), {"spec": spec})()

    def forward(self, tokens, mask, streams, drop=None, enc_out=None):
        out = type("Out", (), {})()
        out.data = self.cond if drop is None else self.uncond
        return out, None


def pair_logits(cond, uncond, **config):
    """`_model_logits` of a fully masked (1, L, 1) grid over these logits."""
    cond, uncond = np.asarray(cond, float), np.asarray(uncond, float)
    spec = CodebookSpec(levels=1, vocab_size=cond.shape[-1])
    state = init_state(1, cond.shape[0], 1, spec, [0])
    model = PairModel(cond[None, :, None], uncond[None, :, None], spec)
    return _model_logits(model, state, None, SamplerConfig(**config))[0]


def test_guidance_keeps_only_plausible_conditional_tokens():
    cond, uncond = [[0.0, -10.0]], [[-0.1, -30.0]]
    # the plain contrast lifts the token the unconditional pass rules out
    assert guided_logits(cond, uncond, 2.0).tolist() == [[0.2, 30.0]]
    # p_c(1) / p_c(0) = e^-10 < 0.1, so token 1 leaves the contrast
    assert pair_logits(cond, uncond, gamma=2.0).tolist() == [[0.2, -np.inf]]
    # gamma 0 runs no contrast, so nothing is filtered even with two passes
    out = pair_logits(cond, uncond, gamma=0.0, force_two_pass=True)
    assert out.tobytes() == np.asarray(cond).tobytes()


def test_guidance_filter_leaves_every_row_a_finite_maximum():
    rng = np.random.default_rng(4)
    cond = rng.normal(0.0, 6.0, (64, 12))
    cond[:8] = 0.0                  # ties at the maximum
    cond[8:16, 3] = 1e6             # one token far ahead of the rest
    uncond = rng.normal(0.0, 6.0, (64, 12))
    out = pair_logits(cond, uncond, gamma=3.0)
    plausible = cond - cond.max(axis=-1, keepdims=True) >= np.log(0.1)
    assert np.isfinite(out).any(axis=-1).all()
    assert np.array_equal(np.isfinite(out), plausible)
    assert np.array_equal(out[plausible], guided_logits(cond, uncond, 3.0)[plausible])


def test_diversity_annealing():
    assert diversity_at(8.0, 31, 32) == 0.0
    assert diversity_at(8.0, 15, 32) == pytest.approx(4.0)
    assert diversity_at(0.0, 3, 32) == 0.0
    with pytest.raises(ValidationError):
        diversity_at(8.0, 32, 32)


def test_confidence_zero_delta_is_log_prob():
    rng = np.random.default_rng(2)
    logp = rng.normal(size=(4, 3))
    out = confidence(logp, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, logp)


def test_confidence_gumbel_mean_is_euler_mascheroni():
    rng = np.random.default_rng(3)
    out = confidence(np.zeros(100_000), 1.0, rng)
    assert out.mean() == pytest.approx(0.5772156649, abs=0.01)


def test_confidence_reproducible():
    logp = np.zeros((3, 3))
    a = confidence(logp, 2.0, np.random.default_rng(5))
    b = confidence(logp, 2.0, np.random.default_rng(5))
    assert np.array_equal(a, b)


# -- loop contracts with a deterministic stub model -------------------------------


class OneHotModel:
    """Logits one-hot on a fixed target grid, huge margin."""

    def __init__(self, target: np.ndarray, spec: CodebookSpec):
        self.target = target
        self.spec = spec
        self.forward_calls = 0
        self.config = type("Cfg", (), {"spec": spec})()

    def forward(self, tokens, mask, streams, drop=None, enc_out=None):
        self.forward_calls += 1
        b, length, levels = tokens.shape
        logits = np.full((b, length, levels, self.spec.vocab_size), -50.0)
        for k in range(levels):
            idx = self.target[:, k]
            logits[:, np.arange(length), k, idx] = 50.0

        class Out:
            pass

        out = Out()
        out.data = logits
        return out, None


class ConstantModel:
    """Flat logits everywhere; every draw is equally likely."""

    def __init__(self, spec: CodebookSpec):
        self.spec = spec
        self.forward_calls = 0
        self.config = type("Cfg", (), {"spec": spec})()

    def forward(self, tokens, mask, streams, drop=None, enc_out=None):
        self.forward_calls += 1
        b, length, levels = tokens.shape

        class Out:
            pass

        out = Out()
        out.data = np.zeros((b, length, levels, self.spec.vocab_size))
        return out, None


def spec_small():
    return CodebookSpec(levels=3, vocab_size=12)


# one row of conditioning for the stand-in models above, which ignore it
ONE_ROW = [{"clip": np.zeros((2, 4))}]


def test_one_hot_model_recovers_target_any_step_count():
    spec = spec_small()
    rng = np.random.default_rng(6)
    target = rng.integers(0, 12, (6, 3))
    model = OneHotModel(target, spec)
    for n_steps in (1, 2, 5, 9):
        config = SamplerConfig(n_steps=n_steps, gamma=0.0, delta=0.0, seed=7)
        grid = sample_batch(model, ONE_ROW, 6, config, seeds=[11])[0]
        np.testing.assert_array_equal(grid.tokens, target)


def test_single_step_commits_everything():
    spec = spec_small()
    model = ConstantModel(spec)
    config = SamplerConfig(n_steps=1, gamma=0.0, delta=0.0, seed=1)
    grid = sample_batch(model, ONE_ROW, 4, config, seeds=[3])[0]
    assert grid.tokens.shape == (4, 3)
    assert (grid.tokens >= 0).all() and (grid.tokens < 12).all()


def test_masked_counts_follow_schedule_and_commits_freeze():
    spec = spec_small()
    model = ConstantModel(spec)
    length, n_steps = 5, 6
    schedule = build_sample_schedule(length * spec.levels, n_steps)
    config = SamplerConfig(n_steps=n_steps, gamma=0.0, delta=2.0, seed=2)
    state = init_state(1, length, spec.levels, spec, [17])
    committed_tokens = {}
    for n in range(n_steps):
        state = sample_step(state, model, None, config, schedule)
        assert int(state.mask.sum()) == schedule.masked_counts[n + 1]
        for (b, l, k), value in committed_tokens.items():
            assert state.tokens[b, l, k] == value
            assert not state.mask[b, l, k]
        done = ~state.mask
        for b, l, k in zip(*np.nonzero(done)):
            committed_tokens[(b, l, k)] = state.tokens[b, l, k]
    assert not state.mask.any()


def test_noop_step_changes_only_counter():
    spec = CodebookSpec(levels=1, vocab_size=4)
    model = ConstantModel(spec)
    # 2 positions, many steps: middle steps have kappa == 0
    schedule = build_sample_schedule(2, 8)
    assert 0 in schedule.kappas
    config = SamplerConfig(n_steps=8, gamma=0.0, delta=1.0, seed=3)
    state = init_state(1, 2, 1, spec, [5])
    for n in range(8):
        before_tokens = state.tokens.copy()
        before_mask = state.mask.copy()
        before_rng = state.rngs[0].bit_generator.state
        state = sample_step(state, model, None, config, schedule)
        if schedule.kappas[n] == 0:
            assert np.array_equal(state.tokens, before_tokens)
            assert np.array_equal(state.mask, before_mask)
            assert state.rngs[0].bit_generator.state == before_rng
            assert state.step == n + 1
    assert not state.mask.any()


def test_forward_pass_count_invariant():
    spec = spec_small()
    for gamma, expected_factor in ((0.0, 1), (2.0, 2)):
        model = ConstantModel(spec)
        config = SamplerConfig(n_steps=7, gamma=gamma, delta=0.0, seed=4)
        sample_batch(model, ONE_ROW, 4, config, seeds=[9])
        assert model.forward_calls == 7 * expected_factor


def test_tie_breaking_is_lexicographic():
    # constant model + delta 0 makes all confidences equal: the re-masked set
    # must be the lexicographically first positions
    spec = CodebookSpec(levels=2, vocab_size=5)
    model = ConstantModel(spec)
    length = 4
    schedule = build_sample_schedule(length * 2, 3)
    config = SamplerConfig(n_steps=3, gamma=0.0, delta=0.0, seed=5)
    state = init_state(1, length, 2, spec, [21])
    state = sample_step(state, model, None, config, schedule)
    expected_masked = np.zeros(length * 2, dtype=bool)
    expected_masked[: schedule.masked_counts[1]] = True
    np.testing.assert_array_equal(state.mask[0].ravel(), expected_masked)


def test_schedule_state_mismatch_is_error():
    spec = spec_small()
    model = ConstantModel(spec)
    schedule = build_sample_schedule(15, 4)
    config = SamplerConfig(n_steps=4, gamma=0.0, delta=0.0, seed=6)
    state = init_state(1, 5, 3, spec, [4])
    state.mask[0, 0, 0] = False  # corrupt the invariant
    with pytest.raises(ValidationError):
        sample_step(state, model, None, config, schedule)


# -- real-model end paths -----------------------------------------------------------


def real_model(seed=0, structure="adaln"):
    cfg = ModelConfig(
        structure=structure,
        spec=CodebookSpec(levels=2, vocab_size=10),
        streams=(
            StreamSpec("clip", 4, FRAME_SEMANTIC),
            StreamSpec("s3d", 3, ALIGNMENT_SENSITIVE),
        ),
        depth=1, hidden=16, heads=2, encoder_depth=1, aux_target_dim=4,
        max_len=16, cond_max_len=16,
    )
    return MaskedGridTransformer(cfg, seed=seed)


def make_row(seed=0):
    rng = np.random.default_rng(seed)
    return {"clip": rng.normal(size=(5, 4)), "s3d": rng.normal(size=(3, 3))}


def sample_one(model, row, length, config, trace=None):
    return sample_batch(model, [row], length, config,
                        seeds=[derive_seed(config.seed, "sample", 0)], trace=trace)[0]


@pytest.mark.parametrize("structure", ["adaln", "seq2seq", "hybrid"])
def test_sample_deterministic_given_seed(structure):
    model = real_model(structure=structure)
    row = make_row()
    config = SamplerConfig(n_steps=4, gamma=1.0, delta=2.0, seed=42)
    a = sample_one(model, row, 6, config)
    b = sample_one(model, row, 6, config)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    assert (a.tokens >= 0).all() and (a.tokens < 10).all()


def test_gamma_zero_single_pass_matches_forced_two_pass():
    model = real_model(seed=3)
    row = make_row(seed=4)
    one = sample_one(model, row, 6,
                     SamplerConfig(n_steps=5, gamma=0.0, delta=1.0, seed=9))
    two = sample_one(model, row, 6,
                     SamplerConfig(n_steps=5, gamma=0.0, delta=1.0, seed=9,
                                   force_two_pass=True))
    np.testing.assert_array_equal(one.tokens, two.tokens)


def test_trace_records_steps():
    model = real_model(seed=5)
    row = make_row(seed=6)
    trace: list[str] = []
    sample_one(model, row, 4, SamplerConfig(n_steps=3, gamma=0.0, delta=0.0, seed=1),
               trace=trace)
    assert trace[0] == "step,masked_count,mean_confidence"
    assert len(trace) == 4
    assert trace[-1].startswith("3,0,")


# -- batching and encoder reuse --------------------------------------------------


@pytest.mark.parametrize("structure", ["adaln", "seq2seq", "hybrid"])
@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_batched_rows_match_single_row_calls(structure, gamma):
    model = real_model(seed=7, structure=structure)
    # the reference runs each row alone and re-encodes at every forward
    uncached = real_model(seed=7, structure=structure)
    forward = uncached.forward
    uncached.forward = lambda *args, enc_out=None: forward(*args)
    rows = [make_row(seed=s) for s in (8, 9, 8, 10)]
    seeds = [31, 32, 33, 34]
    config = SamplerConfig(n_steps=4, gamma=gamma, delta=2.0, seed=0)
    batched = sample_batch(model, rows, 6, config, seeds=seeds)
    for row, seed, grid in zip(rows, seeds, batched):
        single = sample_batch(uncached, [row], 6, config, seeds=[seed])[0]
        assert grid.tokens.tobytes() == single.tokens.tobytes()


def test_rows_are_checked_before_sampling():
    model = real_model(seed=7)
    config = SamplerConfig(n_steps=2, gamma=0.0, delta=0.0, seed=0)
    short = {**make_row(seed=1), "clip": np.zeros((4, 4))}
    with pytest.raises(ShapeMismatchError, match="'clip'"):
        sample_batch(model, [make_row(seed=0), short], 6, config, seeds=[1, 2])
    with pytest.raises(MissingStreamError, match="'s3d'"):
        sample_batch(model, [make_row(seed=0), {"clip": np.zeros((5, 4))}], 6, config,
                     seeds=[1, 2])
    with pytest.raises(ValidationError, match="'s3d'"):
        sample_batch(model, [{**make_row(seed=0), "s3d": np.full((3, 3), np.nan)}], 6,
                     config, seeds=[1])


@pytest.mark.parametrize("gamma, passes", [(0.0, 1), (2.0, 2)])
def test_encoder_runs_once_per_pass_per_call(gamma, passes, monkeypatch):
    model = real_model(seed=11, structure="seq2seq")
    encode = model._encode
    calls = []
    monkeypatch.setattr(model, "_encode", lambda *a: calls.append(1) or encode(*a))
    config = SamplerConfig(n_steps=5, gamma=gamma, delta=1.0, seed=2)
    sample_batch(model, [make_row(seed=s) for s in range(3)], 6, config,
                 seeds=[1, 2, 3])
    assert len(calls) == passes
    assert model.forward_calls == 5 * passes


# -- oracle: the per-row loop over every position -----------------------------------


def reference_step(state, model, streams, config, schedule):
    """One step as the sampler ran it before it drew at masked positions only:
    guidance (under gamma > 0 only over tokens with conditional probability at
    least 0.1 times the conditional maximum), temperature and log-softmax over
    the whole grid, then a per-row draw, confidence and stable-sort re-mask."""
    n = state.step
    feed = np.where(state.mask, 0, state.tokens)
    with ad.no_grad():
        cond = logits = model.forward(feed, state.mask, streams, None)[0].data
        if config.gamma > 0 or config.force_two_pass:
            drop = np.ones(len(feed), dtype=bool)
            uncond = model.forward(feed, state.mask, streams, drop)[0].data
            logits = (1.0 + config.gamma) * cond - config.gamma * uncond
        if config.gamma > 0:
            plausible = cond - cond.max(axis=-1, keepdims=True) >= np.log(0.1)
            logits = np.where(plausible, logits, -np.inf)
    next_masked = schedule.masked_counts[n + 1]
    if schedule.masked_counts[n] == next_masked:
        return replace(state, step=n + 1)
    x = logits / config.temperature
    shifted = x - x.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    delta_n = diversity_at(config.delta, n, schedule.n_steps)
    b, length, levels = state.tokens.shape
    tokens, mask = state.tokens.copy(), state.mask.copy()
    conf_out = state.confidences.copy()
    for i in range(b):
        rng = state.rngs[i]
        cdf = np.cumsum(np.exp(log_probs[i]), axis=-1)
        u = rng.random((length, levels)) * cdf[..., -1]
        draw = np.minimum((u[..., None] >= cdf).sum(axis=-1), log_probs.shape[-1] - 1)
        drawn_logp = np.take_along_axis(log_probs[i], draw[..., None], axis=-1)[..., 0]
        conf = drawn_logp + delta_n * rng.gumbel(size=drawn_logp.shape)
        conf = np.where(mask[i], conf, np.inf)
        order = np.argsort(conf.ravel(), kind="stable")
        remask = np.zeros(length * levels, dtype=bool)
        remask[order[:next_masked]] = True
        remask = remask.reshape(length, levels)
        commit = mask[i] & ~remask
        tokens[i][commit] = draw[commit]
        conf_out[i][commit] = conf[commit]
        mask[i] = remask
        tokens[i][remask] = model.config.spec.mask_token
    return replace(state, step=n + 1, tokens=tokens, mask=mask, confidences=conf_out)


@pytest.mark.parametrize("which", ["seq2seq", "constant"])
@pytest.mark.parametrize("gamma, two_pass", [(0.0, False), (0.0, True), (2.0, False)])
@pytest.mark.parametrize("temperature", [1.0, 0.7])
@pytest.mark.parametrize("delta", [0.0, 8.0])
@pytest.mark.parametrize("batch", [1, 7])
def test_step_matches_per_row_reference(which, gamma, two_pass, temperature, delta, batch):
    length, n_steps = 6, 8
    if which == "seq2seq":
        model = real_model(seed=12, structure="seq2seq")
        streams = stack_streams([make_row(seed=20 + i) for i in range(batch)])
    else:
        model, streams = ConstantModel(spec_small()), None
    spec = model.config.spec
    config = SamplerConfig(n_steps=n_steps, gamma=gamma, delta=delta,
                           temperature=temperature, force_two_pass=two_pass)
    schedule = build_sample_schedule(length * spec.levels, n_steps)
    seeds = [100 + i for i in range(batch)]
    state = init_state(batch, length, spec.levels, spec, seeds)
    expected = init_state(batch, length, spec.levels, spec, seeds)
    for _ in range(n_steps):
        state = sample_step(state, model, streams, config, schedule)
        expected = reference_step(expected, model, streams, config, schedule)
        for field in ("tokens", "mask", "confidences"):
            got, want = getattr(state, field), getattr(expected, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    assert not state.mask.any()
