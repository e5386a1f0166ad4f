"""Contrastive encoder pair, sequence distances, beam selection."""

import math

import numpy as np
import pytest

from maskgram import autodiff as ad
from maskgram.autodiff import Tensor
from maskgram.errors import ValidationError
from maskgram.selector import (
    AUDIO_SUBBANDS,
    ScavConfig,
    init_scav_params,
    scav_contrastive_loss_t,
    scav_distance,
    scav_encode_audio,
    scav_encode_video,
    select_best,
    train_scav,
)


def contrastive_loss(e_video, e_audio, temperature) -> float:
    """`scav_contrastive_loss_t` on stacked (B, N, H) arrays, without a graph."""
    with ad.no_grad():
        return scav_contrastive_loss_t(Tensor(e_video), Tensor(e_audio), temperature).item()


def small_config():
    return ScavConfig(n_scav=6, h_scav=5, video_dim=4, audio_dim=7, width=16)


def test_encoders_deterministic_and_shaped():
    cfg = small_config()
    params = init_scav_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    video = rng.normal(size=(9, 4))
    audio = rng.normal(size=(4, 7))
    ev1 = scav_encode_video(params, video, cfg)
    ev2 = scav_encode_video(params, video, cfg)
    ea = scav_encode_audio(params, audio, cfg)
    assert np.array_equal(ev1, ev2)
    assert ev1.shape == (6, 5)
    assert ea.shape == (6, 5)


def test_video_encoder_matches_straight_line_oracle():
    cfg = small_config()
    params = init_scav_params(cfg, seed=2)
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(9, 4))
    got = scav_encode_video(params, feats, cfg)

    from maskgram.features import resample_nn

    x = resample_nn(feats, cfg.n_scav)
    h = x @ params["video.fc1.w"].data + params["video.fc1.b"].data
    h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2 / np.pi) * (h + 0.044715 * h**3)))
    expected = h @ params["video.fc2.w"].data + params["video.fc2.b"].data
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_audio_encoder_mean_reduces_subband_axis():
    cfg = small_config()
    params = init_scav_params(cfg, seed=4)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 7))
    got = scav_encode_audio(params, feats, cfg)

    from maskgram.features import resample_nn

    x = resample_nn(feats, cfg.n_scav)
    h = x @ params["audio.fc1.w"].data + params["audio.fc1.b"].data
    h = 0.5 * h * (1.0 + np.tanh(np.sqrt(2 / np.pi) * (h + 0.044715 * h**3)))
    wide = h @ params["audio.fc2.w"].data + params["audio.fc2.b"].data
    expected = wide.reshape(cfg.n_scav, AUDIO_SUBBANDS, cfg.h_scav).mean(axis=1)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_distance_identical_zero_and_single_coordinate():
    rng = np.random.default_rng(6)
    e = rng.normal(size=(6, 5))
    assert scav_distance(e, e) == 0.0
    bumped = e.copy()
    bumped[2, 3] += 1.7
    assert scav_distance(e, bumped) == pytest.approx(1.7**2 / (6 * 5), abs=1e-12)


def test_distance_matches_loop_oracle_and_symmetry():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 5))
    b = rng.normal(size=(6, 5))
    total = 0.0
    for n in range(6):
        for h in range(5):
            total += (a[n, h] - b[n, h]) ** 2
    assert scav_distance(a, b) == pytest.approx(total / 30, abs=1e-12)
    assert scav_distance(a, b) == scav_distance(b, a)


def test_contrastive_separated_pairs_loss_near_zero():
    e = np.zeros((4, 3, 2))
    e[:, :, 0] = 100.0 * np.arange(4)[:, None]
    assert contrastive_loss(e, e.copy(), temperature=1.0) < 1e-6


def test_contrastive_identical_pairs_is_log_b():
    e = np.ones((5, 3, 2))
    assert contrastive_loss(e, e, 0.5) == pytest.approx(math.log(5), abs=1e-12)


def test_contrastive_matches_double_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(100):
        pairs = [(rng.normal(size=(4, 3)), rng.normal(size=(4, 3))) for _ in range(4)]
        e_video = np.stack([v for v, _ in pairs])
        e_audio = np.stack([a for _, a in pairs])
        tau = 0.7
        got = contrastive_loss(e_video, e_audio, tau)

        d = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                diff = e_video[i] - e_audio[j]
                d[i, j] = (diff * diff).mean()
        logits = -d / tau

        def row_ce(m):
            total = 0.0
            for i in range(4):
                row = m[i]
                total -= row[i] - math.log(np.sum(np.exp(row - row.max()))) - row.max()
            return total / 4

        expected = 0.5 * (row_ce(logits) + row_ce(logits.T))
        assert got == pytest.approx(expected, abs=1e-12)


def test_contrastive_decreases_as_matched_pair_gets_closer():
    rng = np.random.default_rng(9)
    pairs = [(rng.normal(size=(3, 2)), rng.normal(size=(3, 2))) for _ in range(3)]
    e_video = np.stack([v for v, _ in pairs])
    e_audio = np.stack([a for _, a in pairs])
    closer = e_audio.copy()
    closer[0] = e_video[0]
    assert contrastive_loss(e_video, closer, 1.0) < contrastive_loss(e_video, e_audio, 1.0)


def test_contrastive_rejects_singleton():
    e = np.ones((1, 3, 2))
    with pytest.raises(ValidationError):
        contrastive_loss(e, e, 1.0)


def test_select_best_base_cases():
    cfg = small_config()
    params = init_scav_params(cfg, seed=10)
    rng = np.random.default_rng(11)
    video = rng.normal(size=(6, 4))
    e_video = scav_encode_video(params, video, cfg)
    feats = rng.normal(size=(5, 7))
    index, distances = select_best(e_video, [feats], params, cfg)
    assert index == 0 and len(distances) == 1

    # tie: duplicate candidates resolve to the lowest index
    index, distances = select_best(e_video, [feats, feats.copy()], params, cfg)
    assert index == 0
    assert distances[0] == distances[1]

    with pytest.raises(ValidationError):
        select_best(e_video, [], params, cfg)


def test_argmin_invariant_under_monotone_transform():
    rng = np.random.default_rng(12)
    distances = rng.random(10)
    assert np.argmin(distances) == np.argmin(np.exp(3.0 * distances))
    assert np.argmin(distances) == np.argmin(np.sqrt(distances) + 5.0)


def test_trained_scav_separates_planted_match():
    # miniature version of the planted-match protocol (full size in acceptance)
    rng = np.random.default_rng(13)
    n_classes = 8
    sig_v = {c: rng.normal(size=(5, 4)) for c in range(n_classes)}
    sig_a = {c: rng.normal(size=(6, 7)) for c in range(n_classes)}

    def noisy(sig):
        return sig + 0.1 * rng.normal(size=sig.shape)

    pairs = []
    for _ in range(300):
        c = rng.integers(n_classes)
        pairs.append((noisy(sig_v[c]), noisy(sig_a[c])))
    cfg = small_config()
    params = train_scav(pairs, cfg, seed=3, steps=200, batch_size=16)

    hits = 0
    trials = 100
    for _ in range(trials):
        c = int(rng.integers(n_classes))
        others = [o for o in range(n_classes) if o != c]
        decoys = rng.choice(others, size=4, replace=False)
        candidates = [noisy(sig_a[c])] + [noisy(sig_a[o]) for o in decoys]
        e_video = scav_encode_video(params, noisy(sig_v[c]), cfg)
        index, _ = select_best(e_video, candidates, params, cfg)
        hits += index == 0
    assert hits / trials >= 0.95
