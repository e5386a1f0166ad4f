"""Fréchet distance, MFCC-like front-end, cosine scores, novelty correlation."""

import warnings

import numpy as np
import pytest

from maskgram.errors import ShapeMismatchError, ValidationError
from maskgram.features import save_features
from maskgram.metrics import (
    EmbeddingSet,
    GaussianStats,
    checkerboard_kernel,
    cosine_semantic,
    frame_count,
    frechet_distance,
    frechet_from_sets,
    mfcc_like_frontend,
    novelty_curve,
    novelty_score,
    pearson,
    _dct_matrix,
    _mfcc_constants,
)


def stats(mean, cov):
    return GaussianStats(np.asarray(mean, float), np.asarray(cov, float))


def test_fd_identical_is_zero():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(50, 4))
    s = GaussianStats.from_embeddings(EmbeddingSet(a, "x"))
    assert frechet_distance(s, s) == pytest.approx(0.0, abs=1e-10)


def test_fd_one_dimensional_closed_form():
    a = stats([0.0], [[1.0]])
    b = stats([1.0], [[4.0]])
    # (mu1-mu2)^2 + (sigma1-sigma2)^2 = 1 + 1
    assert frechet_distance(a, b) == pytest.approx(2.0, abs=1e-6)


def test_fd_monte_carlo_matches_analytic_5d():
    rng = np.random.default_rng(42)
    d = 5
    mu1 = rng.normal(size=d)
    mu2 = mu1 + rng.normal(size=d) * 0.8
    q1 = rng.normal(size=(d, d))
    q2 = rng.normal(size=(d, d))
    cov1 = q1 @ q1.T + 0.5 * np.eye(d)
    cov2 = q2 @ q2.T + 0.5 * np.eye(d)
    analytic = frechet_distance(stats(mu1, cov1), stats(mu2, cov2))

    x1 = rng.multivariate_normal(mu1, cov1, size=10_000)
    x2 = rng.multivariate_normal(mu2, cov2, size=10_000)
    sampled = frechet_from_sets(EmbeddingSet(x1, "a"), EmbeddingSet(x2, "b"))
    assert sampled == pytest.approx(analytic, rel=0.02)


def test_fd_symmetry():
    rng = np.random.default_rng(1)
    q1 = rng.normal(size=(4, 4))
    q2 = rng.normal(size=(4, 4))
    a = stats(rng.normal(size=4), q1 @ q1.T + np.eye(4))
    b = stats(rng.normal(size=4), q2 @ q2.T + np.eye(4))
    assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-8)


def test_fd_grows_with_mean_separation():
    cov = np.eye(3)
    base = stats(np.zeros(3), cov)
    values = [
        frechet_distance(base, stats(np.full(3, sep), cov)) for sep in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_fd_dimension_mismatch():
    with pytest.raises(ShapeMismatchError):
        frechet_distance(stats([0.0], [[1.0]]), stats([0.0, 0.0], np.eye(2)))


def test_gaussian_stats_shrinkage_small_n():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))  # n < d + 1
    s = GaussianStats.from_embeddings(EmbeddingSet(x, "small"))
    eigvals = np.linalg.eigvalsh(s.cov)
    assert eigvals.min() > 0  # shrinkage keeps it positive definite


def test_gaussian_stats_rejects_asymmetric():
    cov = np.eye(3)
    cov[0, 1] = 0.5
    with pytest.raises(ValidationError):
        stats(np.zeros(3), cov)


# -- MFCC-like front-end -------------------------------------------------------------


def test_frame_count_standard_example():
    assert frame_count(44100) == 83


def test_frame_count_too_short():
    with pytest.raises(ValidationError):
        frame_count(2047)


def test_constant_zero_signal_gives_identical_frames():
    out = mfcc_like_frontend(np.zeros(2048 + 512 * 3))
    assert out.count == 4
    assert out.dim == 64
    assert np.allclose(out.vectors, out.vectors[0])


def test_dct_constant_vector_energy_in_first_coefficient():
    dct = _dct_matrix(64, 128)
    coeffs = dct @ np.full(128, 2.5)
    assert abs(coeffs[0]) > 1e-6
    np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-10)


def test_mfcc_constants_built_once_and_read_only():
    first = _mfcc_constants(44100.0)
    assert _mfcc_constants(44100.0) is first
    window, bank, dct = first
    assert window.shape == (2048,) and bank.shape == (128, 1025) and dct.shape == (64, 128)
    for arr in first:
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_mfcc_embedding_set_name():
    rng = np.random.default_rng(3)
    out = mfcc_like_frontend(rng.normal(size=4096))
    assert out.front_end_name == "mfcc-like"
    assert out.count == frame_count(4096)


# -- cosine ---------------------------------------------------------------------------


def test_cosine_basics():
    v = np.array([1.0, 2.0, 3.0])
    assert cosine_semantic(v, v) == pytest.approx(1.0)
    assert cosine_semantic([1, 0], [0, 1]) == pytest.approx(0.0)
    assert cosine_semantic(v, 2 * v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_scale_invariance_and_zero_rejection():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=5), rng.normal(size=5)
    assert cosine_semantic(a, b) == pytest.approx(
        cosine_semantic(3.7 * a, 0.2 * b), abs=1e-12
    )
    with pytest.raises(ValidationError):
        cosine_semantic(np.zeros(3), b[:3])


# -- novelty -------------------------------------------------------------------------


def segmented_sequence(n=40, boundary=20, d=6, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=d)
    b = rng.normal(size=d)
    seq = np.empty((n, d))
    seq[:boundary] = a + 0.01 * rng.normal(size=(boundary, d))
    seq[boundary:] = b + 0.01 * rng.normal(size=(n - boundary, d))
    return seq


def test_novelty_identical_sequences_score_one():
    seq = segmented_sequence()
    assert novelty_score(seq, seq, kernel_size=8) == pytest.approx(1.0, abs=1e-9)


def test_pearson_negation_is_minus_one():
    rng = np.random.default_rng(6)
    curve = rng.normal(size=30)
    assert pearson(curve, -curve) == pytest.approx(-1.0, abs=1e-12)


def test_novelty_peak_at_segment_boundary():
    kernel_size = 8
    seq = segmented_sequence(n=40, boundary=20)
    curve = novelty_curve(seq, kernel_size)
    assert abs(int(np.argmax(curve)) - 20) <= kernel_size // 2


def test_novelty_scale_invariance():
    seq_a = segmented_sequence(seed=7)
    seq_b = segmented_sequence(seed=8)
    base = novelty_score(seq_a, seq_b, kernel_size=8)
    scaled = novelty_score(2.5 * seq_a, 0.3 * seq_b, kernel_size=8)
    assert scaled == pytest.approx(base, abs=1e-10)


def test_novelty_resamples_shorter_curve():
    seq_a = segmented_sequence(n=40)
    seq_b = segmented_sequence(n=25)
    value = novelty_score(seq_a, seq_b, kernel_size=8)
    assert -1.0 <= value <= 1.0


def test_novelty_rejects_short_sequences():
    with pytest.raises(ValidationError):
        novelty_curve(np.ones((4, 3)), kernel_size=8)


def test_zero_variance_curve_warns_and_returns_zero():
    rng = np.random.default_rng(10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = pearson(np.full(20, 3.0), rng.normal(size=20))
    assert value == 0.0
    assert any("zero-variance" in str(w.message) for w in caught)


def test_checkerboard_kernel_structure():
    k = checkerboard_kernel(8)
    assert k.shape == (8, 8)
    assert abs(np.abs(k).sum() - 1.0) < 1e-12
    # opposite quadrants positive, mixed quadrants negative
    assert k[0, 0] > 0 and k[7, 7] > 0
    assert k[0, 7] < 0 and k[7, 0] < 0


def test_embedding_set_save_load(tmp_path):
    rng = np.random.default_rng(9)
    emb = EmbeddingSet(rng.normal(size=(12, 5)).astype(np.float32), "custom")
    path = tmp_path / "emb.emb"
    save_features(path, emb.vectors, emb.front_end_name)
    loaded = EmbeddingSet.load(path)
    assert loaded.front_end_name == "custom"
    np.testing.assert_allclose(loaded.vectors, emb.vectors, atol=1e-7)
