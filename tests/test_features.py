"""Checked row stacking, nearest-neighbor resampling, feature files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgram.errors import (
    MissingStreamError,
    ShapeMismatchError,
    TrailingBytesError,
    TruncatedPayloadError,
    ValidationError,
)
from maskgram.features import (
    load_features,
    resample_indices,
    resample_nn,
    save_features,
    stack_rows,
    stack_streams,
)


def streams(clip_frames=5, clip_dim=4, s3d_frames=3, s3d_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "clip": rng.normal(size=(clip_frames, clip_dim)),
        "s3d": rng.normal(size=(s3d_frames, s3d_dim)),
    }


def test_resample_identity():
    seq = np.arange(12.0).reshape(4, 3)
    np.testing.assert_array_equal(resample_nn(seq, 4), seq)


def test_resample_frame_repetition():
    seq = np.array([[0.0], [1.0]])
    np.testing.assert_array_equal(resample_nn(seq, 4)[:, 0], [0, 0, 1, 1])


def test_resample_matches_index_oracle():
    # round-half-down of j * n_in / n_out, clamped
    idx = resample_indices(3, 7)
    oracle = []
    for j in range(7):
        x = j * 3 / 7
        import math

        oracle.append(min(max(math.ceil(x - 0.5), 0), 2))
    np.testing.assert_array_equal(idx, oracle)


@settings(max_examples=150, deadline=None)
@given(n_in=st.integers(1, 40), n_out=st.integers(1, 80))
def test_resample_indices_in_range_and_monotone(n_in, n_out):
    idx = resample_indices(n_in, n_out)
    assert idx.min() >= 0 and idx.max() <= n_in - 1
    assert (np.diff(idx) >= 0).all()


@settings(max_examples=60, deadline=None)
@given(n_in=st.integers(1, 30))
def test_resample_doubling_repeats_frames(n_in):
    # round-half-down NN doubles every frame exactly when n_out = 2 * n_in
    idx = resample_indices(n_in, 2 * n_in)
    assert (np.bincount(idx, minlength=n_in) == 2).all()


def test_resample_rejects_empty():
    with pytest.raises(ValidationError):
        resample_indices(0, 4)
    with pytest.raises(ValidationError):
        resample_indices(4, 0)


def test_stack_rows_rejects_empty_or_non_finite_float_data():
    for bad in (np.zeros((0, 3)), np.array([[np.nan]]), np.array([[1.0, np.inf]])):
        with pytest.raises(ValidationError, match="'x'"):
            stack_rows([{"x": np.ones(bad.shape)}, {"x": bad}], "x")
    # integer data (token grids) is stacked without the float check
    assert stack_rows([{"x": np.zeros((0, 2), dtype=np.int32)}], "x").shape == (1, 0, 2)


def test_stack_streams_rejects_a_row_without_a_stream():
    with pytest.raises(MissingStreamError, match="'s3d'"):
        stack_streams([streams(seed=0), {"clip": streams(seed=1)["clip"]}])


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(7, 5)).astype(np.float32)
    path = tmp_path / "f.emb"
    save_features(path, mat, "clip-like")
    loaded, name = load_features(path)
    assert name == "clip-like"
    np.testing.assert_array_equal(loaded, mat.astype(np.float64))


def test_feature_file_truncation(tmp_path):
    path = tmp_path / "cut.emb"
    save_features(path, np.zeros((4, 4), dtype=np.float32), "x")
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(TruncatedPayloadError):
        load_features(path)


def test_feature_file_trailing_byte(tmp_path):
    path = tmp_path / "long.emb"
    save_features(path, np.zeros((4, 4), dtype=np.float32), "x")
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(TrailingBytesError):
        load_features(path)


def test_stack_streams_shape_check():
    b1 = streams(seed=0)
    b2 = streams(seed=1)
    stacked = stack_streams([b1, b2])
    assert stacked["clip"].shape == (2, 5, 4)
    assert stacked["clip"].tobytes() == np.stack([b1["clip"], b2["clip"]]).tobytes()
    bad = streams(clip_frames=6, seed=2)
    with pytest.raises(ShapeMismatchError, match="'clip'"):
        stack_streams([b1, bad])
    with pytest.raises(ShapeMismatchError, match="'clip'"):
        stack_streams([bad, b1])
