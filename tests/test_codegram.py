"""Token-grid data model: validation, immutability, file round-trips."""

import numpy as np
import pytest

from maskgram.codegram import (
    Codegram,
    CodebookSpec,
    MaskTensor,
    config_from,
    dump_text,
    load_codegram,
    save_codegram,
)
from maskgram.errors import (
    CorruptHeaderError,
    TokenRangeError,
    TrailingBytesError,
    TruncatedPayloadError,
    ValidationError,
)


def small_spec(levels=2, vocab=8):
    return CodebookSpec(levels=levels, vocab_size=vocab, frame_rate=86.1)


def random_codegram(rng, spec, length=6):
    return Codegram(rng.integers(0, spec.vocab_size, (length, spec.levels)), spec)


def test_spec_defaults_match_reference_codec():
    spec = CodebookSpec()
    assert spec.levels == 9
    assert spec.vocab_size == 1024


@pytest.mark.parametrize("kwargs", [
    {"levels": 0}, {"vocab_size": 1},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        CodebookSpec(**kwargs)


def test_codegram_rejects_out_of_range_tokens():
    spec = small_spec()
    with pytest.raises(TokenRangeError):
        Codegram(np.full((3, 2), 8), spec)
    with pytest.raises(TokenRangeError):
        Codegram(np.full((3, 2), -1), spec)


def test_codegram_is_immutable():
    spec = small_spec()
    grid = Codegram(np.zeros((3, 2), dtype=np.int32), spec)
    with pytest.raises(ValueError):
        grid.tokens[0, 0] = 1


def test_file_roundtrip(tmp_path):
    spec = CodebookSpec(levels=3, vocab_size=50, frame_rate=86.1)
    rng = np.random.default_rng(8)
    grid = random_codegram(rng, spec, length=17)
    path = tmp_path / "grid.cgram"
    save_codegram(grid, path)
    loaded = load_codegram(path)
    np.testing.assert_array_equal(loaded.tokens, grid.tokens)
    assert loaded.spec.levels == 3
    assert loaded.spec.vocab_size == 50
    assert loaded.spec.frame_rate == pytest.approx(86.1)


def test_file_roundtrip_is_bit_exact(tmp_path):
    spec = small_spec()
    rng = np.random.default_rng(9)
    grid = random_codegram(rng, spec)
    p1, p2 = tmp_path / "a.cgram", tmp_path / "b.cgram"
    save_codegram(grid, p1)
    save_codegram(load_codegram(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_out_of_range_token(tmp_path):
    spec = small_spec()
    grid = Codegram(np.zeros((2, 2), dtype=np.int32), spec)
    path = tmp_path / "bad.cgram"
    save_codegram(grid, path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = (spec.vocab_size).to_bytes(4, "little")  # token == D is invalid
    path.write_bytes(bytes(raw))
    with pytest.raises(TokenRangeError):
        load_codegram(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.cgram"
    path.write_bytes(b"")
    with pytest.raises(TruncatedPayloadError):
        load_codegram(path)


def test_load_rejects_truncated_payload(tmp_path):
    spec = small_spec()
    grid = Codegram(np.zeros((4, 2), dtype=np.int32), spec)
    path = tmp_path / "cut.cgram"
    save_codegram(grid, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedPayloadError):
        load_codegram(path)


def test_load_rejects_trailing_byte(tmp_path):
    path = tmp_path / "long.cgram"
    save_codegram(Codegram(np.zeros((4, 2), dtype=np.int32), small_spec()), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(TrailingBytesError):
        load_codegram(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.cgram"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(CorruptHeaderError):
        load_codegram(path)


def test_dump_text_format():
    spec = small_spec()
    grid = Codegram(np.array([[1, 2], [3, 4]]), spec)
    assert dump_text(grid) == "1 2\n3 4\n"


def test_config_from_takes_an_int_for_a_float_and_skips_retired_keys():
    data = {"levels": 2, "vocab_size": 8, "frame_rate": 50, "embed_dim": 8}
    assert config_from(CodebookSpec, data, "f.json", "spec") == CodebookSpec(2, 8, 50.0)


@pytest.mark.parametrize("damage, message", [
    ({"levels": True}, "f.json: spec.levels must be a JSON int, got True"),
    ({"levels": 2.0}, "f.json: spec.levels must be a JSON int, got 2.0"),
    ({"frame_rate": "50"}, "f.json: spec.frame_rate must be a JSON float, got '50'"),
    ({"frame_rate": None}, "f.json: missing field spec.frame_rate"),
    ({"extra": 1}, "f.json: unknown field spec.extra"),
    ({"vocab_size": 1}, "f.json: spec: vocab_size must be >= 2, got 1"),
])
def test_config_from_names_the_file_and_field(damage, message):
    data = {"levels": 2, "vocab_size": 8, "frame_rate": 50.0}
    for key, value in damage.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    with pytest.raises(ValidationError) as exc:
        config_from(CodebookSpec, data, "f.json", "spec")
    assert str(exc.value) == message
