"""Subcommand behavior, exit codes, config handling, dataset workflows."""

import json

import numpy as np
import pytest

from maskgram import cli
from maskgram.cli import main
from maskgram.features import save_features


def run(argv):
    return main(argv)


def gen_args(out, rule="deterministic-map", count=12, extra=()):
    return [
        "gen-data", "--rule", rule, "--count", str(count), "--out", str(out),
        "--length", "8", "--levels", "2", "--vocab-size", "16",
        "--clip-frames", "4", "--clip-dim", "6", "--s3d-frames", "5",
        "--s3d-dim", "4", "--target-frames", "5", "--target-dim", "6",
        "--n-classes", "4", "--seed", "3", *extra,
    ]


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run(gen_args(out)) == 0
    return out


def test_gen_data_writes_files_and_manifest(dataset):
    manifest = json.loads((dataset / "manifest.json").read_text())
    assert manifest["count"] == 12
    assert len(list(dataset.glob("*.cgram"))) == 12
    assert len(list(dataset.glob("*.clip.emb"))) == 12


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen-data", "--nonsense", "1"])
    assert exc.value.code == 2


def test_missing_dataset_exits_3(tmp_path):
    code = run([
        "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "x.ckpt"),
    ])
    assert code == 4 or code == 3  # missing manifest is a validation error


def test_missing_file_exits_3(tmp_path, dataset):
    code = run([
        "select", "--scav-checkpoint", str(tmp_path / "missing.ckpt"),
        "--video", str(dataset / "ex_00000.clip.emb"),
        "--candidates", str(dataset / "ex_00000.beats.emb"),
    ])
    assert code == 3


def test_config_file_overrides_defaults(tmp_path):
    out = tmp_path / "data"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "count": 10, "seed": 9}))
    code = run([
        "gen-data", "--rule", "deterministic-map", "--count", "12",
        "--out", str(out), "--config", str(cfg),
    ])
    assert code == 0
    # explicit flag wins over config; config supplied the seed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 12
    assert manifest["task"]["seed"] == 9


def test_config_unknown_key_exits_4(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "no_such_key": 5}))
    code = run([
        "gen-data", "--rule", "deterministic-map", "--count", "4",
        "--out", str(tmp_path / "d"), "--config", str(cfg),
    ])
    assert code == 4


def test_config_wrong_version_exits_4(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 99}))
    code = run([
        "gen-data", "--rule", "deterministic-map", "--count", "4",
        "--out", str(tmp_path / "d"), "--config", str(cfg),
    ])
    assert code == 4


def train_tiny(dataset, tmp_path, extra=()):
    ckpt = tmp_path / "model.ckpt"
    code = run([
        "train", "--data", str(dataset), "--out", str(ckpt),
        "--structure", "seq2seq", "--depth", "1", "--hidden", "16", "--heads", "2",
        "--encoder-depth", "1", "--steps", "4", "--batch-size", "4",
        "--warmup", "2", "--seed", "1", *extra,
    ])
    assert code == 0
    return ckpt


def test_train_writes_checkpoint_and_metrics(dataset, tmp_path):
    log = tmp_path / "metrics.csv"
    ckpt = train_tiny(dataset, tmp_path, extra=["--metrics-log", str(log)])
    assert ckpt.exists()
    assert ckpt.with_name(ckpt.name + ".json").exists()
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,l_mask,l_mse,l_cont,lr,accuracy"
    assert len(lines) == 5


def test_train_scav_checkpoint(dataset, tmp_path):
    ckpt = tmp_path / "scav.ckpt"
    code = run([
        "train", "--data", str(dataset), "--out", str(ckpt), "--what", "scav",
        "--steps", "5", "--batch-size", "8", "--n-scav", "4", "--h-scav", "4",
        "--scav-width", "8", "--seed", "2",
    ])
    assert code == 0
    meta = json.loads(ckpt.with_name(ckpt.name + ".json").read_text())
    assert "scav" in meta


def test_sample_dump_schedule_only(dataset, capsys):
    code = run([
        "sample", "--data", str(dataset), "--dump-schedule", "--steps", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "step,masked_count,kappa" in out


def test_sample_writes_beams_and_trace(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    out_dir = tmp_path / "samples"
    code = run([
        "sample", "--ckpt", str(ckpt), "--data", str(dataset), "--split", "test",
        "--index", "0", "--beams", "2", "--steps", "3", "--gamma", "0",
        "--delta", "0", "--seed", "4", "--out", str(out_dir), "--trace",
    ])
    assert code == 0
    assert (out_dir / "beam_000.cgram").exists()
    assert (out_dir / "beam_001.cgram").exists()
    assert "step,masked_count,mean_confidence" in capsys.readouterr().out


def test_sample_trace_follows_beam_zero(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    traces = []
    for beams in ("1", "3"):
        capsys.readouterr()
        assert run([
            "sample", "--ckpt", str(ckpt), "--data", str(dataset), "--beams", beams,
            "--steps", "4", "--seed", "5", "--out", str(tmp_path / beams), "--trace",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        start = out.index("step,masked_count,mean_confidence")
        traces.append(out[start:start + 5])
    assert len(traces[0]) == 5
    assert traces[0] == traces[1]


def test_sample_chunks_give_same_bytes_at_any_threads(dataset, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SAMPLE_CHUNK_ROWS", 2)
    ckpt = train_tiny(dataset, tmp_path)
    beams = {}
    for threads in ("1", "3"):
        out = tmp_path / f"threads{threads}"
        assert run([
            "sample", "--ckpt", str(ckpt), "--data", str(dataset), "--beams", "5",
            "--steps", "3", "--seed", "8", "--threads", threads, "--out", str(out),
        ]) == 0
        beams[threads] = [f.read_bytes() for f in sorted(out.glob("*.cgram"))]
    assert len(beams["1"]) == 5
    assert len(set(beams["1"])) > 1
    assert beams["1"] == beams["3"]


def test_sample_splits_rows_evenly_across_threads(dataset, tmp_path):
    ckpt = train_tiny(dataset, tmp_path)
    beams = {}
    for threads in ("1", "2", "3"):
        out = tmp_path / f"threads{threads}"
        assert run([
            "sample", "--ckpt", str(ckpt), "--data", str(dataset), "--beams", "16",
            "--steps", "3", "--seed", "8", "--threads", threads, "--out", str(out),
        ]) == 0
        beams[threads] = [f.read_bytes() for f in sorted(out.glob("*.cgram"))]
    assert len(beams["1"]) == 16
    assert len(set(beams["1"])) > 1
    assert beams["1"] == beams["2"] == beams["3"]


@pytest.mark.parametrize("beams, threads, rows", [
    ("16", "1", [16]), ("16", "2", [8, 8]), ("2", "2", [2]),
])
def test_sample_chunk_rows_per_call(dataset, tmp_path, monkeypatch, beams, threads, rows):
    ckpt = train_tiny(dataset, tmp_path)
    calls = []
    sample_batch = cli.sample_batch

    def spy(model, bundles, *args, **kwargs):
        calls.append(len(bundles))
        return sample_batch(model, bundles, *args, **kwargs)

    monkeypatch.setattr(cli, "sample_batch", spy)
    assert run([
        "sample", "--ckpt", str(ckpt), "--data", str(dataset), "--beams", beams,
        "--steps", "2", "--threads", threads, "--out", str(tmp_path / "s"),
    ]) == 0
    assert sorted(calls) == rows


def test_sample_truncated_checkpoint_exits_3(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    ckpt.write_bytes(ckpt.read_bytes()[:2000])
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error (io):") and err.count("\n") == 1


def test_sample_checkpoint_trailing_byte_exits_3(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    ckpt.write_bytes(ckpt.read_bytes() + b"\0")
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 3
    _assert_one_line_error(capsys, "io")


def test_sample_gamma_zero_matches_force_two_pass(dataset, tmp_path):
    ckpt = train_tiny(dataset, tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    base = [
        "sample", "--ckpt", str(ckpt), "--data", str(dataset), "--index", "0",
        "--beams", "1", "--steps", "3", "--gamma", "0", "--delta", "0",
        "--seed", "6",
    ]
    assert run(base + ["--out", str(a_dir)]) == 0
    assert run(base + ["--out", str(b_dir), "--force-two-pass"]) == 0
    assert (a_dir / "beam_000.cgram").read_bytes() == (b_dir / "beam_000.cgram").read_bytes()


def test_select_emits_index_and_distances(dataset, tmp_path, capsys):
    scav = tmp_path / "scav.ckpt"
    run([
        "train", "--data", str(dataset), "--out", str(scav), "--what", "scav",
        "--steps", "5", "--batch-size", "8", "--n-scav", "4", "--h-scav", "4",
        "--scav-width", "8",
    ])
    capsys.readouterr()
    code = run([
        "select", "--scav-checkpoint", str(scav),
        "--video", str(dataset / "ex_00010.clip.emb"),
        "--candidates", str(dataset / "ex_00010.cgram"), str(dataset / "ex_00011.cgram"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "selected_index=" in out
    lines = [l for l in out.splitlines() if l.startswith("distances=")]
    assert len(lines) == 1
    assert len(lines[0].split(",")) == 2


def test_eval_identical_embedding_sets(tmp_path, capsys):
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(40, 6)).astype(np.float32)
    a, b = tmp_path / "a.emb", tmp_path / "b.emb"
    save_features(a, emb, "x")
    save_features(b, emb, "x")
    code = run(["eval", "--generated", str(a), "--reference", str(b),
                "--kernel-size", "8"])
    assert code == 0
    out = capsys.readouterr().out
    values = dict(
        line.split(",", 1) for line in out.splitlines()
        if "," in line and " " not in line
    )
    assert float(values["fd"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["novelty_score"]) == pytest.approx(1.0, abs=1e-9)
    assert float(values["cosine_mean_embedding"]) == pytest.approx(1.0, abs=1e-9)


def test_eval_codegram_dirs(dataset, tmp_path, capsys):
    code = run(["eval", "--generated", str(dataset), "--reference", str(dataset),
                "--kernel-size", "4", "--report", str(tmp_path / "report.txt")])
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    values = dict(
        line.split(",", 1) for line in report.splitlines()
        if "," in line and " " not in line
    )
    assert float(values["fd_dac_latent"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["fd_mfcc_like"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["exact_match_rate"]) == 1.0
    assert float(values["novelty_score_mean"]) == pytest.approx(1.0, abs=1e-9)


def test_wrong_checkpoint_kind_exits_4(dataset, tmp_path):
    scav = tmp_path / "scav.ckpt"
    run([
        "train", "--data", str(dataset), "--out", str(scav), "--what", "scav",
        "--steps", "3", "--batch-size", "8", "--n-scav", "4", "--h-scav", "4",
        "--scav-width", "8",
    ])
    code = run([
        "sample", "--ckpt", str(scav), "--data", str(dataset), "--index", "0",
        "--steps", "2", "--out", str(tmp_path / "s"),
    ])
    assert code == 4


def test_eval_mixed_path_types_exits_4(dataset, tmp_path):
    rng = np.random.default_rng(1)
    emb = tmp_path / "e.emb"
    save_features(emb, rng.normal(size=(4, 3)).astype(np.float32), "x")
    assert run(["eval", "--generated", str(dataset), "--reference", str(emb)]) == 4


def _assert_one_line_error(capsys, kind: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith(f"error ({kind}):") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--threads", "--beams"])
def test_sample_nonpositive_count_exits_4(dataset, tmp_path, capsys, flag):
    ckpt = train_tiny(dataset, tmp_path)
    capsys.readouterr()
    out = tmp_path / "s"
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset), flag, "0",
                "--out", str(out)])
    assert code == 4
    _assert_one_line_error(capsys, "validation")
    assert not out.exists()


def test_pipeline_zero_threads_exits_4(tmp_path, capsys):
    out = tmp_path / "p"
    argv = gen_args(out, count=40)[1:]
    assert run(["pipeline", *argv, "--threads", "0"]) == 4
    _assert_one_line_error(capsys, "validation")
    assert not out.exists()


@pytest.mark.parametrize("what", ["model", "scav"])
@pytest.mark.parametrize("flag", ["--steps", "--batch-size"])
def test_train_zero_count_exits_4(dataset, tmp_path, capsys, flag, what):
    ckpt = tmp_path / "model.ckpt"
    capsys.readouterr()
    assert run(["train", "--data", str(dataset), "--out", str(ckpt), "--what", what,
                flag, "0"]) == 4
    _assert_one_line_error(capsys, "validation")
    assert not ckpt.exists()


@pytest.mark.parametrize("flag", ["--batch-size", "--eval-count", "--train-steps",
                                  "--scav-steps"])
def test_pipeline_zero_count_exits_4(tmp_path, capsys, flag):
    out = tmp_path / "p"
    argv = gen_args(out, count=40)[1:]
    assert run(["pipeline", *argv, flag, "0"]) == 4
    _assert_one_line_error(capsys, "validation")
    assert not out.exists()


def test_checkpoint_config_not_json_exits_3(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    (tmp_path / "model.ckpt.json").write_text('{"model": ')
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 3
    _assert_one_line_error(capsys, "io")


@pytest.mark.parametrize("damage", ["drop-spec", "string-depth", "list-meta"])
def test_checkpoint_config_missing_or_mistyped_keys_exit_4(dataset, tmp_path, capsys,
                                                           damage):
    ckpt = train_tiny(dataset, tmp_path)
    meta_path = tmp_path / "model.ckpt.json"
    meta = json.loads(meta_path.read_text())
    if damage == "drop-spec":
        del meta["model"]["spec"]
    elif damage == "string-depth":
        meta["model"]["depth"] = "one"
    else:
        meta = [meta]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 4
    _assert_one_line_error(capsys, "validation")


def test_manifest_not_json_exits_3(dataset, tmp_path, capsys):
    (dataset / "manifest.json").write_text("{not json")
    capsys.readouterr()
    code = run(["sample", "--data", str(dataset), "--dump-schedule"])
    assert code == 3
    _assert_one_line_error(capsys, "io")


@pytest.mark.parametrize("damage", ["drop-splits", "string-count"])
def test_manifest_missing_or_mistyped_keys_exit_4(dataset, tmp_path, capsys, damage):
    path = dataset / "manifest.json"
    manifest = json.loads(path.read_text())
    if damage == "drop-splits":
        del manifest["splits"]
    else:
        manifest["count"] = "twelve"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run(["sample", "--data", str(dataset), "--dump-schedule"])
    assert code == 4
    _assert_one_line_error(capsys, "validation")
