"""Subcommand behavior, exit codes, config handling, dataset workflows."""

import contextlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maskgram
from maskgram import cli, selector
from maskgram.cli import main
from maskgram.codegram import Codegram, config_from, load_codegram, save_codegram
from maskgram.features import load_features, save_features
from maskgram.model import (
    MaskedGridTransformer,
    ModelConfig,
    load_checkpoint,
    param_layout,
    save_checkpoint,
)
from maskgram.synthetic import latent_sequence


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
    # a JSON int passes for a float flag
    cfg.write_text(json.dumps({"version": 1, "count": 10, "seed": 9, "noise_level": 0}))
    code = run([
        "gen-data", "--rule", "deterministic-map", "--count", "12",
        "--out", str(out), "--config", str(cfg),
    ])
    assert code == 0
    # explicit flag wins over config; config supplied the seed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 12
    assert manifest["task"]["seed"] == 9
    assert manifest["task"]["noise_level"] == 0


def test_config_unknown_key_exits_4(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "no_such_key": 5}))
    code = run([
        "gen-data", "--rule", "deterministic-map", "--count", "4",
        "--out", str(tmp_path / "d"), "--config", str(cfg),
    ])
    assert code == 4


@pytest.mark.parametrize("form", ["separate", "equals", "abbreviated"])
def test_config_flag_forms_all_apply(dataset, tmp_path, capsys, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "steps": 3}))
    flag = {"separate": ["--config", str(cfg)], "equals": [f"--config={cfg}"],
            "abbreviated": ["--conf", str(cfg)]}[form]
    capsys.readouterr()
    assert run(["sample", "--data", str(dataset), "--dump-schedule", *flag]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    resolved = json.loads(line.removeprefix("[sample] resolved config: "))
    assert resolved["steps"] == 3


def test_config_wrong_version_exits_4(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 99}))
    code = run([
        "gen-data", "--rule", "deterministic-map", "--count", "4",
        "--out", str(tmp_path / "d"), "--config", str(cfg),
    ])
    assert code == 4


@pytest.mark.parametrize("config", [
    [1, 2], "s", 3, {"version": 1, "beams": [2]}, {"version": 1, "index": None},
    {"version": 1, "steps": 2.5}, {"version": 1, "split": "dev"},
    {"version": 1, "trace": "yes"}, {"version": True}, {"version": 1.0},
    {"version": 1, "steps": "4"}, {"version": 1, "gamma": "1e0"},
    {"version": 1, "out": [1, 2]}, {"version": 1, "help": True},
    {"version": 1, "config": "x.json"},
])
def test_config_not_an_object_or_mistyped_exits_4(dataset, tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    code = run(["sample", "--data", str(dataset), "--dump-schedule", "--config", str(cfg)])
    assert code == 4
    if isinstance(config, dict):  # the message names the flag, else the version
        named = next((repr(key) for key in config if key != "version"), "version")
    else:
        named = "JSON object"
    _assert_one_line_error(capsys, "validation", named)


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

    def spy(model, rows, *args, **kwargs):
        calls.append(len(rows))
        return sample_batch(model, rows, *args, **kwargs)

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
    _assert_one_line_error(capsys, "io", "truncated")


def test_sample_checkpoint_trailing_byte_exits_3(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    ckpt.write_bytes(ckpt.read_bytes() + b"\0")
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 3
    _assert_one_line_error(capsys, "io", "after the last field")


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


@pytest.mark.parametrize("damage", ["video-width", "candidate-width", "config-width",
                                    "weight-nan", "video-nan", "candidate-nan"])
def test_select_width_mismatch_exits_4(dataset, tmp_path, capsys, damage):
    scav = tmp_path / "scav.ckpt"
    assert run([
        "train", "--data", str(dataset), "--out", str(scav), "--what", "scav",
        "--steps", "2", "--batch-size", "8", "--n-scav", "4", "--h-scav", "4",
        "--scav-width", "8",
    ]) == 0
    video, candidate = dataset / "ex_00010.clip.emb", dataset / "ex_00010.cgram"
    if damage == "video-width":  # s3d-like features are 4 wide, the video branch takes 6
        video = dataset / "ex_00010.s3d.emb"
    elif damage == "candidate-width":  # the audio branch takes 8 x 2 levels
        candidate = dataset / "ex_00010.clip.emb"
    elif damage == "config-width":  # the config no longer matches the records' shapes
        meta_path = tmp_path / "scav.ckpt.json"
        meta = json.loads(meta_path.read_text())
        meta["scav"]["width"] = 9
        meta_path.write_text(json.dumps(meta))
    elif damage == "weight-nan":
        params, _, meta = load_checkpoint(scav)
        params["video.fc1.w"].data[0, 0] = np.nan
        save_checkpoint(scav, params, {"scav": meta["scav"]})
    elif damage == "video-nan":
        feats, name = load_features(video)
        feats[0, 0] = np.nan
        video = tmp_path / "video.emb"
        save_features(video, feats, name)
    else:  # an audio-width feature file in place of the grid, with one NaN
        feats = latent_sequence(load_codegram(candidate))
        feats[0, 0] = np.nan
        candidate = tmp_path / "candidate.emb"
        save_features(candidate, feats, "beats")
    capsys.readouterr()
    code = run(["select", "--scav-checkpoint", str(scav), "--video", str(video),
                "--candidates", str(candidate)])
    assert code == 4
    named = {"video-width": "video feature width", "candidate-width": "audio feature width",
             "config-width": "shape mismatch for video.fc1.w",
             "weight-nan": f"{scav}: parameter video.fc1.w", "video-nan": "video features",
             "candidate-nan": "audio features"}[damage]
    _assert_one_line_error(capsys, "validation", named)


def test_pipeline_runs_the_train_stages(tmp_path):
    out = tmp_path / "p"
    flags = ["--depth", "1", "--hidden", "16", "--heads", "2", "--encoder-depth", "1",
             "--batch-size", "4", "--warmup", "2", "--n-scav", "4", "--h-scav", "4",
             "--scav-width", "8"]
    assert run(["pipeline", *gen_args(out)[1:], *flags, "--train-steps", "4",
                "--scav-steps", "3", "--beams", "2", "--steps", "2", "--eval-count", "1",
                "--kernel-size", "4"]) == 0
    data = str(out / "data")
    assert run(["train", "--data", data, "--out", str(tmp_path / "model.ckpt"), *flags,
                "--steps", "4", "--seed", "3",
                "--metrics-log", str(tmp_path / "metrics.csv")]) == 0
    assert run(["train", "--what", "scav", "--data", data,
                "--out", str(tmp_path / "scav.ckpt"), *flags, "--steps", "3",
                "--seed", "3"]) == 0
    for name in ("model.ckpt", "model.ckpt.json", "metrics.csv", "scav.ckpt",
                 "scav.ckpt.json"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    # sample seeds its beams as pipeline does, so the chosen grid is one of them
    samples = tmp_path / "samples"
    assert run(["sample", "--ckpt", str(out / "model.ckpt"), "--data", data,
                "--split", "test", "--index", "0", "--beams", "2", "--steps", "2",
                "--gamma", "0", "--delta", "0", "--seed", "3", "--out", str(samples)]) == 0
    chosen = (out / "chosen" / "chosen_00000.cgram").read_bytes()
    assert chosen in [p.read_bytes() for p in sorted(samples.glob("beam_*.cgram"))]


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


def _assert_one_line_error(capsys, kind: str, named: str) -> None:
    """stderr is one `error (<kind>):` line that names the field, flag or fault."""
    err = capsys.readouterr().err
    assert err.startswith(f"error ({kind}):") and err.count("\n") == 1
    assert named in err, err


def run_subprocess(argv) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, whose stderr shows every warning a user would see
    (pytest captures warnings in-process)."""
    path = [str(Path(maskgram.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "maskgram.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_diverging_training_prints_only_its_error_line(dataset, tmp_path):
    done = run_subprocess(["train", "--data", str(dataset), "--out",
                           str(tmp_path / "m.ckpt"), "--hidden", "16", "--steps", "3",
                           "--peak-lr", "1e300"])
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("error (validation): non-finite values detected in ")
    assert done.stderr.count("\n") == 1, done.stderr


def test_weight_beyond_float32_range_fails_sampling_threads_in_one_line(dataset, tmp_path):
    ckpt = train_tiny(dataset, tmp_path)
    params, extra, meta = load_checkpoint(ckpt)
    params["enc.in.w"].data[0, 0] = 1e39  # finite in float64, not in float32
    save_checkpoint(ckpt, params, {k: v for k, v in meta.items() if k != "version"}, extra)
    # 16 beams on 2 threads are two 8-row sample_batch calls in pool threads
    done = run_subprocess(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                           "--beams", "16", "--threads", "2", "--steps", "2",
                           "--out", str(tmp_path / "s")])
    assert done.returncode == 4, done.stderr
    assert done.stderr == ("error (validation): non-finite values detected in "
                           "parameter enc.in.w\n")


@pytest.mark.parametrize("flag", ["--threads", "--beams"])
def test_sample_nonpositive_count_exits_4(dataset, tmp_path, capsys, flag):
    ckpt = train_tiny(dataset, tmp_path)
    capsys.readouterr()
    out = tmp_path / "s"
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset), flag, "0",
                "--out", str(out)])
    assert code == 4
    _assert_one_line_error(capsys, "validation", flag)
    assert not out.exists()


def test_pipeline_zero_threads_exits_4(tmp_path, capsys):
    out = tmp_path / "p"
    argv = gen_args(out, count=40)[1:]
    assert run(["pipeline", *argv, "--threads", "0"]) == 4
    _assert_one_line_error(capsys, "validation", "--threads")
    assert not out.exists()


@pytest.mark.parametrize("what", ["model", "scav"])
@pytest.mark.parametrize("flag", ["--steps", "--batch-size"])
def test_train_zero_count_exits_4(dataset, tmp_path, capsys, flag, what):
    ckpt = tmp_path / "model.ckpt"
    capsys.readouterr()
    assert run(["train", "--data", str(dataset), "--out", str(ckpt), "--what", what,
                flag, "0"]) == 4
    _assert_one_line_error(capsys, "validation", flag[2:].replace("-", "_"))
    assert not ckpt.exists()


@pytest.mark.parametrize("flag", ["--batch-size", "--eval-count", "--train-steps",
                                  "--scav-steps"])
def test_pipeline_zero_count_exits_4(tmp_path, capsys, flag):
    out = tmp_path / "p"
    argv = gen_args(out, count=40)[1:]
    assert run(["pipeline", *argv, flag, "0"]) == 4
    # TrainConfig's own check names its fields
    named = {"--batch-size": "batch_size", "--train-steps": "steps"}.get(flag, flag)
    _assert_one_line_error(capsys, "validation", named)
    assert not out.exists()


@pytest.mark.parametrize("extra, count", [
    (["--batch-size", "1"], 40),
    (["--batch-size", "1", "--structure", "adaln"], 40),
    ([], 0),
    ([], 1),
    ([], 2),
])
def test_pipeline_batch_or_train_split_below_two_exits_4(tmp_path, capsys, extra, count):
    # checked before --out is created, so nothing is left behind
    out = tmp_path / "p"
    argv = gen_args(out, count=count)[1:]
    capsys.readouterr()
    assert run(["pipeline", *argv, *extra]) == 4
    _assert_one_line_error(capsys, "validation", "pipeline needs --batch-size >= 2")
    assert not out.exists()


def test_checkpoint_config_not_json_exits_3(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    (tmp_path / "model.ckpt.json").write_text('{"model": ')
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 3
    _assert_one_line_error(capsys, "io", "invalid JSON")


@pytest.mark.parametrize("damage, named", [
    pytest.param({"spec": None}, "model.spec", id="drop-spec"),
    pytest.param({"depth": "one"}, "model.depth", id="string-depth"),
    pytest.param("list-meta", "JSON object", id="list-meta"),
    pytest.param({"heads": 0}, "heads must be >= 1", id="zero-heads"),
    pytest.param("version-true", "version", id="version-true"),
    pytest.param("version-1.0", "version", id="version-1.0"),
    pytest.param({"heads": 2.0}, "model.heads", id="float-heads"),
    pytest.param({"depth": True}, "model.depth", id="bool-depth"),
    pytest.param({"spec.levels": None}, "model.spec.levels", id="drop-spec-levels"),
    pytest.param({"streams.0.channels": None}, "model.streams[0].channels",
                 id="drop-streams-0-channels"),
    pytest.param({"spec.vocab_size": "16"}, "model.spec.vocab_size", id="string-vocab-size"),
    pytest.param({"streams": {}}, "model.streams", id="object-streams"),
    pytest.param({"no_such_key": 1}, "model.no_such_key", id="unknown-key"),
    pytest.param({"spec.no_such_key": 1}, "model.spec.no_such_key", id="unknown-spec-key"),
    pytest.param({"max_len": -1}, "max_len must be >= 1", id="negative-max-len"),
    pytest.param({"cond_max_len": -1}, "cond_max_len must be >= 1",
                 id="negative-cond-max-len"),
])
def test_checkpoint_config_missing_or_mistyped_keys_exit_4(dataset, tmp_path, capsys,
                                                           damage, named):
    ckpt = train_tiny(dataset, tmp_path)
    meta_path = tmp_path / "model.ckpt.json"
    meta = json.loads(meta_path.read_text())
    if damage in ("version-true", "version-1.0"):
        meta["version"] = True if damage == "version-true" else 1.0
    elif damage == "list-meta":
        meta = [meta]
    else:
        _damage_keys(meta["model"], damage)
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 4
    _assert_one_line_error(capsys, "validation", named)
    assert not (tmp_path / "s").exists()


def _damage_keys(obj, damage: dict) -> None:
    """Set each dotted key path of `damage` in the JSON object `obj`; None deletes it."""
    for path, value in damage.items():
        *parents, key = path.split(".")
        target = obj
        for part in parents:
            target = target[int(part)] if isinstance(target, list) else target[part]
        if value is None:
            del target[key]
        else:
            target[key] = value


@pytest.mark.parametrize("damage, named", [
    pytest.param({"n_scav": None}, "scav.n_scav", id="drop-n-scav"),
    pytest.param({"n_scav": 8.5}, "scav.n_scav", id="float-n-scav"),
    pytest.param({"temperature": "0.07"}, "scav.temperature", id="string-temperature"),
    pytest.param({"width": True}, "scav.width", id="bool-width"),
    pytest.param({"no_such_key": 1}, "scav.no_such_key", id="unknown-key"),
    pytest.param({"temperature": 0}, "temperature must be finite and > 0",
                 id="zero-temperature"),
])
def test_scav_checkpoint_config_missing_or_mistyped_keys_exit_4(dataset, tmp_path, capsys,
                                                                damage, named):
    scav = tmp_path / "scav.ckpt"
    assert run([
        "train", "--data", str(dataset), "--out", str(scav), "--what", "scav",
        "--steps", "2", "--batch-size", "8", "--n-scav", "8", "--h-scav", "4",
        "--scav-width", "8",
    ]) == 0
    meta_path = tmp_path / "scav.ckpt.json"
    meta = json.loads(meta_path.read_text())
    _damage_keys(meta["scav"], damage)
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    code = run(["select", "--scav-checkpoint", str(scav),
                "--video", str(dataset / "ex_00010.clip.emb"),
                "--candidates", str(dataset / "ex_00010.cgram")])
    assert code == 4
    _assert_one_line_error(capsys, "validation", named)


def test_checkpoint_deeper_than_its_records_exits_4_in_one_short_line(dataset, tmp_path,
                                                                      capsys):
    ckpt = train_tiny(dataset, tmp_path)
    meta_path = tmp_path / "model.ckpt.json"
    meta = json.loads(meta_path.read_text())
    meta["model"]["depth"] = 30
    meta_path.write_text(json.dumps(meta))
    deeper = param_layout(config_from(ModelConfig, meta["model"], "", "model"))
    extra = len(set(deeper) - set(load_checkpoint(ckpt)[0]))
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error (validation):") and err.count("\n") == 1
    assert f"parameter mismatch in {extra} names: " in err and extra > 5
    assert len(err) < 300, err


@pytest.mark.parametrize("kind, field, value", [
    ("model", "hidden", 3000),
    ("model", "depth", 3000),
    ("scav", "width", 100000),
])
def test_checkpoint_config_that_disagrees_with_its_records_allocates_nothing(
        dataset, tmp_path, capsys, monkeypatch, kind, field, value):
    # the records are checked against the config's layout before any parameter is drawn
    if kind == "model":
        ckpt = train_tiny(dataset, tmp_path)
        argv = ["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")]
    else:
        ckpt = tmp_path / "scav.ckpt"
        assert run(["train", "--data", str(dataset), "--out", str(ckpt), "--what", "scav",
                    "--steps", "2", "--batch-size", "8", "--n-scav", "8", "--h-scav", "4",
                    "--scav-width", "8"]) == 0
        argv = ["select", "--scav-checkpoint", str(ckpt),
                "--video", str(dataset / "ex_00010.clip.emb"),
                "--candidates", str(dataset / "ex_00010.cgram")]
    meta_path = tmp_path / f"{kind}.ckpt.json"
    meta = json.loads(meta_path.read_text())
    meta[kind][field] = value
    meta_path.write_text(json.dumps(meta))
    calls = []
    monkeypatch.setattr(MaskedGridTransformer, "__init__",
                        lambda *args, **kw: calls.append("model"))
    monkeypatch.setattr(selector, "init_scav_params", lambda *args: calls.append("scav"))
    capsys.readouterr()
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error (validation):") and err.count("\n") == 1, err
    assert calls == []


def test_checkpoint_config_int_for_a_float_field_loads(dataset, tmp_path):
    ckpt = train_tiny(dataset, tmp_path)
    meta_path = tmp_path / "model.ckpt.json"
    meta = json.loads(meta_path.read_text())
    meta["model"]["cond_dropout_prob"] = 0
    meta_path.write_text(json.dumps(meta))
    assert run(["sample", "--ckpt", str(ckpt), "--data", str(dataset), "--steps", "2",
                "--out", str(tmp_path / "s")]) == 0


def test_manifest_not_json_exits_3(dataset, tmp_path, capsys):
    (dataset / "manifest.json").write_text("{not json")
    capsys.readouterr()
    code = run(["sample", "--data", str(dataset), "--dump-schedule"])
    assert code == 3
    _assert_one_line_error(capsys, "io", "invalid JSON")


@pytest.mark.parametrize("damage, named", [
    pytest.param({"splits": None}, "'splits'", id="drop-splits"),
    pytest.param({"count": "twelve"}, "count", id="string-count"),
    # a test split entry that is no example index
    pytest.param({"splits.test": [99]}, "99", id="99"),
    pytest.param({"splits.test": ["a"]}, "'a'", id="a"),
    pytest.param({"splits.test": [-1]}, "-1", id="-1"),
    pytest.param({"splits.test": [True]}, "True", id="True"),
    pytest.param({"version": True}, "version", id="version-true"),
    pytest.param({"version": 1.0}, "version", id="version-1.0"),
    pytest.param({"count": True}, "count", id="bool-count"),
    pytest.param({"task": None}, "task", id="drop-task"),
    pytest.param({"task.length": None}, "task.length", id="drop-task-length"),
    pytest.param({"task.length": 16.5}, "task.length", id="float-task-length"),
    pytest.param({"task.length": True}, "task.length", id="bool-task-length"),
    pytest.param({"task.rule": 3}, "task.rule", id="int-task-rule"),
    pytest.param({"task.noise_level": "0"}, "task.noise_level", id="string-noise-level"),
    pytest.param({"task.no_such_key": 1}, "task.no_such_key", id="unknown-task-key"),
    pytest.param({"task.length": 0}, "length must be >= 1", id="zero-task-length"),
])
def test_manifest_missing_or_mistyped_keys_exit_4(dataset, tmp_path, capsys, damage, named):
    path = dataset / "manifest.json"
    manifest = json.loads(path.read_text())
    _damage_keys(manifest, damage)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run(["sample", "--data", str(dataset), "--dump-schedule"])
    assert code == 4
    _assert_one_line_error(capsys, "validation", named)


def test_feature_name_not_utf8_exits_3(dataset, capsys):
    path = dataset / "ex_00000.clip.emb"
    raw = bytearray(path.read_bytes())
    raw[16] = 0xFF  # first byte of the stream name, after the 16-byte header
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(["train", "--data", str(dataset), "--out", str(dataset / "x.ckpt")]) == 3
    _assert_one_line_error(capsys, "io", "not UTF-8")


def test_checkpoint_record_name_not_utf8_exits_3(dataset, tmp_path, capsys):
    ckpt = train_tiny(dataset, tmp_path)
    raw = bytearray(ckpt.read_bytes())
    raw[12] = 0xFF  # first name byte of record 0: magic, version, count, name length
    ckpt.write_bytes(bytes(raw))
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 3
    _assert_one_line_error(capsys, "io", "record 0")


@pytest.mark.parametrize("damage", ["ndim-65", "duplicate-record"])
def test_checkpoint_bad_record_exits_3(dataset, tmp_path, capsys, damage):
    # at hidden 32 the 63 extra dims, read from record 0's data, multiply to 0 in int64
    ckpt = train_tiny(dataset, tmp_path, extra=["--hidden", "32"])
    raw = bytearray(ckpt.read_bytes())
    if damage == "ndim-65":
        raw[12 + len("tok.0.table")] = 65  # ndim byte of record 0
    else:  # one more record: a second, all-zero tok.pos
        shape = load_checkpoint(ckpt)[0]["tok.pos"].data.shape
        struct.pack_into("<I", raw, 6, struct.unpack_from("<I", raw, 6)[0] + 1)
        raw += (struct.pack("<H", 7) + b"tok.pos" + struct.pack("<B2I", 2, *shape)
                + bytes(8 * shape[0] * shape[1]))
    ckpt.write_bytes(bytes(raw))
    capsys.readouterr()
    code = run(["sample", "--ckpt", str(ckpt), "--data", str(dataset),
                "--out", str(tmp_path / "s")])
    assert code == 3
    _assert_one_line_error(capsys, "io", "record 0" if damage == "ndim-65" else "'tok.pos'")


def test_sample_reads_only_the_sampled_example(dataset, tmp_path):
    ckpt = train_tiny(dataset, tmp_path)
    (dataset / "ex_00003.clip.emb").write_bytes(b"")  # the test split is examples 10, 11
    assert run(["sample", "--data", str(dataset), "--dump-schedule"]) == 0
    assert run(["sample", "--ckpt", str(ckpt), "--data", str(dataset), "--index", "0",
                "--steps", "2", "--out", str(tmp_path / "s")]) == 0
    assert run(["sample", "--ckpt", str(ckpt), "--data", str(dataset), "--split", "train",
                "--index", "3", "--steps", "2", "--out", str(tmp_path / "s")]) == 3


@pytest.mark.parametrize("command, flag, value", [
    ("gen-data", "--noise-level", "nan"),
    ("train", "--hidden", "0"),
    ("train", "--cond-dropout", "2"),
    ("train", "--cond-dropout", "nan"),
    ("scav", "--scav-temperature", "0"),
    ("scav", "--scav-temperature", "-1"),
    ("scav", "--scav-temperature", "nan"),
    ("sample", "--gamma", "nan"),
    ("sample", "--gamma", "inf"),
    ("sample", "--temp", "nan"),
    ("sample", "--delta", "nan"),
    ("sample", "--delta", "inf"),
    ("pipeline", "--gamma", "nan"),
    ("pipeline", "--temp", "nan"),
    ("pipeline", "--delta", "inf"),
    ("pipeline", "--hidden", "0"),
    ("pipeline", "--warmup", "-1"),
    ("pipeline", "--heads", "5"),  # 5 does not divide the default hidden 96
    ("pipeline", "--cond-dropout", "2"),
    ("pipeline", "--n-scav", "0"),
    ("train", "--peak-lr", "-1"),
    ("train", "--floor-lr", "-1"),
    ("train", "--weight-decay", "-1"),
    ("train", "--lambda-reg", "-1"),
    ("train", "--lambda-cont", "nan"),
    ("train", "--encoder-depth", "-1"),
    ("pipeline", "--encoder-depth", "-1"),
])
def test_out_of_range_numeric_flag_exits_4(fuzz_dataset, tmp_path, capsys,
                                           command, flag, value):
    out = tmp_path / "out"
    data = ["--data", str(fuzz_dataset), "--out", str(out)]
    argv = {
        "gen-data": gen_args(out),
        "train": ["train", *data],
        "scav": ["train", *data, "--what", "scav"],
        "sample": ["sample", "--ckpt", str(fuzz_dataset / "model.ckpt"), *data],
        "pipeline": ["pipeline", *gen_args(out)[1:]],
    }[command]
    capsys.readouterr()
    assert run([*argv, flag, value]) == 4
    # the message names the config field, which is the flag's dest up to a prefix
    _assert_one_line_error(capsys, "validation",
                           flag[2:].replace("-", "_").removeprefix("scav_"))
    assert not out.exists()


def _numeric_flags() -> list[tuple[str, str]]:
    """Every int and float flag of the commands that train or sample, from the parser."""
    _, commands = cli.build_parser()
    return [(command, action.option_strings[0])
            for command in ("gen-data", "train", "sample", "pipeline")
            for action in commands[command]._actions if action.type in (int, float)]


# --threads is swept too: none of these values parses as a large int, so no thread pool
# starts. Never add a large integer here; it would start that many threads.
SWEEP_VALUES = ("0", "-1", "nan", "inf", "1e300")
TINY_MODEL = ["--depth", "1", "--hidden", "8", "--heads", "2", "--encoder-depth", "0",
              "--batch-size", "2", "--warmup", "0"]


@pytest.mark.parametrize("value", SWEEP_VALUES)
@pytest.mark.parametrize("command, flag", _numeric_flags())
def test_numeric_flag_sweep_exits_cleanly(fuzz_dataset, tmp_path, capsys, command, flag,
                                          value):
    out = tmp_path / "out"
    data = ["--data", str(fuzz_dataset), "--out", str(out)]
    argv = {
        "gen-data": gen_args(out),
        "train": ["train", *data, "--what", "scav" if "scav" in flag else "model",
                  "--steps", "1", *TINY_MODEL],
        "sample": ["sample", "--ckpt", str(fuzz_dataset / "model.ckpt"), *data,
                   "--steps", "1"],
        "pipeline": ["pipeline", *gen_args(out)[1:], *TINY_MODEL, "--train-steps", "1",
                     "--scav-steps", "1", "--beams", "1", "--steps", "1", "--eval-count",
                     "1", "--n-scav", "2", "--h-scav", "2", "--scav-width", "4",
                     "--kernel-size", "2"],
    }[command]
    capsys.readouterr()
    try:
        code = run([*argv, flag, value])
    except SystemExit as exc:  # argparse: the value is not of the flag's type
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 4), err
    if code == 2:
        assert f"argument {flag}: invalid" in err.splitlines()[-1], err
    elif code == 4:
        assert err.startswith("error (validation):") and err.count("\n") == 1, err


@pytest.mark.parametrize("suffix, what, field", [
    ("clip.emb", "model", "'clip'"),
    ("s3d.emb", "model", "'s3d'"),
    ("beats.emb", "model", "'target'"),
    ("cgram", "model", "'tokens'"),
    ("clip.emb", "scav", "'video'"),
    ("cgram", "scav", "'audio'"),
])
def test_example_one_frame_longer_exits_4(dataset, tmp_path, capsys, suffix, what, field):
    path = dataset / f"ex_00003.{suffix}"  # a train-split example
    if suffix == "cgram":
        grid = load_codegram(path)
        save_codegram(Codegram(np.concatenate([grid.tokens, grid.tokens[:1]]), grid.spec),
                      path)
    else:
        matrix, name = load_features(path)
        save_features(path, np.concatenate([matrix, matrix[:1]]), name)
    out = tmp_path / "x.ckpt"
    capsys.readouterr()
    assert run(["train", "--data", str(dataset), "--out", str(out), "--what", what,
                "--steps", "2", "--hidden", "16", "--heads", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error (validation): shape mismatch on " + field)
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(gen_args(out)) == 0
        train_tiny(out, out)
    (out / "config.json").write_text(json.dumps({"version": 1, "steps": 2, "beams": 2}))
    return out


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["ex_00000.cgram", "ex_00003.clip.emb", "model.ckpt",
                          "model.ckpt.json", "manifest.json", "config.json"]),
    damage=st.sampled_from(["truncate", "flip", "append"]),
    where=st.integers(0, 1 << 16),
    value=st.integers(1, 255),
    extra=st.binary(min_size=1, max_size=16),
)
def test_damaged_dataset_file_exits_cleanly(fuzz_dataset, name, damage, where, value, extra):
    path = fuzz_dataset / name
    original = path.read_bytes()
    raw = bytearray(original)
    if damage == "truncate":
        raw = raw[:where % len(raw)]
    elif damage == "flip":
        raw[where % len(raw)] ^= value
    else:
        raw += extra
    path.write_bytes(bytes(raw))
    # train-split examples 0 and 3 are the damaged ones; sample reads only its own
    index = "3" if name.startswith("ex_00003") else "0"
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["sample", "--ckpt", str(fuzz_dataset / "model.ckpt"),
                        "--data", str(fuzz_dataset), "--split", "train", "--index", index,
                        "--config", str(fuzz_dataset / "config.json"),
                        "--out", str(fuzz_dataset.parent / "samples")])
    finally:
        path.write_bytes(original)
    assert code in (0, 3, 4)
    if code != 0:
        assert err.getvalue().startswith("error (") and err.getvalue().count("\n") == 1
