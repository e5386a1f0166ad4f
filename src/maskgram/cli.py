"""Experiment harness: data generation, training, sampling, selection, eval.

Every subcommand prints its resolved configuration and seed, is deterministic
given (config, seed), and exits with 0 on success, 2 on usage errors, 3 on
IO/file-format errors, and 4 on validation errors. The `pipeline` subcommand
chains gen-data -> train -> sample -> select -> eval and emits one report; each
stage is one function that its own subcommand calls too.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .codegram import Codegram, dump_text, load_codegram, load_json, save_codegram
from .errors import FileFormatError, MaskgramError, ValidationError
from .features import load_features
from .metrics import (
    EmbeddingSet,
    cosine_semantic,
    format_report,
    frechet_from_sets,
    mfcc_like_frontend,
    novelty_score,
)
from .model import (
    MaskedGridTransformer,
    ModelConfig,
    model_from_checkpoint,
    save_checkpoint,
)
from .sampler import SamplerConfig, sample_batch
from .scheduler import build_sample_schedule, schedule_dump
from .seeding import derive_seed
from .selector import (
    ScavConfig,
    scav_encode_video,
    scav_from_checkpoint,
    select_best,
    train_scav,
)
from .synthetic import (
    SyntheticTaskSpec,
    bundle_for,
    codegram_to_signal,
    gen_dataset,
    latent_embedding_set,
    latent_sequence,
    load_dataset,
    load_example,
    load_manifest,
    token_match_fraction,
)
from .train import (
    StepResult,
    TrainConfig,
    evaluate_masked_accuracy,
    init_aux_params,
    train_model,
)

CONFIG_VERSION = 1
# A sample_batch call gets ceil(rows / --threads) rows within these bounds; a row's
# bytes do not depend on which rows share its call. The cap bounds one call's
# activations. The floor: on 2 cores two 4-row chunks ran 1.49x as fast as one
# 8-row call at the CLI-default model (two 1-row chunks 0.82x, GIL contention),
# but 0.31x as fast at the criterion-10 model (hidden 32), so 8 rows stay one call.
SAMPLE_CHUNK_ROWS = 64
MIN_CHUNK_ROWS = 8

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4


def _print_resolved(command: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"[{command}] resolved config: "
          + json.dumps(resolved, sort_keys=True, default=str))


def _require_positive(args: argparse.Namespace, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value < 1:
            raise ValidationError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")


def _load_config_defaults(argv: list[str],
                          subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Apply --config JSON values as subcommand defaults (flags still override)."""
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValidationError("--config requires a path")
    command = argv[0] if argv and argv[0] in subparsers else None
    if command is None:
        raise ValidationError("--config requires a subcommand")
    sub = subparsers[command]
    path = argv[idx + 1]
    data = load_json(path, CONFIG_VERSION)
    actions = {a.dest: a for a in sub._actions}
    values = {k: v for k, v in data.items() if k != "version"}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {unknown}")
    sub.set_defaults(**{k: _config_value(path, actions[k], v) for k, v in values.items()})


def _config_value(path, action: argparse.Action, value):
    """A config value as its flag accepts it: argparse's `type` on its text, then
    `choices`; a switch (store_true) takes only a JSON boolean."""
    if action.nargs == 0:
        valid = isinstance(value, bool)
    else:
        try:
            value = (action.type or str)(str(value))
        except (TypeError, ValueError):
            valid = False
        else:
            valid = action.choices is None or value in action.choices
    if not valid:
        raise ValidationError(f"{path}: invalid value {value!r} for {action.dest!r}")
    return value


# -- gen-data -------------------------------------------------------------------


def _task_spec_from_args(args) -> SyntheticTaskSpec:
    """The task spec of the task flags, whose dests are the spec's field names."""
    return SyntheticTaskSpec(**{f.name: getattr(args, f.name)
                                for f in fields(SyntheticTaskSpec)})


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", required=True,
                   choices=["deterministic-map", "noisy-map", "event-onsets"])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--length", type=int, default=32)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--vocab-size", type=int, default=64)
    p.add_argument("--clip-frames", type=int, default=8)
    p.add_argument("--clip-dim", type=int, default=16)
    p.add_argument("--s3d-frames", type=int, default=12)
    p.add_argument("--s3d-dim", type=int, default=8)
    p.add_argument("--target-frames", type=int, default=10)
    p.add_argument("--target-dim", type=int, default=24)
    p.add_argument("--n-classes", type=int, default=32)
    p.add_argument("--noise-level", type=float, default=0.0)


def cmd_gen_data(args) -> int:
    _print_resolved("gen-data", args)
    spec = _task_spec_from_args(args)
    manifest = gen_dataset(spec, args.count, args.out)
    sizes = {k: len(v) for k, v in manifest["splits"].items()}
    print(f"[gen-data] wrote {args.count} examples to {args.out} (splits: {sizes})")
    return EXIT_OK


# -- train ----------------------------------------------------------------------


def _examples_for_split(examples, splits, name):
    return [examples[i] for i in splits[name]]


def _add_model_flags(p: argparse.ArgumentParser, hidden: int, encoder_depth: int,
                     batch_size: int, warmup: int) -> None:
    """Generator and scav flags of `train` and `pipeline`, at the caller's defaults."""
    p.add_argument("--structure", choices=["adaln", "seq2seq", "hybrid"],
                   default="seq2seq")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--hidden", type=int, default=hidden)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--encoder-depth", type=int, default=encoder_depth)
    p.add_argument("--cond-dropout", type=float, default=0.10)
    p.add_argument("--batch-size", type=int, default=batch_size)
    p.add_argument("--warmup", type=int, default=warmup)
    p.add_argument("--n-scav", type=int, default=16)
    p.add_argument("--h-scav", type=int, default=24)
    p.add_argument("--scav-width", type=int, default=64)


def _model_config_from(task: SyntheticTaskSpec, args) -> ModelConfig:
    return ModelConfig(
        structure=args.structure,
        spec=task.codebook_spec(),
        streams=task.stream_specs(),
        depth=args.depth,
        hidden=args.hidden,
        heads=args.heads,
        encoder_depth=args.encoder_depth,
        aux_target_dim=task.target_dim,
        cond_dropout_prob=args.cond_dropout,
        max_len=max(task.length, 8),
        cond_max_len=max(task.clip_frames, task.s3d_frames) + 1,
    )


def _scav_config_from(task: SyntheticTaskSpec, args, temperature: float) -> ScavConfig:
    return ScavConfig(
        n_scav=args.n_scav, h_scav=args.h_scav, video_dim=task.clip_dim,
        audio_dim=8 * task.levels, width=args.scav_width, temperature=temperature,
    )


def _train_generator(model_cfg: ModelConfig, train_cfg: TrainConfig, seed: int, examples,
                     splits, out, metrics_log
                     ) -> tuple[MaskedGridTransformer, list[StepResult], float]:
    """Train the generator (init and eval seeded from `seed`), write its checkpoint and
    metrics log; returns it, its history and its valid (else train) masked accuracy."""
    model = MaskedGridTransformer(model_cfg, seed=derive_seed(seed, "model-init"))
    aux = init_aux_params(model_cfg, derive_seed(seed, "aux-init"))
    train_examples = _examples_for_split(examples, splits, "train")
    log_lines: list[str] = []
    history = train_model(model, aux, train_examples, train_cfg, log_lines)
    if metrics_log:
        Path(metrics_log).write_text("\n".join(log_lines) + "\n")
    save_checkpoint(out, model.params, {"model": asdict(model_cfg)}, extra=aux)
    accuracy = evaluate_masked_accuracy(
        model, _examples_for_split(examples, splits, "valid") or train_examples,
        seed=derive_seed(seed, "valid-eval"),
    )
    return model, history, accuracy


def _train_selector(scav_cfg: ScavConfig, task: SyntheticTaskSpec, examples, splits, out,
                    seed: int, steps: int, batch_size: int) -> dict:
    """Train the scav encoder pair on the train split and write its checkpoint."""
    pairs = [
        (e["streams"]["clip"], latent_sequence(Codegram(e["tokens"], task.codebook_spec())))
        for e in _examples_for_split(examples, splits, "train")
    ]
    params = train_scav(pairs, scav_cfg, seed=seed, steps=steps, batch_size=batch_size)
    save_checkpoint(out, params, {"scav": asdict(scav_cfg)})
    return params


def cmd_train(args) -> int:
    _print_resolved("train", args)
    task, examples, splits = load_dataset(args.data)
    if args.what == "scav":
        scav_cfg = _scav_config_from(task, args, args.scav_temperature)
        _train_selector(scav_cfg, task, examples, splits, args.out,
                        seed=derive_seed(args.seed, "scav"), steps=args.steps,
                        batch_size=args.batch_size)
        print(f"[train] scav checkpoint written to {args.out}")
        return EXIT_OK
    train_cfg = TrainConfig(
        steps=args.steps, batch_size=args.batch_size, peak_lr=args.peak_lr,
        floor_lr=args.floor_lr, warmup=args.warmup, weight_decay=args.weight_decay,
        lambda_reg=args.lambda_reg, lambda_cont=args.lambda_cont,
        seed=derive_seed(args.seed, "train-loop"),
    )
    _, history, acc = _train_generator(
        _model_config_from(task, args), train_cfg, args.seed, examples, splits, args.out,
        args.metrics_log,
    )
    print(f"[train] final l_mask={history[-1].loss.l_mask!r} valid_accuracy={acc!r}")
    print(f"[train] checkpoint written to {args.out}")
    return EXIT_OK


# -- sample ------------------------------------------------------------------------


def _sample_rows(model, rows, seeds, length, config, threads,
                 trace=None) -> list[Codegram]:
    """sample_batch over row chunks split evenly across `threads` workers, in order."""
    size = min(SAMPLE_CHUNK_ROWS, max(MIN_CHUNK_ROWS, -(-len(rows) // threads)))

    def run_chunk(start: int) -> list[Codegram]:
        chunk = slice(start, start + size)
        return sample_batch(model, rows[chunk], length, config, seeds=seeds[chunk],
                            trace=trace if start == 0 else None)

    starts = range(0, len(rows), size)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # a lone worker runs here: a pool thread (started on first map) would add
        # its own malloc arena to the peak RSS and nothing else
        run = map if min(threads, len(starts)) == 1 else pool.map
        return [grid for chunk in run(run_chunk, starts) for grid in chunk]


def cmd_sample(args) -> int:
    _print_resolved("sample", args)
    _require_positive(args, "beams", "threads")
    task, _, splits = load_manifest(args.data)
    if args.dump_schedule:
        schedule = build_sample_schedule(task.length * task.levels, args.steps)
        sys.stdout.write(schedule_dump(schedule))
        if args.ckpt is None:
            return EXIT_OK
    if args.ckpt is None:
        raise ValidationError("--ckpt is required unless only dumping the schedule")
    model, _ = model_from_checkpoint(args.ckpt)
    split = splits[args.split]
    if not 0 <= args.index < len(split):
        raise ValidationError(
            f"index {args.index} outside split {args.split!r} of {len(split)}"
        )
    row = bundle_for(load_example(args.data, split[args.index]), task)
    config = SamplerConfig(
        n_steps=args.steps, gamma=args.gamma, delta=args.delta,
        temperature=args.temp, seed=args.seed, force_two_pass=args.force_two_pass,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace: list[str] | None = [] if args.trace else None
    seeds = [derive_seed(args.seed, "sample", split[args.index], b) for b in range(args.beams)]
    grids = _sample_rows(model, [row] * args.beams, seeds, task.length, config,
                         args.threads, trace)
    if trace is not None:
        sys.stdout.write("\n".join(trace) + "\n")
    for beam, grid in enumerate(grids):
        save_codegram(grid, out / f"beam_{beam:03d}.cgram")
    (out / "beam_000.txt").write_text(dump_text(grids[0]))
    print(f"[sample] wrote {args.beams} beam(s) to {out}")
    return EXIT_OK


# -- select --------------------------------------------------------------------------


def _select(params, scav_cfg: ScavConfig, video_feats,
            candidates) -> tuple[int, list[float]]:
    """The candidate nearest the encoded video, and every candidate's distance."""
    e_video = scav_encode_video(params, video_feats, scav_cfg)
    return select_best(e_video, candidates, params, scav_cfg)


def cmd_select(args) -> int:
    _print_resolved("select", args)
    params, scav_cfg = scav_from_checkpoint(args.scav_checkpoint)
    video_feats, _ = load_features(args.video)
    candidates = []
    for path in args.candidates:
        if str(path).endswith(".cgram"):
            candidates.append(latent_sequence(load_codegram(path)))
        else:
            candidates.append(load_features(path)[0])
    index, distances = _select(params, scav_cfg, video_feats, candidates)
    print(f"selected_index={index}")
    print("distances=" + ",".join(repr(d) for d in distances))
    return EXIT_OK


# -- eval ---------------------------------------------------------------------------


def _grids_from_dir(path: Path) -> list[Codegram]:
    files = sorted(path.glob("*.cgram"))
    if not files:
        raise ValidationError(f"{path}: no .cgram files found")
    return [load_codegram(f) for f in files]


def _eval_embedding_sets(gen: EmbeddingSet, ref: EmbeddingSet,
                         kernel_size: int) -> dict[str, float]:
    results = {"fd": frechet_from_sets(gen, ref)}
    if min(gen.count, ref.count) >= kernel_size:
        results["novelty_score"] = novelty_score(gen.vectors, ref.vectors, kernel_size)
    results["cosine_mean_embedding"] = cosine_semantic(
        gen.vectors.mean(axis=0), ref.vectors.mean(axis=0)
    )
    return results


def _eval_codegram_dirs(gen_grids: list[Codegram], ref_grids: list[Codegram],
                        kernel_size: int) -> dict[str, float]:
    results: dict[str, float] = {}
    results["fd_dac_latent"] = frechet_from_sets(
        latent_embedding_set(gen_grids), latent_embedding_set(ref_grids)
    )

    def mfcc_frames(grids: list[Codegram]) -> EmbeddingSet:
        frames = [mfcc_like_frontend(codegram_to_signal(g)).vectors for g in grids]
        return EmbeddingSet(np.concatenate(frames), "mfcc-like")

    results["fd_mfcc_like"] = frechet_from_sets(mfcc_frames(gen_grids), mfcc_frames(ref_grids))
    n_pairs = min(len(gen_grids), len(ref_grids))
    kernel = min(kernel_size, max(2, gen_grids[0].length // 2))
    ns_values = [
        novelty_score(latent_sequence(gen_grids[i]), latent_sequence(ref_grids[i]),
                      kernel)
        for i in range(n_pairs)
    ]
    results["novelty_score_mean"] = float(np.mean(ns_values))
    if all(g.tokens.shape == r.tokens.shape
           for g, r in zip(gen_grids[:n_pairs], ref_grids[:n_pairs])):
        matches = [
            token_match_fraction(gen_grids[i], ref_grids[i]) for i in range(n_pairs)
        ]
        results["mean_token_match"] = float(np.mean(matches))
        results["exact_match_rate"] = float(np.mean([m == 1.0 for m in matches]))
    return results


def _write_report(text: str, path) -> None:
    sys.stdout.write(text)
    if path:
        Path(path).write_text(text)


def cmd_eval(args) -> int:
    _print_resolved("eval", args)
    gen_path, ref_path = Path(args.generated), Path(args.reference)
    if gen_path.is_dir() != ref_path.is_dir():
        raise ValidationError("generated and reference must both be dirs or both files")
    if gen_path.is_dir():
        results = _eval_codegram_dirs(
            _grids_from_dir(gen_path), _grids_from_dir(ref_path), args.kernel_size
        )
    else:
        results = _eval_embedding_sets(
            EmbeddingSet.load(gen_path), EmbeddingSet.load(ref_path), args.kernel_size
        )
    _write_report(format_report(results, "csv"), args.report)
    return EXIT_OK


# -- pipeline -------------------------------------------------------------------------


def cmd_pipeline(args) -> int:
    _print_resolved("pipeline", args)
    _require_positive(args, "beams", "threads", "eval_count", "scav_steps")
    # every config is built, and so checked, before anything is written
    spec = _task_spec_from_args(args)
    model_cfg = _model_config_from(spec, args)
    train_cfg = TrainConfig(steps=args.train_steps, batch_size=args.batch_size,
                            warmup=args.warmup, seed=derive_seed(args.seed, "train-loop"))
    scav_cfg = _scav_config_from(spec, args, ScavConfig.temperature)
    sampler_cfg = SamplerConfig(
        n_steps=args.steps, gamma=args.gamma, delta=args.delta, temperature=args.temp,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    data_dir = out / "data"
    gen_dataset(spec, args.count, data_dir)
    task, examples, splits = load_dataset(data_dir)
    test_examples = _examples_for_split(examples, splits, "test")
    if not test_examples:
        raise ValidationError("pipeline needs a non-empty test split (count >= 10)")

    model, history, valid_accuracy = _train_generator(
        model_cfg, train_cfg, args.seed, examples, splits, out / "model.ckpt",
        out / "metrics.csv",
    )
    scav_params = _train_selector(
        scav_cfg, task, examples, splits, out / "scav.ckpt",
        seed=derive_seed(args.seed, "scav"), steps=args.scav_steps,
        batch_size=args.batch_size,
    )

    eval_count = min(args.eval_count, len(test_examples))
    chosen_dir = out / "chosen"
    chosen_dir.mkdir(exist_ok=True)

    rows = [(test_examples[e], b) for e in range(eval_count) for b in range(args.beams)]
    all_beams = _sample_rows(
        model, [bundle_for(example, task) for example, _ in rows],
        [derive_seed(args.seed, "sample", example["index"], b) for example, b in rows],
        task.length, sampler_cfg, args.threads,
    )

    ref_grids = [Codegram(e["tokens"], task.codebook_spec())
                 for e in test_examples[:eval_count]]
    chosen_grids: list[Codegram] = []
    hits = 0
    for e in range(eval_count):
        beams = all_beams[e * args.beams:(e + 1) * args.beams]
        index, _ = _select(scav_params, scav_cfg, test_examples[e]["streams"]["clip"],
                           [latent_sequence(g) for g in beams])
        chosen = beams[index]
        chosen_grids.append(chosen)
        save_codegram(chosen, chosen_dir / f"chosen_{e:05d}.cgram")
        matches = [token_match_fraction(g, ref_grids[e]) for g in beams]
        if matches[index] == max(matches):
            hits += 1

    results = _eval_codegram_dirs(chosen_grids, ref_grids, args.kernel_size)
    tail = history[-min(20, len(history)):]
    results["l_mask_tail"] = float(np.mean([r.loss.l_mask for r in tail]))
    results["masked_accuracy_valid"] = valid_accuracy
    results["selection_hit_rate"] = hits / eval_count
    results["seed"] = args.seed
    results["rule"] = args.rule
    _write_report(format_report(results, "key=value"), out / "report.txt")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="maskgram",
        description="Masked generative modeling of multi-level token grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_parser(name, **kw):
        commands[name] = sub.add_parser(name, **kw)
        return commands[name]

    p = add_parser("gen-data", help="generate a synthetic paired dataset")
    _add_task_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.set_defaults(func=cmd_gen_data)

    p = add_parser("train", help="train the generator or the scav selector")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--what", choices=["model", "scav"], default="model")
    _add_model_flags(p, hidden=128, encoder_depth=2, batch_size=32, warmup=100)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--peak-lr", type=float, default=2e-4)
    p.add_argument("--floor-lr", type=float, default=1e-6)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    p.add_argument("--lambda-reg", type=float, default=1.0)
    p.add_argument("--lambda-cont", type=float, default=1.0)
    p.add_argument("--scav-temperature", type=float, default=0.07)
    p.add_argument("--metrics-log")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = add_parser("sample", help="iterative guided sampling from a checkpoint")
    p.add_argument("--ckpt")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "valid", "test"], default="test")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--beams", type=int, default=1)
    p.add_argument("--steps", type=int, default=32)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--delta", type=float, default=8.0)
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="samples")
    p.add_argument("--dump-schedule", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--force-two-pass", action="store_true",
                   help="run the unconditional pass even when gamma is 0")
    p.add_argument("--config")
    p.set_defaults(func=cmd_sample)

    p = add_parser("select", help="pick the beam candidate nearest the conditioning")
    p.add_argument("--scav-checkpoint", required=True)
    p.add_argument("--video", required=True, help="clip-like feature file")
    p.add_argument("--candidates", nargs="+", required=True,
                   help=".emb feature files or .cgram grids")
    p.set_defaults(func=cmd_select)

    p = add_parser("eval", help="objective metrics between generated and reference")
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--kernel-size", type=int, default=16)
    p.add_argument("--report")
    p.set_defaults(func=cmd_eval)

    p = add_parser("pipeline", help="gen-data -> train -> sample -> select -> eval")
    _add_task_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p, hidden=96, encoder_depth=1, batch_size=16, warmup=50)
    p.add_argument("--train-steps", type=int, default=300)
    p.add_argument("--scav-steps", type=int, default=200)
    p.add_argument("--beams", type=int, default=10)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--temp", type=float, default=1.0)
    p.add_argument("--eval-count", type=int, default=8)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--kernel-size", type=int, default=16)
    p.add_argument("--config")
    p.set_defaults(func=cmd_pipeline)

    return parser, commands


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        _load_config_defaults(argv, commands)
        args = parser.parse_args(argv)
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_IO
    except MaskgramError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
