"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy end-to-end
criteria (6, 7) train real models on synthetic tasks and dominate runtime;
stated budgets are asserted. Both carry the `slow` marker, so
`pytest -m "not slow"` runs everything else.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from maskgram import autodiff as ad
from maskgram.autodiff import Tensor
from maskgram.codegram import Codegram, CodebookSpec
from maskgram.features import ALIGNMENT_SENSITIVE, FRAME_SEMANTIC
from maskgram.model import MaskedGridTransformer, ModelConfig, StreamSpec
from maskgram.sampler import SamplerConfig, init_state, sample_batch, sample_step
from maskgram.scheduler import build_sample_schedule, draw_train_mask
from maskgram.seeding import derive_seed
from maskgram.selector import (
    ScavConfig,
    init_scav_params,
    scav_encode_video,
    select_best,
    train_scav,
)
from maskgram.synthetic import (
    SyntheticTaskSpec,
    bundle_for,
    make_dataset,
    split_indices,
    token_match_fraction,
)
from maskgram.train import (
    Batch,
    TrainConfig,
    clip_contrastive_t,
    compute_losses,
    evaluate_masked_accuracy,
    init_aux_params,
    masked_ce_t,
    seq_mse_t,
    train_model,
)
from maskgram.selector import scav_contrastive_loss_t


@contextlib.contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{label}]: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"\nACCEPTANCE {number} [{label}]: PASS ({time.time() - start:.1f}s)")


# -- 1: scheduler statistics ---------------------------------------------------------


def test_criterion_1_scheduler_statistics():
    with criterion(1, "scheduler statistics"):
        start = time.time()
        rng = np.random.default_rng(1001)
        total = 0.0
        n_draws = 100_000
        for _ in range(n_draws):
            total += draw_train_mask(10, 9, rng).mask.flags.mean()
        mean_fraction = total / n_draws
        assert abs(mean_fraction - 2 / math.pi) <= 0.01

        pair_rng = np.random.default_rng(1002)
        for _ in range(1000):
            total_positions = int(pair_rng.integers(0, 5000))
            n_steps = int(pair_rng.integers(1, 200))
            schedule = build_sample_schedule(total_positions, n_steps)
            assert sum(schedule.kappas) == total_positions
        assert time.time() - start < 10.0


# -- 2: loss correctness ------------------------------------------------------------


def _loop_masked_ce(logits, tokens, flags):
    total, count = 0.0, 0
    length, levels, vocab = logits.shape
    for l in range(length):
        for k in range(levels):
            if flags[l, k]:
                row = logits[l, k]
                lse = math.log(np.sum(np.exp(row - row.max()))) + row.max()
                total -= row[tokens[l, k]] - lse
                count += 1
    return total / count if count else 0.0


def _loop_symmetric_ce(matrix):
    b = matrix.shape[0]

    def rows(m):
        total = 0.0
        for i in range(b):
            row = m[i]
            total -= row[i] - math.log(np.sum(np.exp(row - row.max()))) - row.max()
        return total / b

    return 0.5 * (rows(matrix) + rows(matrix.T))


def test_criterion_2_loss_oracles():
    with criterion(2, "loss correctness vs loop oracles"):
        start = time.time()
        rng = np.random.default_rng(2001)
        # the losses training runs, evaluated without building a graph
        with ad.no_grad():
            for _ in range(100):
                length, levels, vocab = (int(rng.integers(2, 7)) for _ in range(3))
                vocab += 2
                tokens = rng.integers(0, vocab, (length, levels))
                flags = rng.random((length, levels)) < 0.5
                logits = rng.normal(size=(length, levels, vocab))
                got = masked_ce_t(Tensor(logits), tokens, flags).item()
                assert abs(got - _loop_masked_ce(logits, tokens, flags)) <= 1e-12

                # exact invariance to unmasked-logit perturbation
                perturbed = logits.copy()
                perturbed[~flags] += rng.normal(size=perturbed[~flags].shape) * 50
                assert masked_ce_t(Tensor(perturbed), tokens, flags).item() == got

            for _ in range(100):
                n, n2, width = int(rng.integers(2, 9)), int(rng.integers(2, 9)), 5
                enc = rng.normal(size=(n, width))
                tgt = rng.normal(size=(n2, width))
                from maskgram.features import resample_nn

                expected = float(np.mean((enc - resample_nn(tgt, n)) ** 2))
                assert abs(seq_mse_t(Tensor(enc), Tensor(tgt)).item() - expected) <= 1e-12

            for _ in range(100):
                b, width = int(rng.integers(2, 9)), 6
                cls = rng.normal(size=(b, width))
                tgt = rng.normal(size=(b, width))
                tau = float(rng.uniform(0.1, 2.0))
                a = cls / np.linalg.norm(cls, axis=1, keepdims=True)
                t = tgt / np.linalg.norm(tgt, axis=1, keepdims=True)
                expected = _loop_symmetric_ce(a @ t.T / tau)
                got = clip_contrastive_t(Tensor(cls), Tensor(tgt), tau).item()
                assert abs(got - expected) <= 1e-12

            for _ in range(100):
                b = int(rng.integers(2, 7))
                pairs = [(rng.normal(size=(4, 3)), rng.normal(size=(4, 3))) for _ in range(b)]
                e_video = np.stack([v for v, _ in pairs])
                e_audio = np.stack([a for _, a in pairs])
                tau = float(rng.uniform(0.1, 2.0))
                d = np.zeros((b, b))
                for i in range(b):
                    for j in range(b):
                        diff = e_video[i] - e_audio[j]
                        d[i, j] = (diff * diff).mean()
                expected = _loop_symmetric_ce(-d / tau)
                got = scav_contrastive_loss_t(Tensor(e_video), Tensor(e_audio), tau).item()
                assert abs(got - expected) <= 1e-12
        assert time.time() - start < 10.0


# -- 3: gradient fidelity ------------------------------------------------------------


def test_criterion_3_gradient_fidelity():
    with criterion(3, "finite-difference gradient fidelity"):
        start = time.time()
        cfg = ModelConfig(
            structure="seq2seq",
            spec=CodebookSpec(levels=2, vocab_size=8),
            streams=(
                StreamSpec("clip", 4, FRAME_SEMANTIC),
                StreamSpec("s3d", 3, ALIGNMENT_SENSITIVE),
            ),
            depth=1, hidden=16, heads=2, encoder_depth=1, aux_target_dim=6,
            max_len=8, cond_max_len=8,
        )
        model = MaskedGridTransformer(cfg, seed=31)
        aux = init_aux_params(cfg, seed=32)
        # check at contrastive temperature 1 (logit_scale 0): the default 0.07
        # multiplies third derivatives ~3000x, putting central-difference
        # truncation above the 1e-4 bar even though gradients are exact
        # (verified: FD error scales as h^2)
        aux["aux.logit_scale"].data = np.array(0.0)
        n_params = model.n_params() + sum(p.data.size for p in aux.values())
        assert n_params < 10_000

        rng = np.random.default_rng(33)
        batch = Batch(
            tokens=rng.integers(0, 8, (2, 4, 2)),
            streams={
                "clip": rng.normal(size=(2, 5, 4)),
                "s3d": rng.normal(size=(2, 3, 3)),
            },
            targets=rng.normal(size=(2, 6, 6)),
        )
        masks = rng.random((2, 4, 2)) < 0.5
        masks[0, 0, 0] = True
        drop = np.array([False, True])  # exercise the [NULL] path too

        def loss_value() -> float:
            with ad.no_grad():
                total, _, _, _ = compute_losses(
                    model, aux, batch, masks, drop, 1.0, 1.0
                )
            return total.item()

        total, _, _, _ = compute_losses(model, aux, batch, masks, drop, 1.0, 1.0)
        total.backward()

        eps = 1e-3  # relative step: h = eps * max(|theta|, eps)
        worst = 0.0
        worst_name = ""
        for name, p in {**model.params, **aux}.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                h = eps * max(abs(orig), eps)
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
                if rel > worst:
                    worst, worst_name = rel, name
        assert worst < 1e-4, f"worst relative error {worst:.2e} at {worst_name}"
        elapsed = time.time() - start
        assert elapsed < 120.0
        print(f"  gradient check: {n_params} params, worst rel err "
              f"{worst:.2e} ({worst_name}), {elapsed:.0f}s")


# -- 4: classifier-free-guidance identity ---------------------------------------------


def test_criterion_4_cfg_identity():
    with criterion(4, "gamma=0 equals conditional-only"):
        cfg = ModelConfig(
            structure="adaln",
            spec=CodebookSpec(levels=2, vocab_size=12),
            streams=(
                StreamSpec("clip", 4, FRAME_SEMANTIC),
                StreamSpec("s3d", 3, ALIGNMENT_SENSITIVE),
            ),
            depth=1, hidden=16, heads=2, encoder_depth=1, aux_target_dim=4,
            max_len=16, cond_max_len=16,
        )
        for run in range(20):
            model = MaskedGridTransformer(cfg, seed=400 + run)
            rng = np.random.default_rng(500 + run)
            row = {"clip": rng.normal(size=(5, 4)), "s3d": rng.normal(size=(4, 3))}
            seeds = [derive_seed(600 + run, "cfg-identity")]
            single = sample_batch(
                model, [row], 5,
                SamplerConfig(n_steps=4, gamma=0.0, delta=1.0, seed=0), seeds=seeds,
            )[0]
            double = sample_batch(
                model, [row], 5,
                SamplerConfig(n_steps=4, gamma=0.0, delta=1.0, seed=0,
                              force_two_pass=True), seeds=seeds,
            )[0]
            assert (single.tokens == double.tokens).all()


# -- 5: sampling contract -------------------------------------------------------------


class _SeededLogitsModel:
    """Fixed random logits; shape-correct stand-in for contract checks."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.config = type("Cfg", (), {"spec": spec})()
        self.cache = {}

    def forward(self, tokens, mask, streams, drop=None, enc_out=None):
        key = (tokens.shape, bool(drop is not None and np.any(drop)))
        if key not in self.cache:
            b, length, levels = tokens.shape
            self.cache[key] = self.rng.normal(
                size=(b, length, levels, self.spec.vocab_size)
            )
        out = type("Out", (), {})()
        out.data = self.cache[key]
        return out, None


def test_criterion_5_sampling_contract():
    with criterion(5, "schedule adherence and frozen commits"):
        start = time.time()
        rng = np.random.default_rng(5001)
        for trial in range(200):
            levels = int(rng.integers(1, 5))
            length = int(rng.integers(1, 9))
            n_steps = int(rng.integers(1, 9))
            gamma = float(rng.choice([0.0, 1.5]))
            delta = float(rng.choice([0.0, 4.0]))
            spec = CodebookSpec(levels=levels, vocab_size=int(rng.integers(2, 20)))
            model = _SeededLogitsModel(spec, seed=trial)
            schedule = build_sample_schedule(length * levels, n_steps)
            config = SamplerConfig(n_steps=n_steps, gamma=gamma, delta=delta,
                                   temperature=float(rng.choice([1.0, 0.7])), seed=1)
            state = init_state(1, length, levels, spec, [int(rng.integers(2**31))])
            frozen: dict[tuple, int] = {}
            for n in range(n_steps):
                state = sample_step(state, model, None, config, schedule)
                assert int(state.mask.sum()) == schedule.masked_counts[n + 1]
                for pos, value in frozen.items():
                    assert state.tokens[pos] == value
                for pos in zip(*np.nonzero(~state.mask)):
                    frozen[pos] = state.tokens[pos]
            assert not state.mask.any()
            assert (state.tokens >= 0).all()
            assert (state.tokens < spec.vocab_size).all()
        assert time.time() - start < 30.0


# -- 6 and 7: end-to-end tasks ---------------------------------------------------------


def _train_toy(rule: str, noise: float, steps: int, seed: int, n_classes: int):
    task = SyntheticTaskSpec(rule=rule, length=32, levels=4, vocab_size=64,
                             n_classes=n_classes, noise_level=noise, seed=seed)
    examples = make_dataset(task, 2000)
    splits = split_indices(2000)
    train_ex = [examples[i] for i in splits["train"]]
    held = [examples[i] for i in splits["valid"]] + [examples[i] for i in splits["test"]]
    cfg = ModelConfig(
        structure="seq2seq", spec=task.codebook_spec(), streams=task.stream_specs(),
        depth=1, hidden=96, heads=4, encoder_depth=1, aux_target_dim=task.target_dim,
        max_len=32, cond_max_len=16,
    )
    model = MaskedGridTransformer(cfg, seed=derive_seed(seed, "model"))
    aux = init_aux_params(cfg, derive_seed(seed, "aux"))
    train_cfg = TrainConfig(steps=steps, batch_size=32, peak_lr=2.5e-3, warmup=100,
                            seed=derive_seed(seed, "loop"))
    train_model(model, aux, train_ex, train_cfg)
    return task, model, held


def _exact_match_rate(task, model, examples, config: SamplerConfig, seeds):
    rows = [bundle_for(e, task) for e in examples]
    grids = sample_batch(model, rows, task.length, config, seeds=seeds)
    spec = task.codebook_spec()
    matches = [
        token_match_fraction(g, Codegram(e["tokens"], spec))
        for g, e in zip(grids, examples)
    ]
    return float(np.mean([m == 1.0 for m in matches]))


@pytest.mark.slow
def test_criterion_6_end_to_end_toy_reproduction():
    with criterion(6, "deterministic-map end-to-end"):
        start = time.time()
        task, model, held = _train_toy("deterministic-map", 0.0, steps=4000, seed=11,
                                       n_classes=8)
        accuracy = evaluate_masked_accuracy(model, held, seed=derive_seed(11, "eval"))
        sub = held[:200]
        rate = _exact_match_rate(
            task, model, sub,
            SamplerConfig(n_steps=8, gamma=0.0, delta=0.0, seed=0),
            seeds=[derive_seed(123, "c6", e["index"]) for e in sub],
        )
        elapsed = time.time() - start
        print(f"  held-out masked accuracy {accuracy:.4f}, "
              f"exact-match {rate:.3f}, {elapsed:.0f}s")
        assert accuracy >= 0.99
        assert rate >= 0.95
        assert elapsed < 900.0


@pytest.mark.slow
def test_criterion_7_guidance_and_steps_directional():
    with criterion(7, "guidance/step-count directional behavior"):
        task, model, held = _train_toy("noisy-map", 0.1, steps=1800, seed=13,
                                       n_classes=16)
        sub = held[:200]
        seeds = [derive_seed(777, "c7", e["index"]) for e in sub]
        rate_g0 = _exact_match_rate(
            task, model, sub, SamplerConfig(n_steps=8, gamma=0.0, delta=0.0, seed=0),
            seeds=seeds,
        )
        rate_g2 = _exact_match_rate(
            task, model, sub, SamplerConfig(n_steps=8, gamma=2.0, delta=0.0, seed=0),
            seeds=seeds,
        )
        rate_n4 = _exact_match_rate(
            task, model, sub, SamplerConfig(n_steps=4, gamma=0.0, delta=0.0, seed=0),
            seeds=seeds,
        )
        rate_n32 = _exact_match_rate(
            task, model, sub, SamplerConfig(n_steps=32, gamma=0.0, delta=0.0, seed=0),
            seeds=seeds,
        )
        print(f"  exact-match: gamma0={rate_g0:.3f} gamma2={rate_g2:.3f} "
              f"steps4={rate_n4:.3f} steps32={rate_n32:.3f}")
        assert rate_g2 >= rate_g0 - 0.01
        assert rate_n32 >= rate_n4


# -- 8: beam selection ------------------------------------------------------------------


def test_criterion_8_beam_selection():
    with criterion(8, "planted-match beam selection"):
        start = time.time()
        task = SyntheticTaskSpec(rule="noisy-map", length=16, levels=2, vocab_size=16,
                                 n_classes=200, noise_level=0.1, seed=21)
        examples = make_dataset(task, 2000)
        pairs = [(e["streams"]["clip"], e["target"]) for e in examples]
        scav_cfg = ScavConfig(n_scav=12, h_scav=24, video_dim=task.clip_dim,
                              audio_dim=task.target_dim, width=64)
        params = train_scav(pairs, scav_cfg, seed=22, steps=1500, batch_size=32)

        by_class: dict[int, list[dict]] = {}
        for e in examples:
            by_class.setdefault(e["class"], []).append(e)
        classes = sorted(by_class)

        def run_trials(p) -> float:
            hits = 0
            trial_rng = np.random.default_rng(8002)
            for _ in range(500):
                c = classes[int(trial_rng.integers(len(classes)))]
                probe = by_class[c][int(trial_rng.integers(len(by_class[c])))]
                match = by_class[c][int(trial_rng.integers(len(by_class[c])))]
                decoy_classes = trial_rng.choice(
                    [o for o in classes if o != c], size=9, replace=False
                )
                candidates = [match["target"]]
                for o in decoy_classes:
                    pool = by_class[o]
                    candidates.append(pool[int(trial_rng.integers(len(pool)))]["target"])
                e_video = scav_encode_video(p, probe["streams"]["clip"], scav_cfg)
                index, _ = select_best(e_video, candidates, p, scav_cfg)
                hits += index == 0
            return hits / 500

        trained_rate = run_trials(params)
        untrained_rate = run_trials(init_scav_params(scav_cfg, seed=777))
        elapsed = time.time() - start
        print(f"  trained hit-rate {trained_rate:.3f}, "
              f"untrained {untrained_rate:.3f}, {elapsed:.0f}s")
        assert trained_rate >= 0.99
        assert 0.05 <= untrained_rate <= 0.15
        assert elapsed < 300.0


# -- 9: metrics oracles -------------------------------------------------------------------


def test_criterion_9_metric_oracles():
    with criterion(9, "metric closed forms"):
        from maskgram.metrics import (
            EmbeddingSet,
            GaussianStats,
            frame_count,
            frechet_distance,
            frechet_from_sets,
            novelty_score,
        )

        one_d = frechet_distance(
            GaussianStats(np.array([0.0]), np.array([[1.0]])),
            GaussianStats(np.array([1.0]), np.array([[4.0]])),
        )
        assert abs(one_d - 2.0) <= 1e-6

        rng = np.random.default_rng(9001)
        d = 5
        mu1, mu2 = rng.normal(size=d), rng.normal(size=d)
        q1, q2 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        cov1 = q1 @ q1.T + 0.5 * np.eye(d)
        cov2 = q2 @ q2.T + 0.5 * np.eye(d)
        analytic = frechet_distance(GaussianStats(mu1, cov1), GaussianStats(mu2, cov2))
        sampled = frechet_from_sets(
            EmbeddingSet(rng.multivariate_normal(mu1, cov1, size=10_000), "a"),
            EmbeddingSet(rng.multivariate_normal(mu2, cov2, size=10_000), "b"),
        )
        assert abs(sampled - analytic) / analytic <= 0.02

        seq = rng.normal(size=(40, 6))
        assert abs(novelty_score(seq, seq, kernel_size=16) - 1.0) <= 1e-9

        assert frame_count(44100) == 83


# -- 10: pipeline determinism ----------------------------------------------------------------


def _pipeline_args(out, threads: int):
    return [
        "pipeline", "--rule", "deterministic-map", "--count", "40",
        "--length", "16", "--levels", "2", "--vocab-size", "16",
        "--clip-frames", "4", "--clip-dim", "8", "--s3d-frames", "6",
        "--s3d-dim", "4", "--target-frames", "5", "--target-dim", "8",
        "--n-classes", "4", "--seed", "77", "--out", str(out),
        "--hidden", "32", "--depth", "1", "--heads", "2", "--encoder-depth", "1",
        "--train-steps", "60", "--scav-steps", "40", "--batch-size", "8",
        "--warmup", "10", "--beams", "2", "--steps", "4", "--eval-count", "4",
        "--kernel-size", "8", "--n-scav", "8", "--h-scav", "8",
        "--scav-width", "16", "--threads", str(threads),
    ]


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "pipeline byte-determinism across runs and threads"):
        from maskgram.cli import main

        runs = {}
        for name, threads in (("a", 1), ("b", 1), ("c", 8)):
            out = tmp_path / name
            assert main(_pipeline_args(out, threads)) == 0
            runs[name] = (out / "report.txt").read_bytes()
            chosen = sorted((out / "chosen").glob("*.cgram"))
            runs[name + "_grids"] = b"".join(p.read_bytes() for p in chosen)
        assert runs["a"] == runs["b"]
        assert runs["a"] == runs["c"]
        assert runs["a_grids"] == runs["b_grids"]
        assert runs["a_grids"] == runs["c_grids"]

        report = runs["a"].decode()
        for key in ("l_mask_tail", "masked_accuracy_valid", "exact_match_rate",
                    "fd_mfcc_like", "novelty_score_mean", "selection_hit_rate"):
            assert f"{key}=" in report, f"pipeline report missing {key}"
