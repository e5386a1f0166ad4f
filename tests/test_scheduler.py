"""Cosine masking scheduler: training draws and sampling-time counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgram.errors import ValidationError
from maskgram.scheduler import build_sample_schedule, draw_train_mask, schedule_dump


def test_forced_u_zero_masks_everything():
    draw = draw_train_mask(4, 3, np.random.default_rng(0), u=0.0)
    assert draw.p == 1.0
    assert draw.mask.flags.all()


def test_forced_u_half_pi_masks_nothing():
    draw = draw_train_mask(4, 3, np.random.default_rng(0), u=math.pi / 2)
    assert draw.p == pytest.approx(0.0, abs=1e-15)
    assert not draw.mask.flags.any()


def test_mean_masked_fraction_matches_cos_integral():
    # E[cos U] over U ~ Uniform[0, pi/2] is 2/pi
    rng = np.random.default_rng(123)
    total = 0.0
    n = 20_000
    for _ in range(n):
        total += draw_train_mask(10, 9, rng).mask.flags.mean()
    assert total / n == pytest.approx(2 / math.pi, abs=0.01)


def test_draw_rejects_empty_shape():
    with pytest.raises(ValidationError):
        draw_train_mask(0, 3, np.random.default_rng(0))


def test_schedule_total_zero():
    schedule = build_sample_schedule(0, 4)
    assert schedule.masked_counts == (0, 0, 0, 0, 0)


def test_schedule_single_step():
    schedule = build_sample_schedule(10, 1)
    assert schedule.masked_counts == (10, 0)
    assert schedule.kappas == (10,)


def test_schedule_matches_cos_formula():
    schedule = build_sample_schedule(90, 32)
    expected = [math.ceil(90 * math.cos(math.pi * n / 64)) for n in range(32)] + [0]
    assert list(schedule.masked_counts) == expected


def test_schedule_rejects_zero_steps():
    with pytest.raises(ValidationError):
        build_sample_schedule(10, 0)


@settings(max_examples=200, deadline=None)
@given(total=st.integers(0, 3000), n_steps=st.integers(1, 128))
def test_schedule_invariants(total, n_steps):
    schedule = build_sample_schedule(total, n_steps)
    counts = schedule.masked_counts
    assert counts[0] == total
    assert counts[-1] == 0
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert sum(schedule.kappas) == total


def test_binomial_conditional_distribution_chi_square():
    # conditional on a forced u, the masked count is Binomial(L*K, cos(u))
    from scipy import stats

    rng = np.random.default_rng(7)
    u = 0.9
    p = math.cos(u)
    size = 6 * 5
    counts = np.array([
        draw_train_mask(6, 5, rng, u=u).mask.flags.sum() for _ in range(10_000)
    ])
    ks = np.arange(size + 1)
    pmf = stats.binom.pmf(ks, size, p)
    observed = np.bincount(counts, minlength=size + 1).astype(float)
    expected = pmf * counts.size
    # merge low-expectation bins from both tails
    keep = expected >= 5
    obs = [observed[~keep & (ks < size // 2)].sum()]
    exp = [expected[~keep & (ks < size // 2)].sum()]
    obs += list(observed[keep])
    exp += list(expected[keep])
    obs.append(observed[~keep & (ks >= size // 2)].sum())
    exp.append(expected[~keep & (ks >= size // 2)].sum())
    obs, exp = np.array(obs), np.array(exp)
    nonzero = exp > 0
    chi2 = ((obs[nonzero] - exp[nonzero]) ** 2 / exp[nonzero]).sum()
    dof = nonzero.sum() - 1
    assert chi2 < stats.chi2.ppf(0.99, dof)


def test_schedule_dump_format():
    schedule = build_sample_schedule(4, 2)
    text = schedule_dump(schedule)
    lines = text.strip().splitlines()
    assert lines[0] == "step,masked_count,kappa"
    assert len(lines) == 3
    step, masked, kappa = lines[1].split(",")
    assert (int(step), int(masked) + int(kappa)) == (0, 4)
