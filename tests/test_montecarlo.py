from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import convdyn as cd
from convdyn.errors import BudgetError, DomainError
from convdyn.montecarlo import CHUNK_TRIALS, GAMMA, cdf_thresholds, draw_matrix, mix64
from conftest import nu_g6, random_exact_measure

F = Fraction

MASK = (1 << 64) - 1


def reference_mix(z: int) -> int:
    """Pure-Python SplitMix64 finalizer, kept independent of the library."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def reference_draw(seed: int, trial: int, step: int) -> int:
    stream = reference_mix((seed + (trial + 1) * GAMMA) & MASK)
    return reference_mix((stream + (step + 1) * GAMMA) & MASK)


def test_draw_matrix_matches_reference_scheme():
    draws = draw_matrix(seed=987654321, trials=3, steps=4)
    for t in range(3):
        for j in range(4):
            assert int(draws[t, j]) == reference_draw(987654321, t, j)


def test_mix64_matches_published_test_vector():
    # first output of splitmix64 seeded with 1234567
    state = np.array([(1234567 + GAMMA) & MASK], dtype=np.uint64)
    assert int(mix64(state)[0]) == 6457827717110365317


def test_identity_point_mass_walks_stay_home(s3):
    cfg = cd.WalkConfig(
        measure=cd.ProbMeasure.point_mass(s3, s3.identity), steps=5, trials=50, seed=1
    )
    emp = cd.empirical_distribution(cfg)
    assert emp.weights[s3.identity] == 1.0
    assert cd.sample_walk(cfg, 7) == s3.identity


def test_order_two_point_mass_walk_is_deterministic(z4):
    nu = cd.ProbMeasure.point_mass(z4, 2)
    cfg = cd.WalkConfig(measure=nu, steps=3, trials=10, seed=9)
    assert cd.sample_walk(cfg) == 2  # odd number of steps
    even = cd.WalkConfig(measure=nu, steps=4, trials=10, seed=9)
    assert cd.sample_walk(even) == 0


def test_single_step_walk_reproduces_documented_bin(z3, nu_z3):
    cfg = cd.WalkConfig(measure=nu_z3, steps=1, trials=1, seed=20240501)
    raw = reference_draw(20240501, 0, 0)
    boundaries = [int(b) for b in cdf_thresholds(nu_z3)]
    expected = sum(1 for b in boundaries if b <= raw)
    assert cd.sample_walk(cfg, 0) == expected


def test_same_seed_same_distribution(z3, nu_z3):
    cfg = cd.WalkConfig(measure=nu_z3, steps=10, trials=2000, seed=77)
    first = cd.empirical_distribution(cfg)
    second = cd.empirical_distribution(cfg)
    assert first.weights == second.weights
    different = cd.WalkConfig(measure=nu_z3, steps=10, trials=2000, seed=78)
    assert cd.empirical_distribution(different).weights != first.weights


def batch_endpoints(cfg: cd.WalkConfig) -> np.ndarray:
    """Reference walk: every draw at once from ``draw_matrix``, then one
    table lookup per step for all trials."""
    draws = draw_matrix(cfg.seed, cfg.trials, cfg.steps)
    indices = np.searchsorted(cdf_thresholds(cfg.measure), draws, side="right")
    cayley = np.array(cfg.measure.group.cayley, dtype=np.int64)
    state = np.full(cfg.trials, cfg.measure.group.identity, dtype=np.int64)
    for j in range(cfg.steps):
        state = cayley[state, indices[:, j]]
    return state


def test_single_trials_match_batch(z3, nu_z3):
    cfg = cd.WalkConfig(measure=nu_z3, steps=6, trials=25, seed=31337)
    batch = batch_endpoints(cfg)
    for t in range(cfg.trials):
        assert cd.sample_walk(cfg, t) == batch[t]


def reference_frequencies(cfg: cd.WalkConfig) -> tuple[float, ...]:
    counts = np.bincount(batch_endpoints(cfg), minlength=cfg.measure.group.order)
    return tuple(float(c) / cfg.trials for c in counts)


@pytest.mark.parametrize("chunk", [None, 7])
def test_streamed_frequencies_equal_batch_walk(monkeypatch, small_pool, chunk):
    if chunk is not None:  # many chunks, most of them full, one partial
        monkeypatch.setattr("convdyn.montecarlo.CHUNK_TRIALS", chunk)
    rng = random.Random(67)
    measures = [random_exact_measure(rng, g) for g in small_pool for _ in range(3)]
    measures += [m.to_float() for m in measures[::4]]
    z4 = cd.cyclic_group(4)
    measures += [
        cd.ProbMeasure(z4, (F(0), F(1, 2), F(0), F(1, 2))),  # zero weights between and at the end
        cd.ProbMeasure(z4, (F(0), F(0), F(0), F(1))),  # point mass on the last element
        cd.ProbMeasure(cd.cyclic_group(3), (0.1, 0.2, 0.7)),  # float weights whose sum is not 1
        cd.ProbMeasure.uniform(cd.symmetric_group(4), range(24)),
    ]
    for k, nu in enumerate(measures):
        cfg = cd.WalkConfig(measure=nu, steps=1 + k % 9, trials=1 + 37 * k, seed=rng.getrandbits(64))
        assert cd.empirical_distribution(cfg).weights == reference_frequencies(cfg), k


def test_frequencies_across_default_chunks_equal_batch_walk(s3):
    nu = cd.ProbMeasure(s3, (F(1, 2), F(1, 6), F(0), F(0), F(1, 3), F(0)))
    cfg = cd.WalkConfig(measure=nu, steps=3, trials=2 * CHUNK_TRIALS + 5, seed=2024)
    assert cd.empirical_distribution(cfg).weights == reference_frequencies(cfg)


def test_sampler_memory_does_not_grow_with_draws(s3):
    # the draw matrix of this run alone would take 200_000 * 40 * 8 B = 64 MB
    nu = cd.ProbMeasure(s3, (F(1, 2), F(1, 4), F(0), F(1, 4), F(0), F(0)))
    cfg = cd.WalkConfig(measure=nu, steps=40, trials=200_000, seed=11)
    tracemalloc.start()
    try:
        cd.empirical_distribution(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_support_containment(z4):
    nu = cd.ProbMeasure(z4, (F(0), F(1, 2), F(0), F(1, 2)))
    orbit = cd.support_orbit(nu)
    for steps in (1, 2, 3, 4, 7):
        cfg = cd.WalkConfig(measure=nu, steps=steps, trials=500, seed=5)
        emp = cd.empirical_distribution(cfg)
        assert emp.support() <= orbit.set_at(steps)


def test_empirical_close_to_exact_power(z3, nu_z3):
    cfg = cd.WalkConfig(measure=nu_z3, steps=30, trials=100_000, seed=4242)
    emp = cd.empirical_distribution(cfg)
    exact = cd.convolution_power(nu_z3, 30)
    assert cd.tv_distance(emp, exact) < 3 * (3 / 100_000) ** 0.5


def test_cdf_thresholds_are_exact():
    z2 = cd.cyclic_group(2)
    half = cd.ProbMeasure(z2, (F(1, 2), F(1, 2)))
    assert [int(b) for b in cdf_thresholds(half)] == [2**63]
    sure = cd.ProbMeasure(z2, (F(1), F(0)))
    assert len(cdf_thresholds(sure)) == 0  # boundary 2^64 dropped


def test_float_mode_measures_sample_too(g6):
    nu = nu_g6(g6, F(1, 2)).to_float()
    cfg = cd.WalkConfig(measure=nu, steps=4, trials=1000, seed=3)
    emp = cd.empirical_distribution(cfg)
    assert emp.support() <= cd.support_orbit(nu).set_at(4)


def test_walk_config_validation(z3, nu_z3):
    with pytest.raises(DomainError):
        cd.WalkConfig(measure=nu_z3, steps=0, trials=1, seed=0)
    with pytest.raises(DomainError):
        cd.WalkConfig(measure=nu_z3, steps=1, trials=0, seed=0)
    with pytest.raises(DomainError):
        cd.WalkConfig(measure=nu_z3, steps=1, trials=1, seed=-1)


def test_budget_cap(monkeypatch, z3, nu_z3):
    monkeypatch.setattr("convdyn.montecarlo.MC_BUDGET", 100)
    with pytest.raises(BudgetError):
        cd.WalkConfig(measure=nu_z3, steps=10, trials=11, seed=0)
    cd.WalkConfig(measure=nu_z3, steps=10, trials=10, seed=0)
