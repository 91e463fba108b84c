from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import convdyn as cd
from convdyn.errors import BudgetError, DomainError
from convdyn.montecarlo import GAMMA, cdf_thresholds, draw_matrix, mix64
from conftest import nu_g6

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


def test_single_trials_match_batch(z3, nu_z3):
    cfg = cd.WalkConfig(measure=nu_z3, steps=6, trials=25, seed=31337)
    draws = draw_matrix(cfg.seed, cfg.trials, cfg.steps)
    from convdyn.montecarlo import _walk_endpoints

    batch = _walk_endpoints(cfg, draws)
    for t in range(cfg.trials):
        assert cd.sample_walk(cfg, t) == batch[t]


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
