from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import convdyn as cd
from convdyn.errors import BudgetError, DomainError
from convdyn.montecarlo import (
    _MAX_COUNTED_BOUNDS,
    CHUNK_TRIALS,
    GAMMA,
    cdf_thresholds,
    draw_matrix,
    mix64,
)
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


def test_mix64_matches_reference_and_leaves_its_input_unchanged():
    rng = random.Random(64)
    words = [0, MASK] + [rng.getrandbits(64) for _ in range(998)]
    state = np.array(words, dtype=np.uint64)
    out = mix64(state)
    assert state.tolist() == words
    assert out.tolist() == [reference_mix(w) for w in words]


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


@pytest.mark.parametrize("order", [2, _MAX_COUNTED_BOUNDS + 2])
def test_draw_on_a_boundary_selects_the_next_element(order):
    raw = reference_draw(5, 0, 0)
    first = F(raw, 2**64)
    rest = (1 - first) / (order - 1)
    nu = cd.ProbMeasure(cd.cyclic_group(order), (first,) + (rest,) * (order - 1))
    assert int(cdf_thresholds(nu)[0]) == raw
    assert cd.sample_walk(cd.WalkConfig(measure=nu, steps=1, trials=1, seed=5)) == 1


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


def distinct_bounds(nu: cd.ProbMeasure) -> int:
    return len(np.unique(cdf_thresholds(nu)))


def edge_measures(rng: random.Random) -> list[cd.ProbMeasure]:
    """Measures at the edges of element selection, checked as they are built."""
    z3, z4 = cd.cyclic_group(3), cd.cyclic_group(4)
    s6, d100 = cd.symmetric_group(6), cd.dihedral_group(100)
    out = []
    for g in (z4, cd.symmetric_group(3), s6, d100):  # two-point supports
        out.append(random_exact_measure(rng, g, support=rng.sample(range(g.order), 2)))
        out.append(out[-1].to_float())
    for g in (cd.dihedral_group(4), s6, d100):  # six distinct bounds
        nu = random_exact_measure(rng, g, support=[0, *rng.sample(range(1, g.order), 6)])
        assert distinct_bounds(nu) == 6
        out.append(nu)
    tiny = F(1, 2**70)  # positive, but its boundary equals its predecessor's
    nu = cd.ProbMeasure(z4, (F(1, 3), tiny, F(2, 3) - tiny, F(0)))
    assert cdf_thresholds(nu)[0] == cdf_thresholds(nu)[1]
    out.append(nu)
    out.append(cd.ProbMeasure(z4, (F(0), F(1, 4), F(3, 4), F(0))))  # zero weights first and last
    out.append(out[-1].to_float())
    above = cd.ProbMeasure(z3, (0.4, 0.4, 0.2))  # float weights summing just above 1
    below = cd.ProbMeasure(z3, (0.1, 0.2, 0.7))  # and just below
    assert sum(map(F, above.weights)) > 1 > sum(map(F, below.weights))
    passes_one = cd.ProbMeasure(z3, (0.5, 0.5000000000000001, 1e-17))  # before the last element
    assert len(cdf_thresholds(passes_one)) == 1  # so its boundary is dropped
    out += [above, below, passes_one]
    for bounds in (_MAX_COUNTED_BOUNDS, _MAX_COUNTED_BOUNDS + 1):  # either side of counting
        out.append(cd.ProbMeasure.uniform(cd.cyclic_group(bounds + 1)))
        assert distinct_bounds(out[-1]) == bounds
    out.append(cd.ProbMeasure.uniform(s6))
    out.append(random_exact_measure(rng, d100, support=range(200)))
    out.append(random_exact_measure(rng, d100, support=rng.sample(range(200), 40)))
    return out


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
        cd.ProbMeasure.uniform(cd.symmetric_group(4), range(24)),
    ]
    measures += edge_measures(rng)
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
    gaps = cd.ProbMeasure(cd.cyclic_group(5), (F(0), F(1, 2), F(0), F(1, 2), F(0)))
    assert [int(b) for b in cdf_thresholds(gaps)] == [0, 2**63, 2**63]  # zero weights repeat


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
