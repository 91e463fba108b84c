"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one line ``ACCEPTANCE nn [...]: PASS/FAIL`` so the suite
doubles as a checklist (run with ``pytest tests/test_acceptance.py -s``).
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

import pytest

import convdyn as cd
from conftest import exhaustive_small_supports, linear_primitivity, nu_g6, random_exact_measure

F = Fraction


def criterion(num: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} [{label}]: PASS")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def sweep():
    """500 randomized acyclic exact measures over the sweep group pool."""
    pool = [cd.cyclic_group(n) for n in range(1, 13)]
    pool.append(cd.product_group(cd.cyclic_group(2), cd.cyclic_group(3)))
    pool.append(cd.dihedral_group(4))
    pool.append(cd.symmetric_group(3))
    pool.append(cd.symmetric_group(4))
    rng = random.Random(20240601)
    measures = []
    i = 0
    while len(measures) < 500:
        group = pool[i % len(pool)]
        i += 1
        nu = random_exact_measure(rng, group)
        if cd.support_orbit(nu).acyclic:
            measures.append(nu)
    return measures


@criterion(1, "cyclic order-3 example")
def test_c01_z3_example(z3, nu_z3):
    a = cd.transition_matrix(nu_z3)
    assert a.entries == (
        (F(1, 3), F(1, 4), F(5, 12)),
        (F(5, 12), F(1, 3), F(1, 4)),
        (F(1, 4), F(5, 12), F(1, 3)),
    )
    assert cd.limit_of_powers(nu_z3).weights == (F(1, 3), F(1, 3), F(1, 3))
    start = time.perf_counter()
    result = cd.power_convergence(a, tol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert result.converged
    for row in result.matrix:
        for x in row:
            assert abs(x - 1 / 3) < 1e-12
    fps = cd.fixed_points(nu_z3)
    assert len(fps.basis) == 1
    assert fps.basis[0].weights == (F(1, 3), F(1, 3), F(1, 3))


@criterion(2, "order-6 example at three alphas")
def test_c02_order6_example(g6):
    third = F(1, 3)
    checkerboard = tuple(
        tuple(third if (i + j) % 2 == 0 else F(0) for j in range(6)) for i in range(6)
    )
    e, b, b2 = (g6.index_of(x) for x in ("e", "b", "b2"))
    limit_weights = tuple(
        third if i in (e, b, b2) else F(0) for i in range(6)
    )
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        nu = nu_g6(g6, alpha)
        beta = 1 - alpha
        expected = (
            (alpha, 0, 0, 0, beta, 0),
            (0, alpha, 0, beta, 0, 0),
            (beta, 0, alpha, 0, 0, 0),
            (0, 0, 0, alpha, 0, beta),
            (0, 0, beta, 0, alpha, 0),
            (0, beta, 0, 0, 0, alpha),
        )
        assert cd.transition_matrix(nu).entries == tuple(
            tuple(F(x) for x in row) for row in expected
        )
        assert cd.transition_matrix(cd.limit_of_powers(nu)).entries == checkerboard
        assert cd.limit_of_powers(nu).weights == limit_weights


@criterion(3, "basin of the coset-constant target")
def test_c03_basin_example(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    eta = cd.ProbMeasure(
        g6_coset, (F(1, 4), F(1, 4), F(1, 4), F(1, 12), F(1, 12), F(1, 12))
    )
    desc = cd.basin(nu, eta)
    assert desc.feasible
    assert desc.decomposition.blocks == ((0, 1, 2), (3, 4, 5))
    assert desc.required_sums == (F(3, 4), F(1, 4))
    assert desc.dimension == 4
    mu = cd.ProbMeasure(g6_coset, (F(1, 4), F(1, 2), F(0), F(1, 8), F(0), F(1, 8)))
    assert desc.contains(mu)
    state = mu.to_float()
    nu_f = nu.to_float()
    eta_f = [float(w) for w in eta.weights]
    reached = None
    for step in range(1, 201):
        state = cd.apply_step(nu_f, state)
        if max(abs(s - t) for s, t in zip(state.weights, eta_f)) <= 1e-10:
            reached = step
            break
    assert reached is not None and reached <= 200


@criterion(4, "limit theorem sweep, 500 randomized acyclic measures")
def test_c04_main_theorem_sweep(sweep):
    start = time.perf_counter()
    for nu in sweep:
        so = cd.support_orbit(nu)
        limit = cd.limit_of_powers(nu)
        expected = cd.ProbMeasure.uniform(nu.group, so.subgroup.members)
        assert limit.weights == expected.weights
        result = cd.power_convergence(cd.transition_matrix(nu), tol=1e-12)
        assert result.converged
        b = cd.transition_matrix(limit).entries
        worst = max(
            abs(result.matrix[i][j] - float(b[i][j]))
            for i in range(nu.group.order)
            for j in range(nu.group.order)
        )
        assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


@criterion(5, "representation identities, 200 randomized pairs")
def test_c05_representation_identities():
    pool = [
        cd.cyclic_group(2),
        cd.cyclic_group(3),
        cd.cyclic_group(5),
        cd.cyclic_group(6),
        cd.cyclic_group(8),
        cd.product_group(cd.cyclic_group(2), cd.cyclic_group(3)),
        cd.symmetric_group(3),
        cd.dihedral_group(4),
    ]
    rng = random.Random(77)
    for case in range(200):
        group = pool[case % len(pool)]
        mu = random_exact_measure(rng, group)
        nu = random_exact_measure(rng, group)
        a = cd.transition_matrix(nu)
        assert cd.measure_times_matrix(mu, a.entries).weights == cd.convolve(mu, nu).weights
        values = tuple(F(rng.randint(-5, 5)) for _ in range(group.order))
        f = cd.TestFunction(group, values)
        assert cd.bilinear_pairing(f, mu, nu) == cd.integrate(f, cd.convolve(mu, nu))
        chain = nu
        power = cd.matrix_power(a, 0)
        for m in range(0, 17):
            assert cd.measure_times_matrix(nu, power).weights == chain.weights
            chain = cd.convolve(chain, nu)
            power = cd.matrix_multiply(power, a.entries)


@criterion(6, "non-acyclic accumulation points")
def test_c06_non_acyclic(z2, z4):
    for nu, cycle in (
        (cd.ProbMeasure.point_mass(z2, 1), [(F(0), F(1)), (F(1), F(0))]),
        (cd.ProbMeasure.point_mass(z4, 2), None),
        (cd.ProbMeasure(z4, (F(0), F(1, 2), F(0), F(1, 2))), [
            (F(0), F(1, 2), F(0), F(1, 2)),
            (F(1, 2), F(0), F(1, 2), F(0)),
        ]),
    ):
        so = cd.support_orbit(nu)
        report = cd.accumulation_points(nu)
        assert report.periodic
        assert report.period == so.period == 2
        assert len(report.points) == 2
        claimed = [p.weights for p in report.points]
        if cycle is not None:
            assert claimed == cycle
        for j, weights in enumerate(claimed):
            assert weights == cd.ProbMeasure.uniform(nu.group, so.cycle_sets[j]).weights
        # exact subsequence powers agree with the claimed points
        for m in range(1, 9):
            slot = (m - 1 - so.pre_period) % so.period
            assert cd.convolution_power(nu, m).weights == claimed[slot]


@criterion(7, "acyclicity iff primitivity, exhaustive small supports")
def test_c07_acyclic_iff_primitive():
    # is_primitive_restricted reads primitivity off the support orbit;
    # linear_primitivity powers the 0/1 pattern of A on H one product at a time
    start = time.perf_counter()
    checked = 0
    for nu in exhaustive_small_supports():
        assert cd.is_primitive_restricted(nu) == linear_primitivity(nu), (nu.group.labels, nu.support())
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 646
    assert elapsed < 10.0


@criterion(8, "density of acyclic measures")
def test_c08_density_construction():
    pool = [
        cd.cyclic_group(4),
        cd.cyclic_group(6),
        cd.cyclic_group(9),
        cd.product_group(cd.cyclic_group(2), cd.cyclic_group(3)),
        cd.dihedral_group(4),
        cd.symmetric_group(3),
        cd.symmetric_group(4),
    ]
    rng = random.Random(88)
    built = 0
    while built < 100:
        group = pool[built % len(pool)]
        size = rng.randint(1, group.order - 1)
        nu = random_exact_measure(rng, group, support=rng.sample(range(group.order), size))
        for eps in (F(1, 10), F(1, 100)):
            out = cd.acyclic_perturbation(nu, eps)
            assert cd.is_acyclic(out)
            assert cd.l1_distance(nu, out) <= eps
        built += 1


@criterion(9, "block structure and relabeling invariance")
def test_c09_structural_lemmas(sweep):
    for nu in sweep:
        assert cd.verify_block_structure(nu).ok
    rng = random.Random(99)
    pool = {id(nu.group): nu.group for nu in sweep}
    for group in pool.values():
        for _ in range(50):
            order = list(range(group.order))
            rng.shuffle(order)
            relabeled = cd.relabel_group(group, order)
            position = {old: new for new, old in enumerate(order)}
            mu = random_exact_measure(rng, group)
            nu = random_exact_measure(rng, group)
            mu_r = cd.ProbMeasure(relabeled, tuple(mu.weights[i] for i in order))
            nu_r = cd.ProbMeasure(relabeled, tuple(nu.weights[i] for i in order))
            conv = cd.convolve(mu, nu)
            conv_r = cd.convolve(mu_r, nu_r)
            assert tuple(conv_r.weights[position[i]] for i in range(group.order)) == conv.weights


@criterion(10, "pushforward is multiplicative for quotient maps")
def test_c10_pushforward(z2, z3, z4, z6, s3):
    sign_values = []
    for label in s3.labels:
        perm = tuple(int(c) for c in label)
        inversions = sum(
            1
            for x in range(len(perm))
            for y in range(x + 1, len(perm))
            if perm[x] > perm[y]
        )
        sign_values.append(inversions % 2)
    homs = [
        cd.check_homomorphism(z4, z2, [i % 2 for i in range(4)]),
        cd.check_homomorphism(z6, z3, [i % 3 for i in range(6)]),
        cd.check_homomorphism(s3, z2, sign_values),
    ]
    rng = random.Random(111)
    for phi in homs:
        for _ in range(100):
            a = random_exact_measure(rng, phi.source)
            b = random_exact_measure(rng, phi.source)
            lhs = cd.pushforward(phi, cd.convolve(a, b))
            rhs = cd.convolve(cd.pushforward(phi, a), cd.pushforward(phi, b))
            assert lhs.weights == rhs.weights


@criterion(11, "Monte Carlo consistency, bit-reproducible")
def test_c11_montecarlo(z3, nu_z3, g6):
    start = time.perf_counter()
    cases = [nu_z3, nu_g6(g6, F(1, 2))]
    for nu in cases:
        cfg = cd.WalkConfig(measure=nu, steps=30, trials=100_000, seed=1234567)
        emp1 = cd.empirical_distribution(cfg)
        emp2 = cd.empirical_distribution(cfg)
        assert emp1.weights == emp2.weights
        exact = cd.convolution_power(nu, 30)
        bound = 3 * (nu.group.order / 100_000) ** 0.5
        assert cd.tv_distance(emp1, exact) < bound
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
