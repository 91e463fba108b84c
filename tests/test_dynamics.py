from __future__ import annotations

import random
from fractions import Fraction

import pytest

import convdyn as cd
from convdyn.errors import (
    DomainError,
    ModeMismatchError,
    NotAcyclicError,
)
from conftest import nu_g6, random_exact_measure

F = Fraction


# --- one step ----------------------------------------------------------------


def test_step_from_identity_gives_driving_measure(z3, nu_z3):
    delta = cd.ProbMeasure.point_mass(z3, z3.identity)
    assert cd.apply_step(nu_z3, delta).weights == nu_z3.weights


def test_uniform_is_fixed_for_any_driving_measure(small_pool):
    rng = random.Random(3)
    for group in small_pool:
        nu = random_exact_measure(rng, group)
        uniform = cd.ProbMeasure.uniform(group)
        assert cd.apply_step(nu, uniform).weights == uniform.weights


def test_step_reads_matrix_row(z3, nu_z3):
    delta0 = cd.ProbMeasure.point_mass(z3, 0)
    assert cd.apply_step(nu_z3, delta0).weights == (F(1, 3), F(1, 4), F(5, 12))


def test_step_is_linear(small_pool):
    rng = random.Random(5)
    for group in small_pool[:5]:
        nu = random_exact_measure(rng, group)
        m1 = random_exact_measure(rng, group)
        m2 = random_exact_measure(rng, group)
        alpha = F(1, 2)
        mix = cd.ProbMeasure(
            group, tuple(alpha * a + (1 - alpha) * b for a, b in zip(m1.weights, m2.weights))
        )
        lhs = cd.apply_step(nu, mix).weights
        rhs = tuple(
            alpha * a + (1 - alpha) * b
            for a, b in zip(cd.apply_step(nu, m1).weights, cd.apply_step(nu, m2).weights)
        )
        assert lhs == rhs


# --- orbits -------------------------------------------------------------------


def test_orbit_zero_steps(z3, nu_z3):
    assert cd.orbit(nu_z3, nu_z3, 0) == [nu_z3]


def test_orbit_alternates_for_order_two_point_mass(z2):
    nu = cd.ProbMeasure.point_mass(z2, 1)
    mu = cd.ProbMeasure.point_mass(z2, 0)
    states = cd.orbit(nu, mu, 4)
    assert [m.weights for m in states] == [
        (F(1), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
    ]


def test_float_orbit_converges_to_uniform(z3, nu_z3):
    mu = cd.ProbMeasure.point_mass(z3, 0).to_float()
    states = cd.orbit(nu_z3.to_float(), mu, 64)
    final = states[-1]
    assert all(abs(w - 1 / 3) < 1e-12 for w in final.weights)


def test_orbit_rejects_negative_steps(z3, nu_z3):
    with pytest.raises(DomainError):
        cd.orbit(nu_z3, nu_z3, -1)


# --- limit of powers ------------------------------------------------------------


def test_limit_of_powers_order6(g6):
    nu = nu_g6(g6, F(1, 2))
    limit = cd.limit_of_powers(nu)
    by_label = {g6.labels[i]: w for i, w in enumerate(limit.weights)}
    assert by_label == {
        "e": F(1, 3),
        "b": F(1, 3),
        "b2": F(1, 3),
        "a": F(0),
        "ab": F(0),
        "ab2": F(0),
    }


def test_limit_of_powers_z3(nu_z3):
    assert cd.limit_of_powers(nu_z3).weights == (F(1, 3), F(1, 3), F(1, 3))


def test_limit_of_powers_identity_point_mass(s3):
    delta = cd.ProbMeasure.point_mass(s3, s3.identity)
    assert cd.limit_of_powers(delta).weights == delta.weights


_NOT_ACYCLIC_POWERS = "powers of a non-acyclic measure do not converge; use accumulation_points instead"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda nu, mu: cd.limit_of_powers(nu), _NOT_ACYCLIC_POWERS),
        (cd.omega_limit, _NOT_ACYCLIC_POWERS),
        (cd.is_recurrent, _NOT_ACYCLIC_POWERS),
        (cd.basin, "basins are defined for acyclic driving measures"),
        (lambda nu, mu: cd.same_omega_limit(nu, mu, mu), "omega limits compare only for acyclic driving measures"),
    ],
    ids=["limit_of_powers", "omega_limit", "is_recurrent", "basin", "same_omega_limit"],
)
def test_non_acyclic_driving_measure_is_rejected(z2, call, message):
    nu = cd.ProbMeasure.point_mass(z2, 1)  # support powers alternate between {1} and {0}
    with pytest.raises(NotAcyclicError) as exc:
        call(nu, cd.ProbMeasure.uniform(z2))
    assert str(exc.value) == message


# --- accumulation points ---------------------------------------------------------


def test_accumulation_points_of_order_two_point_mass(z2):
    nu = cd.ProbMeasure.point_mass(z2, 1)
    report = cd.accumulation_points(nu)
    assert report.periodic and report.period == 2 and report.verified
    points = {p.weights for p in report.points}
    assert points == {(F(1), F(0)), (F(0), F(1))}


def test_accumulation_points_z4_parity(z4):
    nu = cd.ProbMeasure(z4, (F(0), F(1, 2), F(0), F(1, 2)))
    report = cd.accumulation_points(nu)
    assert report.period == 2
    assert report.period == cd.support_orbit(nu).period
    assert [p.weights for p in report.points] == [
        (F(0), F(1, 2), F(0), F(1, 2)),
        (F(1, 2), F(0), F(1, 2), F(0)),
    ]
    # exact subsequence powers already sit on the accumulation points
    for m in range(1, 9):
        power = cd.convolution_power(nu, m)
        assert power.weights == report.points[(m - 1) % 2].weights


def test_accumulation_points_acyclic_reduces_to_limit(nu_z3):
    report = cd.accumulation_points(nu_z3)
    assert not report.periodic
    assert report.period == 1
    assert report.points[0].weights == (F(1, 3), F(1, 3), F(1, 3))


def test_accumulation_points_with_pre_period(z4):
    # support {0, 1, 3}: S^2 = {0,1,2,3} = H, acyclic with a transient step
    nu = cd.ProbMeasure(z4, (F(1, 3), F(1, 3), F(0), F(1, 3)))
    so = cd.support_orbit(nu)
    assert so.acyclic and so.witness == 2
    report = cd.accumulation_points(nu)
    assert report.points[0].weights == (F(1, 4),) * 4


def test_accumulation_points_of_slowly_mixing_measure_on_z8():
    # the powers approach the two points like (1 - 10^-6)^m, far too slowly
    # for float iteration to settle; the coset certificate is exact
    z8 = cd.cyclic_group(8)
    eps = F(1, 10**6)
    nu = cd.ProbMeasure(z8, (F(0), 1 - eps, F(0), eps, F(0), F(0), F(0), F(0)))
    points = [(F(0), F(1, 4)) * 4, (F(1, 4), F(0)) * 4]  # U{1,3,5,7}, U{0,2,4,6}
    report = cd.accumulation_points(nu)
    assert report.periodic and report.period == 2 and report.verified
    assert [p.weights for p in report.points] == points
    report = cd.accumulation_points(nu.to_float())
    assert report.period == 2 and report.verified
    assert [p.weights for p in report.points] == [tuple(map(float, p)) for p in points]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_limits_equal_uniform_measures_coerced_to_mode(mode):
    def typed(m):
        return [(w, type(w)) for w in m.weights]

    rng = random.Random(7182)
    groups = [cd.cyclic_group(12), cd.dihedral_group(6), cd.symmetric_group(4), cd.cyclic_group(7)]
    non_acyclic = 0
    for g in groups:
        for _ in range(12):
            support = rng.sample(range(g.order), rng.randint(1, 3))
            nu = random_exact_measure(rng, g, support=support).in_mode(mode)
            so = cd.support_orbit(nu)
            if so.acyclic:
                expected = [cd.ProbMeasure.uniform(g, so.subgroup.members).in_mode(mode)]
                assert typed(cd.limit_of_powers(nu)) == typed(expected[0])
            else:
                non_acyclic += 1
                expected = [cd.ProbMeasure.uniform(g, ks).in_mode(mode) for ks in so.cycle_sets]
            assert [typed(p) for p in cd.accumulation_points(nu).points] == [typed(e) for e in expected]
    assert non_acyclic >= 10


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix of Fractions by Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / top[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def test_coset_certificates_agree_with_elimination_and_float_powers():
    """Reference cross-checks for the exact certificates: the fixed-point
    dimension against the rational null space of (A - I)^T, whose
    dimension is n minus its rank, and each accumulation point against a
    float power far along its subsequence."""
    import numpy as np

    rng = random.Random(2013)
    groups = [
        cd.symmetric_group(4),
        cd.dihedral_group(6),
        cd.cyclic_group(12),
        cd.product_group(cd.cyclic_group(4), cd.symmetric_group(3)),
    ]
    non_acyclic = 0
    for g in groups:
        n = g.order
        for _ in range(15):
            nu = random_exact_measure(rng, g, support=rng.sample(range(n), rng.randint(1, 3)))
            a = cd.transition_matrix(nu).entries
            system = [[a[i][j] - (i == j) for i in range(n)] for j in range(n)]
            assert cd.fixed_points(nu).dimension + 1 == n - rational_rank(system)
            so = cd.support_orbit(nu)
            if so.acyclic:
                continue
            non_acyclic += 1
            report = cd.accumulation_points(nu)
            af = cd.transition_matrix(nu).as_float_array()
            far = np.linalg.matrix_power(af, 2000 * so.period)
            row = np.array([float(w) for w in nu.weights]) @ np.linalg.matrix_power(af, so.pre_period)
            for point in report.points:  # row is nu A^(t+j) for point j
                expected = np.array([float(w) for w in point.weights])
                assert np.max(np.abs(row @ far - expected)) <= 1e-9
                row = row @ af
    assert non_acyclic >= 25


# --- omega limits ----------------------------------------------------------------


def test_omega_limit_from_identity_is_uniform_on_subgroup(g6):
    nu = nu_g6(g6, F(1, 4))
    delta = cd.ProbMeasure.point_mass(g6, g6.identity)
    report = cd.omega_limit(nu, delta)
    assert report.points[0].weights == cd.limit_of_powers(nu).weights


def test_omega_limit_coset_example(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    mu = cd.ProbMeasure(g6_coset, (F(1, 4), F(1, 2), F(0), F(1, 8), F(0), F(1, 8)))
    report = cd.omega_limit(nu, mu)
    assert report.points[0].weights == (
        F(1, 4), F(1, 4), F(1, 4), F(1, 12), F(1, 12), F(1, 12)
    )


def test_omega_limit_is_linear(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    rng = random.Random(11)
    for _ in range(5):
        m1 = random_exact_measure(rng, g6_coset)
        m2 = random_exact_measure(rng, g6_coset)
        mix = cd.ProbMeasure(
            g6_coset,
            tuple(F(1, 2) * (a + b) for a, b in zip(m1.weights, m2.weights)),
        )
        lhs = cd.omega_limit(nu, mix).points[0].weights
        w1 = cd.omega_limit(nu, m1).points[0].weights
        w2 = cd.omega_limit(nu, m2).points[0].weights
        assert lhs == tuple(F(1, 2) * (a + b) for a, b in zip(w1, w2))


def test_omega_limit_blockwise_identity(g6_coset):
    nu = nu_g6(g6_coset, F(1, 3))
    rng = random.Random(13)
    mu = random_exact_measure(rng, g6_coset)
    report = cd.omega_limit(nu, mu)
    for block in ((0, 1, 2), (3, 4, 5)):
        block_sum = sum(mu.weights[i] for i in block)
        for i in block:
            assert report.points[0].weights[i] == block_sum / 3


def test_omega_limit_matches_float_iteration_on_nonnormal_subgroup(s3):
    # H = <transposition> is not normal in S_3; the orbit limit must follow
    # the right-action matrix, spreading mass over left cosets
    transposition = next(i for i in range(6) if cd.element_order(s3, i) == 2)
    nu = cd.ProbMeasure.uniform(s3, {s3.identity, transposition})
    assert cd.is_acyclic(nu)
    rng = random.Random(17)
    mu = random_exact_measure(rng, s3)
    predicted = cd.omega_limit(nu, mu).points[0]
    state = mu.to_float()
    nu_f = nu.to_float()
    for _ in range(200):
        state = cd.apply_step(nu_f, state)
    assert max(
        abs(s - float(p)) for s, p in zip(state.weights, predicted.weights)
    ) < 1e-12


# --- fixed points -----------------------------------------------------------------


def test_fixed_points_z3_unique_uniform(nu_z3):
    fps = cd.fixed_points(nu_z3)
    assert fps.dimension == 0
    assert len(fps.basis) == 1
    assert fps.basis[0].weights == (F(1, 3), F(1, 3), F(1, 3))


def test_fixed_points_order6_two_cosets(g6):
    nu = nu_g6(g6, F(1, 2))
    fps = cd.fixed_points(nu)
    assert fps.dimension == 1
    bases = {b.weights for b in fps.basis}
    e, b, b2 = (g6.index_of(x) for x in ("e", "b", "b2"))
    a, ab, ab2 = (g6.index_of(x) for x in ("a", "ab", "ab2"))
    u1 = tuple(F(1, 3) if i in (e, b, b2) else F(0) for i in range(6))
    u2 = tuple(F(1, 3) if i in (a, ab, ab2) else F(0) for i in range(6))
    assert bases == {u1, u2}
    for base in fps.basis:
        assert cd.convolve(base, nu).weights == base.weights


def test_fixed_points_full_support_unique(sweep_pool):
    rng = random.Random(19)
    for group in sweep_pool[:8]:
        nu = random_exact_measure(rng, group, support=range(group.order))
        fps = cd.fixed_points(nu)
        assert len(fps.basis) == 1
        assert fps.basis[0].weights == cd.ProbMeasure.uniform(group).weights


def test_fixed_points_exist_for_non_acyclic(z2):
    nu = cd.ProbMeasure.point_mass(z2, 1)
    fps = cd.fixed_points(nu)
    assert len(fps.basis) == 1
    assert fps.basis[0].weights == (F(1, 2), F(1, 2))


def test_fixed_points_requires_exact_mode(nu_z3):
    with pytest.raises(ModeMismatchError):
        cd.fixed_points(nu_z3.to_float())


def test_convex_combinations_of_basis_are_fixed(g6):
    nu = nu_g6(g6, F(2, 3))
    fps = cd.fixed_points(nu)
    b0, b1 = fps.basis
    mix = cd.ProbMeasure(
        g6, tuple(F(1, 4) * x + F(3, 4) * y for x, y in zip(b0.weights, b1.weights))
    )
    assert cd.convolve(mix, nu).weights == mix.weights


def test_fixed_points_are_those_of_right_convolution(s3):
    # T(mu) = convolve(mu, nu); the paper's T(mu) = nu * mu is left
    # convolution, whose fixed points on S_3 are other measures
    nu = cd.ProbMeasure.uniform(s3, {s3.index_of("012"), s3.index_of("102")})
    basis = cd.fixed_points(nu).basis
    assert len(basis) == 3
    assert all(cd.convolve(b, nu) == b for b in basis)
    assert sum(cd.convolve(nu, b) != b for b in basis) == 2


# --- recurrence ---------------------------------------------------------------------


def test_uniform_is_recurrent(small_pool):
    rng = random.Random(23)
    for group in small_pool[:5]:
        nu = random_exact_measure(rng, group, support=range(group.order))
        assert cd.is_recurrent(nu, cd.ProbMeasure.uniform(group))


def test_point_mass_not_recurrent(z3, nu_z3):
    assert not cd.is_recurrent(nu_z3, cd.ProbMeasure.point_mass(z3, 0))


def test_coset_constant_measure_is_recurrent(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    eta = cd.ProbMeasure(
        g6_coset, (F(1, 4), F(1, 4), F(1, 4), F(1, 12), F(1, 12), F(1, 12))
    )
    assert cd.is_recurrent(nu, eta)


# --- basins -------------------------------------------------------------------------


def test_basin_of_coset_example(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    eta = cd.ProbMeasure(
        g6_coset, (F(1, 4), F(1, 4), F(1, 4), F(1, 12), F(1, 12), F(1, 12))
    )
    desc = cd.basin(nu, eta)
    assert desc.feasible
    assert desc.decomposition.blocks == ((0, 1, 2), (3, 4, 5))
    assert desc.required_sums == (F(3, 4), F(1, 4))
    assert desc.dimension == 4
    member = cd.ProbMeasure(g6_coset, (F(1, 4), F(1, 2), F(0), F(1, 8), F(0), F(1, 8)))
    assert desc.contains(member)
    assert not desc.contains(cd.ProbMeasure.uniform(g6_coset))


def test_basin_of_uniform_with_full_subgroup(nu_z3, z3):
    desc = cd.basin(nu_z3, cd.ProbMeasure.uniform(z3))
    assert desc.feasible
    assert desc.required_sums == (F(1),)
    assert desc.dimension == 2  # n - 1
    rng = random.Random(29)
    for _ in range(5):
        assert desc.contains(random_exact_measure(rng, z3))


def test_basin_infeasible_target(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    eta = cd.ProbMeasure(g6_coset, (F(1, 2), F(1, 4), F(1, 4), F(0), F(0), F(0)))
    desc = cd.basin(nu, eta)
    assert not desc.feasible
    assert desc.witness_block == 0
    assert not desc.contains(eta)


def test_basin_membership_is_invariant_under_step(g6_coset):
    nu = nu_g6(g6_coset, F(1, 3))
    eta = cd.ProbMeasure(
        g6_coset, (F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6))
    )
    desc = cd.basin(nu, eta)
    rng = random.Random(31)
    for _ in range(10):
        mu = random_exact_measure(rng, g6_coset)
        stepped = cd.apply_step(nu, mu)
        assert desc.contains(mu) == desc.contains(stepped)


def test_target_belongs_to_its_own_basin(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    eta = cd.ProbMeasure(
        g6_coset, (F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6), F(1, 6))
    )
    desc = cd.basin(nu, eta)
    assert desc.contains(eta)


def test_basin_of_float_target_requires_block_mass_not_scaled_entry(z3):
    # k * eta[first] would scale the first entry's rounding error by k = 3
    nu = cd.ProbMeasure(z3, (0.5, 0.25, 0.25))
    eta = cd.ProbMeasure(z3, (1 / 3 + 5e-13, 1 / 3 - 2.5e-13, 1 / 3 - 2.5e-13))
    assert cd.is_recurrent(nu, eta)
    desc = cd.basin(nu, eta)
    assert desc.feasible
    assert desc.contains(eta)


@pytest.mark.parametrize("offset, inside", [(5e-13, True), (1e-11, False)])
def test_float_block_sums_agree_within_1e_12(g6_coset, offset, inside):
    nu = nu_g6(g6_coset, F(1, 2))  # blocks (0, 1, 2) and (3, 4, 5)
    eta = cd.ProbMeasure.uniform(g6_coset)
    candidate = cd.ProbMeasure(g6_coset, (0.5 + offset, 0.0, 0.0, 0.5 - offset, 0.0, 0.0))
    for target in (eta, eta.to_float()):
        assert cd.basin(nu, target).contains(candidate) is inside
        assert cd.same_omega_limit(nu, target, candidate) is inside


# --- same omega limit ------------------------------------------------------------------


def test_step_preserves_omega_limit(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    rng = random.Random(37)
    mu = random_exact_measure(rng, g6_coset)
    assert cd.same_omega_limit(nu, mu, cd.apply_step(nu, mu))


def test_same_coset_point_masses_share_limit(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    d0 = cd.ProbMeasure.point_mass(g6_coset, 0)
    d1 = cd.ProbMeasure.point_mass(g6_coset, 1)
    assert cd.same_omega_limit(nu, d0, d1)


def test_different_coset_point_masses_differ(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    de = cd.ProbMeasure.point_mass(g6_coset, g6_coset.index_of("e"))
    da = cd.ProbMeasure.point_mass(g6_coset, g6_coset.index_of("a"))
    assert not cd.same_omega_limit(nu, de, da)


# --- density construction ---------------------------------------------------------------


def test_perturbation_of_order_two_point_mass(z2):
    nu = cd.ProbMeasure.point_mass(z2, 1)
    result = cd.acyclic_perturbation(nu, F(1, 2))
    assert result.weights == (F(1, 4), F(3, 4))
    assert cd.is_acyclic(result)
    assert cd.l1_distance(nu, result) == F(1, 2)  # boundary case: distance == eps


def test_perturbation_keeps_full_support_measures(z3, nu_z3):
    assert cd.acyclic_perturbation(nu_z3, F(1, 10)) is nu_z3


def test_perturbation_order6_example(g6_coset):
    nu = nu_g6(g6_coset, F(1, 2))
    result = cd.acyclic_perturbation(nu, F(1, 6))
    by_label = {g6_coset.labels[i]: w for i, w in enumerate(result.weights)}
    assert by_label == {
        "e": F(11, 24),
        "b": F(11, 24),
        "b2": F(1, 12),
        "a": F(0),
        "ab": F(0),
        "ab2": F(0),
    }
    assert result.support() == {0, 1, 2}
    assert cd.l1_distance(nu, result) == F(1, 6)


def test_perturbation_random_sweep(sweep_pool):
    rng = random.Random(41)
    for group in sweep_pool:
        if group.order == 1:
            continue
        for _ in range(4):
            size = rng.randint(1, group.order - 1)
            nu = random_exact_measure(rng, group, support=rng.sample(range(group.order), size))
            for eps in (F(1, 10), F(1, 100)):
                out = cd.acyclic_perturbation(nu, eps)
                assert cd.is_acyclic(out)
                assert cd.l1_distance(nu, out) <= eps


def test_perturbation_rejects_nonpositive_eps(z3, nu_z3):
    with pytest.raises(DomainError):
        cd.acyclic_perturbation(nu_z3, F(0))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_perturbation_rejects_nan_eps(z2, mode):
    nu = cd.ProbMeasure.point_mass(z2, 1).in_mode(mode)
    with pytest.raises(DomainError):
        cd.acyclic_perturbation(nu, float("nan"))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_perturbation_with_infinite_eps_is_unbounded(g6_coset, mode):
    # the smallest positive weight is 1/2, so any eps >= 1/2 spreads 1/4
    nu = nu_g6(g6_coset, F(1, 2)).in_mode(mode)
    unbounded = cd.acyclic_perturbation(nu, float("inf"))
    assert unbounded == cd.acyclic_perturbation(nu, F(10))
    assert cd.l1_distance(nu, unbounded) == F(1, 2)


def test_perturbation_eps_of_either_scalar_type(g6_coset):
    nu = nu_g6(g6_coset, F(1, 3))
    for eps in (0.1, 0.5):  # below and above the smallest positive weight
        assert cd.acyclic_perturbation(nu, eps) == cd.acyclic_perturbation(nu, F(eps))
        fnu = nu.to_float()
        assert cd.acyclic_perturbation(fnu, F(eps)) == cd.acyclic_perturbation(fnu, eps)


def test_float_perturbation_reads_its_smallest_weight_on_the_support(z4):
    # 1e-15 is at or below FLOAT_SUPPORT_TOL, so supp nu = {1, 3} and H = Z_4;
    # the smallest weight is 1/2 - 1e-15, not the residue 1e-15
    nu = cd.ProbMeasure(z4, (0.0, 0.5, 1e-15, 0.5 - 1e-15))
    out = cd.acyclic_perturbation(nu, F(1, 10))
    assert out.support() == {0, 1, 2, 3} and cd.is_acyclic(out)
    assert cd.l1_distance(nu, out) == pytest.approx(0.1, abs=1e-12)


def test_float_perturbation_never_returns_a_non_acyclic_measure(z4):
    # each missing element of H gains eps/4, which must clear 1e-14
    nu = cd.ProbMeasure(z4, (0.0, 0.5, 0.0, 0.5))
    with pytest.raises(DomainError, match="FLOAT_SUPPORT_TOL"):
        cd.acyclic_perturbation(nu, 1e-14)
    assert cd.acyclic_perturbation(nu, 1e-13).support() == {0, 1, 2, 3}
    # a support weight of 1.1e-14 would itself fall to 8.25e-15
    thin = cd.ProbMeasure(z4, (0.0, 1.1e-14, 0.0, 1 - 1.1e-14))
    cases = refused = 0
    for m in (nu, thin, cd.ProbMeasure(z4, (0.0, 0.5, 1e-15, 0.5 - 1e-15))):
        for eps in (1e-16, 1e-15, 1e-14, 3e-14, 1e-13, 0.1, 1.0):
            cases += 1
            try:
                out = cd.acyclic_perturbation(m, eps)
            except DomainError:
                refused += 1
            else:
                assert cd.is_acyclic(out) and cd.l1_distance(m, out) <= eps + 1e-15
    assert 0 < refused < cases


# --- generic behavior ---------------------------------------------------------------------


def test_generic_check_z3(nu_z3):
    report = cd.generic_check(nu_z3)
    assert report.full_support
    assert report.generic


def test_generic_check_order6_not_generic(g6):
    report = cd.generic_check(nu_g6(g6, F(1, 2)))
    assert not report.full_support
    assert not report.generic


def test_generic_check_uniform(s3):
    report = cd.generic_check(cd.ProbMeasure.uniform(s3))
    assert report.generic


@pytest.mark.parametrize("to_mode", [lambda m: m, lambda m: m.to_float()])
def test_generic_check_computes_the_limit_once(monkeypatch, to_mode):
    from convdyn import dynamics

    calls = []
    real = dynamics.support_orbit
    monkeypatch.setattr(dynamics, "support_orbit", lambda nu: calls.append(nu) or real(nu))
    counts = []
    for g in (cd.cyclic_group(3), cd.symmetric_group(4)):
        n = g.order
        nu = to_mode(cd.ProbMeasure(g, tuple(F(2 * (i + 1), n * (n + 1)) for i in range(n))))
        calls.clear()
        assert cd.generic_check(nu).generic
        counts.append(len(calls))
    assert counts[0] == counts[1]  # not one support orbit per sample measure


def sampled_generic_check(nu: cd.ProbMeasure) -> cd.GenericityReport:
    """Reference: ``generic_check`` with every orbit limit convolved out,
    from all point masses and the uniform measure."""
    g = nu.group
    if len(nu.support()) != g.order:
        return cd.GenericityReport(nu, False)
    uniform = cd.ProbMeasure.uniform(g)
    so = cd.support_orbit(uniform)
    fps = cd.fixed_points(uniform)
    limit = cd.limit_of_powers(uniform)
    samples = [cd.ProbMeasure.point_mass(g, i) for i in range(g.order)]
    samples.append(uniform)
    return cd.GenericityReport(
        nu,
        True,
        generates_group=so.subgroup.order == g.order,
        acyclic=so.acyclic,
        unique_fixed_point_uniform=len(fps.basis) == 1 and fps.basis[0].weights == uniform.weights,
        omega_limits_uniform=all(cd.convolve(mu, limit).weights == uniform.weights for mu in samples),
    )


def test_generic_check_matches_sampled_reference():
    fields = ("full_support", "generates_group", "acyclic", "unique_fixed_point_uniform", "omega_limits_uniform")
    groups = [cd.cyclic_group(n) for n in range(1, 13)] + [cd.dihedral_group(n) for n in range(3, 7)]
    groups += [cd.symmetric_group(3), cd.symmetric_group(4), cd.product_group(cd.cyclic_group(2), cd.cyclic_group(6))]
    rng = random.Random(1304)
    full = partial = 0
    for g in groups:
        n = g.order
        measures = [random_exact_measure(rng, g, support=range(n)) for _ in range(2)]
        if n > 1:
            measures += [random_exact_measure(rng, g, support=rng.sample(range(n), rng.randint(1, n - 1)))
                         for _ in range(2)]
        for nu in measures + [m.to_float() for m in measures]:
            report, expected = cd.generic_check(nu), sampled_generic_check(nu)
            got = [getattr(report, f) for f in fields]
            assert got == [getattr(expected, f) for f in fields], (g.labels, nu.weights)
            assert [type(x) for x in got] == [type(getattr(expected, f)) for f in fields]
            assert report.generic == expected.generic
            if report.full_support:
                full += 1
                assert report.generic
            else:
                partial += 1
                assert got == [False, None, None, None, None]
    assert full == 2 * 2 * len(groups) and partial == 2 * 2 * (len(groups) - 1)


def test_pushforward_commutes_with_limits(z6, z3):
    phi = cd.check_homomorphism(z6, z3, [i % 3 for i in range(6)])
    rng = random.Random(43)
    for _ in range(10):
        nu = random_exact_measure(rng, z6)
        if not cd.is_acyclic(nu):
            continue
        image = cd.pushforward(phi, nu)
        assert cd.is_acyclic(image)
        lhs = cd.pushforward(phi, cd.limit_of_powers(nu))
        rhs = cd.limit_of_powers(image)
        assert lhs.weights == rhs.weights


def test_limit_of_powers_agrees_with_float_orbit_and_matrix(g6):
    nu = nu_g6(g6, F(1, 3))
    exact = cd.limit_of_powers(nu)
    # float orbit of the powers themselves
    states = cd.orbit(nu.to_float(), nu.to_float(), 200)
    final = states[-1]
    assert max(abs(w - float(x)) for w, x in zip(final.weights, exact.weights)) < 1e-10
    # and exactly nu times the closed-form limit matrix
    b = cd.transition_matrix(exact).entries
    assert cd.measure_times_matrix(nu, b).weights == exact.weights
