from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convdyn as cd
from convdyn.errors import (
    GroupMismatchError,
    InvalidMeasureError,
    ModeMismatchError,
)
from conftest import brute_convolve, nu_g6, random_exact_measure

F = Fraction


# --- construction and validation -------------------------------------------


def test_measure_accepts_paper_weights(z3, nu_z3):
    assert nu_z3.mode == "exact"
    assert sum(nu_z3.weights) == 1


def test_measure_rejects_wrong_mass(z3):
    with pytest.raises(InvalidMeasureError) as err:
        cd.ProbMeasure(z3, (F(1, 2), F(1, 2), F(1, 2)))
    assert "3/2" in str(err.value)


def test_measure_rejects_negativity(z3):
    with pytest.raises(InvalidMeasureError) as err:
        cd.ProbMeasure(z3, (F(3, 2), F(-1, 2), F(0)))
    assert "index 1" in str(err.value)


def test_point_mass_is_valid(s3):
    delta = cd.ProbMeasure.point_mass(s3, s3.identity)
    assert delta.weights[s3.identity] == 1
    assert sum(delta.weights) == 1


def test_measure_rejects_mixed_modes(z3):
    with pytest.raises(ModeMismatchError):
        cd.ProbMeasure(z3, (0.5, F(1, 4), F(1, 4)))


def test_mode_is_stored_at_construction_and_ignored_by_equality(z3, monkeypatch):
    m = cd.ProbMeasure(z3, (1, 0, 0))
    delta = cd.ProbMeasure.point_mass(z3, 0)
    f = cd.TestFunction(z3, (0.5, 1.0, 2.0))

    def rescan(values):
        raise AssertionError("mode was recomputed after construction")

    monkeypatch.setattr(cd.scalars, "mode_of", rescan)
    assert (m.mode, f.mode) == ("exact", "float")
    assert m.weights == (F(1), F(0), F(0))
    assert m == delta and hash(m) == hash(delta)
    assert "mode" not in repr(m)


def test_zero_weights_share_one_object_per_mode(s3):
    exact = [
        cd.ProbMeasure(s3, (F(1, 2), F(0), 0, F(1, 2), F(0), 0)),
        cd.ProbMeasure.uniform(s3, [0, 3]),
        cd.ProbMeasure.point_mass(s3, 2),
        cd.ProbMeasure.point_mass(s3, 2).to_float().in_mode("exact"),
        cd.convolve(cd.ProbMeasure.uniform(s3, [0, 3]), cd.ProbMeasure.point_mass(s3, 2)),
    ]
    floats = [m.to_float() for m in exact] + [cd.ProbMeasure(s3, (0.5, 0.0, 0.0, 0.5, float(0), 0.0 * 2))]
    functions = [cd.TestFunction.indicator(s3, [1]), cd.TestFunction(s3, (1, 0, 0, 0, F(0), 2))]
    for vectors, mode, zero_type in (
        ([m.weights for m in exact] + [f.values for f in functions], "exact", F),
        ([m.weights for m in floats] + [f.to_float().values for f in functions], "float", float),
    ):
        zeros = [w for ws in vectors for w in ws if w == 0]
        assert len(zeros) >= 20
        assert all(z is cd.scalars.ZERO[mode] for z in zeros)
        assert type(cd.scalars.ZERO[mode]) is zero_type
    assert all(type(w) is F for w in exact[0].weights)


def test_negative_float_zero_is_kept(z3):
    m = cd.ProbMeasure(z3, (0.5, -0.0, 0.5))
    assert repr(m.weights) == "(0.5, -0.0, 0.5)"
    assert repr(cd.TestFunction(z3, (-0.0, 0.0, 1.0)).values) == "(-0.0, 0.0, 1.0)"


def test_float_mode_mass_tolerance(z3):
    cd.ProbMeasure(z3, (0.3, 0.3, 0.4 + 1e-13))
    with pytest.raises(InvalidMeasureError):
        cd.ProbMeasure(z3, (0.3, 0.3, 0.5))


# --- support ----------------------------------------------------------------


def test_support_examples(z3, nu_z3, g6):
    assert nu_z3.support() == {0, 1, 2}
    delta = cd.ProbMeasure.point_mass(g6, g6.identity)
    assert delta.support() == {g6.identity}
    nu = nu_g6(g6, F(1, 2))
    assert nu.support() == {g6.index_of("e"), g6.index_of("b")}


def test_float_support_threshold(monkeypatch, z3):
    m = cd.ProbMeasure(z3, (1.0 - 1e-15, 1e-15, 0.0))
    assert m.support() == {0}
    monkeypatch.setattr("convdyn.measures.FLOAT_SUPPORT_TOL", 1e-16)
    assert m.support() == {0, 1}


# --- integration ------------------------------------------------------------


def test_integrate_normalization(z3, nu_z3):
    one = cd.TestFunction.constant(z3)
    assert cd.integrate(one, nu_z3) == 1


def test_integrate_point_readoff(z3, nu_z3):
    f = cd.TestFunction.indicator(z3, {1})
    assert cd.integrate(f, nu_z3) == F(1, 4)


def test_integrate_hand_inner_product(z3, nu_z3):
    f = cd.TestFunction(z3, (F(0), F(1), F(2)))
    assert cd.integrate(f, nu_z3) == F(13, 12)


def test_integrate_rejects_group_mismatch(z3, z4, nu_z3):
    with pytest.raises(GroupMismatchError):
        cd.integrate(cd.TestFunction.constant(z4), nu_z3)


# --- convolution ------------------------------------------------------------


def test_point_mass_at_identity_is_two_sided_unit(z3, nu_z3):
    delta = cd.ProbMeasure.point_mass(z3, z3.identity)
    assert cd.convolve(delta, nu_z3).weights == nu_z3.weights
    assert cd.convolve(nu_z3, delta).weights == nu_z3.weights


def test_z3_self_convolution_frozen(z3, nu_z3):
    # oracle: all nine factor pairs, computed by brute_convolve
    expected = (F(23, 72), F(49, 144), F(49, 144))
    assert brute_convolve(nu_z3, nu_z3) == expected
    assert cd.convolve(nu_z3, nu_z3).weights == expected


def test_z4_parity_measure_squares_to_even_support(z4):
    nu = cd.ProbMeasure(z4, (F(0), F(1, 2), F(0), F(1, 2)))
    expected = (F(1, 2), F(0), F(1, 2), F(0))
    assert brute_convolve(nu, nu) == expected
    assert cd.convolve(nu, nu).weights == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_convolution_is_associative_exactly(small_pool, data):
    group = data.draw(st.sampled_from(small_pool))
    triples = []
    for _ in range(3):
        raw = data.draw(
            st.lists(
                st.integers(0, 9), min_size=group.order, max_size=group.order
            ).filter(lambda v: sum(v) > 0)
        )
        total = sum(raw)
        triples.append(cd.ProbMeasure(group, tuple(F(x, total) for x in raw)))
    a, b, c = triples
    left = cd.convolve(cd.convolve(a, b), c)
    right = cd.convolve(a, cd.convolve(b, c))
    assert left.weights == right.weights


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_convolution_commutes_on_abelian_groups(data):
    group = data.draw(
        st.sampled_from(
            [cd.cyclic_group(4), cd.cyclic_group(6), cd.product_group(cd.cyclic_group(2), cd.cyclic_group(2))]
        )
    )
    pair = []
    for _ in range(2):
        raw = data.draw(
            st.lists(st.integers(0, 9), min_size=group.order, max_size=group.order).filter(lambda v: sum(v) > 0)
        )
        total = sum(raw)
        pair.append(cd.ProbMeasure(group, tuple(F(x, total) for x in raw)))
    assert cd.convolve(pair[0], pair[1]).weights == cd.convolve(pair[1], pair[0]).weights


def test_convolution_noncommutativity_witness_on_s3(s3):
    # two transpositions do not commute, so point masses expose order
    orders = [cd.element_order(s3, i) for i in range(6)]
    t1, t2 = [i for i, o in enumerate(orders) if o == 2][:2]
    a = cd.ProbMeasure.point_mass(s3, t1)
    b = cd.ProbMeasure.point_mass(s3, t2)
    assert cd.convolve(a, b).weights != cd.convolve(b, a).weights


def test_support_of_convolution_is_set_product(small_pool):
    rng = random.Random(11)
    for group in small_pool:
        a = random_exact_measure(rng, group)
        b = random_exact_measure(rng, group)
        conv = cd.convolve(a, b)
        assert conv.support() == cd.set_product(group, a.support(), b.support())


# --- bilinear pairing --------------------------------------------------------


def test_bilinear_pairing_of_constant_is_one(z3, nu_z3):
    one = cd.TestFunction.constant(z3)
    assert cd.bilinear_pairing(one, nu_z3, nu_z3) == 1


def test_bilinear_pairing_on_point_masses(s3):
    f = cd.TestFunction(s3, tuple(F(i) for i in range(6)))
    for i in (1, 3):
        for j in (2, 5):
            a = cd.ProbMeasure.point_mass(s3, i)
            b = cd.ProbMeasure.point_mass(s3, j)
            assert cd.bilinear_pairing(f, a, b) == f.values[s3.cayley[i][j]]


def test_bilinear_pairing_agrees_with_integrate_convolve(z3, nu_z3):
    f = cd.TestFunction(z3, (F(0), F(1), F(2)))
    assert cd.bilinear_pairing(f, nu_z3, nu_z3) == F(49, 48)
    assert cd.bilinear_pairing(f, nu_z3, nu_z3) == cd.integrate(f, cd.convolve(nu_z3, nu_z3))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bilinear_pairing_matches_integrate_convolve_everywhere(small_pool, data):
    group = data.draw(st.sampled_from(small_pool))
    ms = []
    for _ in range(2):
        raw = data.draw(
            st.lists(st.integers(0, 9), min_size=group.order, max_size=group.order).filter(lambda v: sum(v) > 0)
        )
        total = sum(raw)
        ms.append(cd.ProbMeasure(group, tuple(F(x, total) for x in raw)))
    values = data.draw(
        st.lists(st.integers(-5, 5), min_size=group.order, max_size=group.order)
    )
    f = cd.TestFunction(group, tuple(F(v) for v in values))
    assert cd.bilinear_pairing(f, ms[0], ms[1]) == cd.integrate(f, cd.convolve(ms[0], ms[1]))


# --- pushforward -------------------------------------------------------------


def test_pushforward_identity(z3, nu_z3):
    ident = cd.check_homomorphism(z3, z3, [0, 1, 2])
    assert cd.pushforward(ident, nu_z3).weights == nu_z3.weights


def test_pushforward_mod2(z4, z2):
    phi = cd.check_homomorphism(z4, z2, [0, 1, 0, 1])
    mu = cd.ProbMeasure(z4, (F(1, 2), F(0), F(1, 2), F(0)))
    assert cd.pushforward(phi, mu).weights == (F(1), F(0))


def test_pushforward_of_point_mass(z6, z3):
    phi = cd.check_homomorphism(z6, z3, [i % 3 for i in range(6)])
    for g in range(6):
        image = cd.pushforward(phi, cd.ProbMeasure.point_mass(z6, g))
        assert image.weights[g % 3] == 1


def test_pushforward_is_multiplicative(z6, z3):
    phi = cd.check_homomorphism(z6, z3, [i % 3 for i in range(6)])
    rng = random.Random(5)
    for _ in range(20):
        a = random_exact_measure(rng, z6)
        b = random_exact_measure(rng, z6)
        lhs = cd.pushforward(phi, cd.convolve(a, b))
        rhs = cd.convolve(cd.pushforward(phi, a), cd.pushforward(phi, b))
        assert lhs.weights == rhs.weights


# --- l1 distance --------------------------------------------------------------


def test_l1_distance_examples(z2, z3, nu_z3):
    assert cd.l1_distance(nu_z3, nu_z3) == 0
    one = cd.ProbMeasure(z2, (F(1), F(0)))
    other = cd.ProbMeasure(z2, (F(0), F(1)))
    assert cd.l1_distance(one, other) == 2
    uniform = cd.ProbMeasure.uniform(z3)
    assert cd.l1_distance(nu_z3, uniform) == F(1, 6)


# --- support orbit and acyclicity ---------------------------------------------


def test_orbit_of_order_two_point_mass_alternates(z4):
    nu = cd.ProbMeasure.point_mass(z4, 2)
    so = cd.support_orbit(nu)
    assert so.pre_period == 0
    assert so.period == 2
    assert so.cycle_sets == (frozenset({2}), frozenset({0}))
    assert not so.acyclic
    assert so.subgroup.members == (0, 2)


def test_lazy_step_on_cyclic_generator_is_acyclic():
    z5 = cd.cyclic_group(5)
    nu = cd.ProbMeasure(z5, (F(1, 2), F(1, 2), F(0), F(0), F(0)))
    so = cd.support_orbit(nu)
    assert so.acyclic
    assert so.witness is not None and so.witness <= 5
    assert so.subgroup.members == (0, 1, 2, 3, 4)


def test_orbit_of_z4_parity_measure(z4):
    nu = cd.ProbMeasure(z4, (F(0), F(1, 2), F(0), F(1, 2)))
    so = cd.support_orbit(nu)
    assert so.period == 2
    assert so.cycle_sets == (frozenset({1, 3}), frozenset({0, 2}))
    assert not so.acyclic


def test_two_point_support_whose_quotient_generates():
    z5 = cd.cyclic_group(5)
    nu = cd.ProbMeasure(z5, (F(0), F(1, 2), F(1, 2), F(0), F(0)))
    # quotient of the two support points generates everything
    assert cd.generated_subgroup(z5, {z5.cayley[z5.inverses[1]][2]}).order == 5
    assert cd.is_acyclic(nu)


def test_full_support_is_acyclic_with_full_subgroup(small_pool):
    rng = random.Random(2)
    for group in small_pool:
        nu = random_exact_measure(rng, group, support=range(group.order))
        so = cd.support_orbit(nu)
        assert so.acyclic
        assert so.subgroup.order == group.order


def test_point_mass_at_identity_is_acyclic(s3):
    so = cd.support_orbit(cd.ProbMeasure.point_mass(s3, s3.identity))
    assert so.acyclic
    assert so.witness == 1
    assert so.subgroup.members == (s3.identity,)


def test_orbit_sets_equal_supports_of_powers(small_pool):
    rng = random.Random(23)
    for group in small_pool[:6]:
        nu = random_exact_measure(rng, group)
        so = cd.support_orbit(nu)
        power = nu
        for m, expected in enumerate(so.sets[:6], start=1):
            assert power.support() == expected
            assert so.set_at(m) == expected
            power = cd.convolve(power, nu)


def test_orbit_eventual_periodicity(small_pool):
    rng = random.Random(29)
    for group in small_pool:
        nu = random_exact_measure(rng, group)
        so = cd.support_orbit(nu)
        current = so.sets[-1]
        # walk ten more steps; they must follow the cycle
        for extra in range(1, 11):
            current = cd.set_product(group, current, so.sets[0])
            m = len(so.sets) + extra
            assert current == so.set_at(m)


def test_large_support_forces_acyclicity(sweep_pool):
    rng = random.Random(31)
    for group in sweep_pool:
        if group.order < 4:
            continue
        size = group.order // 2 + 2
        if size > group.order:
            continue
        for _ in range(6):
            support = rng.sample(range(group.order), size)
            nu = random_exact_measure(rng, group, support=support)
            assert cd.is_acyclic(nu)


def _small_groups():
    yield from (cd.cyclic_group(n) for n in range(1, 13))
    yield from (cd.dihedral_group(n) for n in range(2, 7))
    yield cd.symmetric_group(3)
    yield cd.symmetric_group(4)


def test_orbit_has_at_most_subgroup_order_sets():
    # the bound support_orbit enforces, swept over every support of size <= 3
    at_bound = 0
    for g in _small_groups():
        for size in (1, 2, 3):
            for support in itertools.combinations(range(g.order), size):
                so = cd.support_orbit(cd.ProbMeasure.uniform(g, support))
                assert len(so.sets) <= so.subgroup.order
                at_bound += len(so.sets) == so.subgroup.order
    assert at_bound > 0  # the bound is attained, e.g. by Z_n with S = {1}


def test_lazy_step_on_proper_cyclic_subgroup(z6):
    # support {e, g} with g of order 3: acyclic inside H = <g> of order 3
    nu = cd.ProbMeasure(z6, (F(1, 3), F(0), F(2, 3), F(0), F(0), F(0)))
    so = cd.support_orbit(nu)
    assert so.acyclic
    assert so.subgroup.members == (0, 2, 4)
    assert so.witness <= 3


def test_identity_in_support_implies_acyclic(small_pool):
    rng = random.Random(67)
    for group in small_pool:
        size = rng.randint(1, group.order)
        support = set(rng.sample(range(group.order), size)) | {group.identity}
        nu = random_exact_measure(rng, group, support=support)
        assert cd.is_acyclic(nu)


def test_period_one_cycle_is_the_subgroup(small_pool):
    rng = random.Random(71)
    for group in small_pool:
        for _ in range(6):
            nu = random_exact_measure(rng, group)
            so = cd.support_orbit(nu)
            assert so.acyclic == (so.period == 1)
            if so.period == 1:
                assert so.cycle_sets[0] == so.subgroup.member_set()
