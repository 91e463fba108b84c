from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convdyn as cd
from convdyn.errors import BudgetError, ConvergenceError, DomainError
from convdyn.transition import DEFAULT_MAX_ITER
from conftest import brute_convolve, exhaustive_small_supports, linear_primitivity, nu_g6, random_exact_measure

F = Fraction


def test_z3_matrix_matches_printed_rows(z3, nu_z3):
    a = cd.transition_matrix(nu_z3)
    assert a.entries == (
        (F(1, 3), F(1, 4), F(5, 12)),
        (F(5, 12), F(1, 3), F(1, 4)),
        (F(1, 4), F(5, 12), F(1, 3)),
    )


@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(3, 4)])
def test_order6_matrix_matches_printed_pattern(g6, alpha):
    nu = nu_g6(g6, alpha)
    a = cd.transition_matrix(nu).entries
    beta = 1 - alpha
    expected = (
        (alpha, 0, 0, 0, beta, 0),
        (0, alpha, 0, beta, 0, 0),
        (beta, 0, alpha, 0, 0, 0),
        (0, 0, 0, alpha, 0, beta),
        (0, 0, beta, 0, alpha, 0),
        (0, beta, 0, 0, 0, alpha),
    )
    assert a == tuple(tuple(F(x) for x in row) for row in expected)


def test_point_mass_matrix_is_identity(s3):
    delta = cd.ProbMeasure.point_mass(s3, s3.identity)
    a = cd.transition_matrix(delta).entries
    for i in range(s3.order):
        for j in range(s3.order):
            assert a[i][j] == (1 if i == j else 0)


def test_entries_depend_only_on_quotient(small_pool):
    rng = random.Random(17)
    for group in small_pool:
        nu = random_exact_measure(rng, group)
        a = cd.transition_matrix(nu).entries
        for i in range(group.order):
            for j in range(group.order):
                assert a[i][j] == nu.weights[group.cayley[group.inverses[i]][j]]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_is_doubly_stochastic(small_pool, data):
    group = data.draw(st.sampled_from(small_pool))
    raw = data.draw(
        st.lists(st.integers(0, 9), min_size=group.order, max_size=group.order).filter(lambda v: sum(v) > 0)
    )
    total = sum(raw)
    nu = cd.ProbMeasure(group, tuple(F(x, total) for x in raw))
    a = cd.transition_matrix(nu).entries
    for row in a:
        assert sum(row) == 1
    for col in zip(*a):
        assert sum(col) == 1


def test_matrix_power_basics(nu_z3):
    a = cd.transition_matrix(nu_z3)
    identity = cd.matrix_power(a, 0)
    for i in range(3):
        for j in range(3):
            assert identity[i][j] == (1 if i == j else 0)
    assert cd.matrix_power(a, 1) == a.entries


def test_squared_matrix_equals_matrix_of_convolved_measure(nu_z3):
    a = cd.transition_matrix(nu_z3)
    squared = cd.matrix_power(a, 2)
    nu2 = cd.ProbMeasure(nu_z3.group, brute_convolve(nu_z3, nu_z3))
    assert squared == cd.transition_matrix(nu2).entries
    assert squared[0][0] == F(23, 72)


def test_representation_identity(small_pool):
    rng = random.Random(41)
    for group in small_pool:
        for _ in range(4):
            mu = random_exact_measure(rng, group)
            nu = random_exact_measure(rng, group)
            via_matrix = cd.measure_times_matrix(mu, cd.transition_matrix(nu).entries)
            assert via_matrix.weights == cd.convolve(mu, nu).weights


def test_power_identity_up_to_16(small_pool):
    rng = random.Random(43)
    for group in small_pool[:5]:
        nu = random_exact_measure(rng, group)
        a = cd.transition_matrix(nu)
        chain = nu
        for m in range(0, 17):
            assert cd.measure_times_matrix(nu, cd.matrix_power(a, m)).weights == chain.weights
            chain = cd.convolve(chain, nu)


def test_convolution_power_matches_repeated_convolve(nu_z3):
    chain = cd.ProbMeasure.point_mass(nu_z3.group, 0)
    for n in range(0, 8):
        assert cd.convolution_power(nu_z3, n).weights == chain.weights
        chain = cd.convolve(chain, nu_z3)


def test_matrix_power_bit_budget(monkeypatch, nu_z3):
    a = cd.transition_matrix(nu_z3)
    monkeypatch.setattr("convdyn.transition.DEFAULT_BIT_LIMIT", 100)
    with pytest.raises(BudgetError):
        cd.matrix_power(a, 64)


def test_matrix_power_product_count(monkeypatch, nu_z3):
    # floor(log2 m) squarings and popcount(m) - 1 products with A; none with I
    from convdyn import transition

    calls = []
    real = transition.matrix_multiply
    monkeypatch.setattr(transition, "matrix_multiply", lambda x, y: calls.append(1) or real(x, y))
    a = cd.transition_matrix(nu_z3)
    chain = cd.convolve(nu_z3, nu_z3)
    for m in range(1, 41):
        calls.clear()
        power = cd.matrix_power(a, m)
        assert len(calls) == (m.bit_length() - 1) + (bin(m).count("1") - 1), m
        assert cd.measure_times_matrix(nu_z3, power).weights == chain.weights
        chain = cd.convolve(chain, nu_z3)
    calls.clear()
    assert cd.matrix_power(a, 1) == a.entries and not calls


def test_power_convergence_on_z3(nu_z3):
    result = cd.power_convergence(cd.transition_matrix(nu_z3))
    assert result.converged
    for row in result.matrix:
        for x in row:
            assert abs(x - 1 / 3) < 1e-11


def test_power_convergence_reports_oscillation(z2):
    nu = cd.ProbMeasure.point_mass(z2, 1)
    result = cd.power_convergence(cd.transition_matrix(nu))
    assert not result.converged
    assert result.period == 2
    assert result.matrix is None


def test_power_convergence_respects_max_iter(nu_z3):
    with pytest.raises(ConvergenceError):
        cd.power_convergence(cd.transition_matrix(nu_z3), tol=1e-15, max_iter=2)


def linear_power_convergence(a: cd.TransitionMatrix, tol: float = 1e-12) -> tuple:
    """Reference: iterate A, A^2, A^3, ... one product per k and stop at
    the first k whose test passes, as ``power_convergence`` documents.
    Returns (converged, iterations, period, matrix)."""
    d = cd.support_orbit(a.source).period
    af = a.as_float_array()
    current = af.copy()
    history = [current]  # last d+1 powers, kept when d > 1
    oscillating_run = 0
    for k in range(1, DEFAULT_MAX_ITER + 1):
        nxt = current @ af
        if d == 1:
            if np.max(np.abs(nxt - current)) < tol:
                return True, k, None, nxt
        else:
            if len(history) > d:
                if np.max(np.abs(nxt - history[-d])) < tol:
                    oscillating_run += 1
                    if oscillating_run >= d:
                        return False, k, d, None
                else:
                    oscillating_run = 0
            history.append(nxt)
            if len(history) > d + 1:
                history.pop(0)
        current = nxt
    raise AssertionError("reference loop ran out of iterations")


def _element_power(group: cd.FiniteGroup, x: int, m: int) -> int:
    y = group.identity
    for _ in range(m):
        y = group.cayley[y][x]
    return y


def sweep_measures(seed: int) -> list[cd.ProbMeasure]:
    """Seeded measures on S_4, D_6, Z_12 and Z_20: random supports, supports
    inside one coset of the subgroup generated by m-th powers (periods
    d > 1), and lazy walks that stay in place with probability 1 - p."""
    rng = random.Random(seed)
    out = []
    for group in (cd.symmetric_group(4), cd.dihedral_group(6), cd.cyclic_group(12), cd.cyclic_group(20)):
        out += [random_exact_measure(rng, group) for _ in range(10)]
        for m in (2, 3, 4):
            normal = cd.generated_subgroup(group, {_element_power(group, x, m) for x in range(group.order)})
            x = rng.choice([y for y in range(group.order) if y not in normal] or [group.identity])
            coset = sorted({group.cayley[x][h] for h in normal.members})
            for _ in range(3):
                out.append(random_exact_measure(rng, group, support=rng.sample(coset, rng.randint(1, len(coset)))))
        for p in (F(1, 10), F(1, 40)):
            moves = rng.sample(range(1, group.order), rng.randint(1, 2))
            weights = [F(0)] * group.order
            weights[group.identity] = 1 - p
            for move in moves:
                weights[move] += p / len(moves)
            out.append(cd.ProbMeasure(group, tuple(weights)))
    return out


def test_power_convergence_matches_linear_iteration():
    measures = sweep_measures(71)
    assert len(measures) >= 80
    periods = set()
    for nu in measures:
        a = cd.transition_matrix(nu)
        converged, iterations, period, matrix = linear_power_convergence(a)
        result = cd.power_convergence(a)
        assert (result.converged, result.iterations, result.period) == (converged, iterations, period), nu.weights
        if converged:
            assert np.max(np.abs(np.array(result.matrix) - matrix)) < 1e-9
        else:
            assert result.matrix is None
        periods.add(period or 1)
    assert max(periods) > 2  # the sweep covers d = 1, 2 and longer periods


def test_power_convergence_max_iter_edge():
    # the answer k is returned under max_iter = k and raises under k - 1
    for nu in sweep_measures(73)[::5]:
        a = cd.transition_matrix(nu)
        k = linear_power_convergence(a)[1]
        assert cd.power_convergence(a, max_iter=k).iterations == k
        if k > 1:
            with pytest.raises(ConvergenceError):
                cd.power_convergence(a, max_iter=k - 1)


def test_power_convergence_lazy_walk_beyond_linear_reach():
    # 227,117 products one at a time; the search bound allows about 240
    z50 = cd.cyclic_group(50)
    weights = [F(0)] * 50
    weights[0], weights[1] = F(99, 100), F(1, 100)
    result = cd.power_convergence(cd.transition_matrix(cd.ProbMeasure(z50, tuple(weights))))
    assert result.converged and result.iterations == 227_117
    # the test bounds successive differences; the distance to the limit is
    # larger by about 1 / spectral gap (~6e3 here)
    assert np.max(np.abs(np.array(result.matrix) - 1 / 50)) < 1e-8


def fft_power_convergence(weights, shape: tuple[int, ...], tol: float) -> tuple[int, object]:
    """Reference for ``power_convergence`` on Z_a x Z_b x ... (index
    a_1 * b + a_2 for Z_a x Z_b, as ``product_group`` lists it) with an
    acyclic measure, through the Fourier transform: nu^k =
    ifft(fft(nu)^k), so D(k) = max|A^(k+1) - A^k| = max|nu^(k+1) - nu^k|
    is max|ifft(f^k (f - 1))| with f = fft(nu).  That needs no products
    and does not subtract two nearly equal powers.  D falls with k, so
    the first k with D(k) < tol is found by doubling and bisection.
    Returns that k and D."""
    f = np.fft.fftn(np.array(weights, dtype=float).reshape(shape))
    step = f - 1

    def distance(k: int) -> float:
        return float(np.max(np.abs(np.fft.ifftn(f**k * step))))

    below, k = 0, 1  # D(below) >= tol, or below = 0
    while not distance(k) < tol:
        below, k = k, 2 * k
    while k - below > 1:
        mid = (below + k) // 2
        if distance(mid) < tol:
            k = mid
        else:
            below = mid
    return k, distance


def lazy_walk(shape: tuple[int, ...], p: Fraction, symmetric: bool) -> cd.ProbMeasure:
    """Stay with probability 1 - p, else step +1 (or +-1 when
    ``symmetric``) in one coordinate, every move equally likely."""
    group = cd.cyclic_group(shape[0])
    for n in shape[1:]:
        group = cd.product_group(group, cd.cyclic_group(n))
    strides = [int(np.prod(shape[i + 1:])) for i in range(len(shape))]
    moves = [s for s, n in zip(strides, shape) for s in ((s, s * (n - 1)) if symmetric else (s,))]
    weights = [F(0)] * group.order
    weights[0] = 1 - p
    for move in moves:
        weights[move] += p / len(moves)
    return cd.ProbMeasure(group, tuple(weights))


# The comparison rule, stated before running: ``iterations`` equals the
# Fourier answer k except where D(k) or D(k - 1) lies within a relative
# FFT_BAND of tol.  On this grid of 336 walks no case fell in that band.
FFT_BAND = 1e-6
FFT_WALKS = [
    (shape, p, symmetric, tol)
    for shape in [(3,), (5,), (8,), (12,), (17,), (24,), (31,), (50,), (2, 3), (3, 4), (4, 6), (5, 5), (6, 10), (7, 7)]
    for p in (F(1, 2), F(1, 5), F(1, 20), F(1, 100))
    for symmetric in (False, True)
    for tol in (1e-12, 1e-9, 1e-6)
]
# power_convergence tests max|B^(k+1) - B^k| < tol on float matrices whose
# entries are near 1/12, so near tol = 1e-12 the difference of two such
# entries carries a rounding error of order 2^-53 / 12 = 1e-17, 1e-5 of
# tol: more than FFT_BAND.
FFT_OFF_BY_ONE = pytest.mark.xfail(
    strict=True,
    reason="power_convergence returns 86; exactly, D(85) = (1 - 8.6e-6) tol, so the answer is 85",
)


def _fft_walk_id(walk) -> str:
    shape, p, symmetric, tol = walk
    return f"Z{'xZ'.join(map(str, shape))}-p{p}-{'sym' if symmetric else 'up'}-tol{tol:g}"


@pytest.mark.parametrize(
    "shape, p, symmetric, tol",
    [pytest.param(*w, marks=FFT_OFF_BY_ONE) if w == ((3, 4), F(1, 2), True, 1e-12) else w for w in FFT_WALKS],
    ids=map(_fft_walk_id, FFT_WALKS),
)
def test_power_convergence_matches_fft_reference(shape, p, symmetric, tol):
    nu = lazy_walk(shape, p, symmetric)
    result = cd.power_convergence(cd.transition_matrix(nu.to_float()), tol=tol)
    k, distance = fft_power_convergence([float(w) for w in nu.weights], shape, tol)
    boundary = any(abs(distance(j) / tol - 1) <= FFT_BAND for j in (k, k - 1) if j >= 1)
    assert result.converged and (result.iterations == k or boundary), (result.iterations, k)


def test_fft_reference_matches_exact_arithmetic_on_the_off_by_one_walk():
    # D(k) in exact arithmetic on the walk of FFT_OFF_BY_ONE: its answer is 85
    nu = lazy_walk((3, 4), F(1, 2), True)
    powers = [nu]
    for _ in range(86):
        powers.append(cd.convolve(powers[-1], nu))  # powers[j] = nu^(j+1)
    exact = {k: max(map(abs, map(F.__sub__, powers[k].weights, powers[k - 1].weights))) for k in (84, 85, 86)}
    tol = F(1e-12)
    assert exact[85] < tol <= exact[84] and abs(exact[85] / tol - 1) > FFT_BAND
    k, distance = fft_power_convergence([float(w) for w in nu.weights], (3, 4), 1e-12)
    assert k == 85 and all(abs(distance(j) / float(exact[j]) - 1) < 1e-9 for j in (84, 85, 86))


def test_fft_reference_beyond_the_default_max_iter():
    # lazy walk on Z_50 with p = 1/1000: k = 1,958,536 > DEFAULT_MAX_ITER = 2^20
    nu = lazy_walk((50,), F(1, 1000), False)
    k, _ = fft_power_convergence([float(w) for w in nu.weights], (50,), 1e-12)
    a = cd.transition_matrix(nu.to_float())
    assert k == 1_958_536 > DEFAULT_MAX_ITER
    assert cd.power_convergence(a, max_iter=2**21).iterations == k
    with pytest.raises(ConvergenceError):
        cd.power_convergence(a)


@pytest.mark.parametrize("tol", [1e-12, 0.6, 1.0, 2.0, 1e300])
def test_power_convergence_reports_period_at_every_finite_tol(z4, tol):
    # successive powers sit on alternating cosets of {0, 2} and differ by 1/2:
    # a tol above that must not pass for convergence
    nu = cd.ProbMeasure(z4, (0.0, 0.5, 0.0, 0.5))
    result = cd.power_convergence(cd.transition_matrix(nu), tol=tol)
    assert (result.converged, result.period, result.matrix) == (False, 2, None)


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": float("nan")}, {"tol": float("inf")}, {"max_iter": 0}, {"max_iter": -3}],
    ids=["nan-tol", "inf-tol", "zero", "negative"],
)
def test_power_convergence_rejects_bad_arguments_before_iterating(nu_z3, kwargs):
    with pytest.raises(DomainError):
        cd.power_convergence(cd.transition_matrix(nu_z3), **kwargs)


def restricted_to_subgroup(nu: cd.ProbMeasure) -> tuple[cd.ProbMeasure, tuple[int, ...]]:
    """nu as a measure on H = <supp nu> made a group of its own from H's
    Cayley table, with H's members in the order of the new indices."""
    g = nu.group
    members = cd.generated_subgroup(g, nu.support()).members
    position = {h: r for r, h in enumerate(members)}
    sub = cd.group_from_table([[position[g.cayley[a][b]] for b in members] for a in members])
    return cd.ProbMeasure(sub, tuple(nu.weights[h] for h in members)), members


def test_power_convergence_on_g_equals_power_convergence_on_h():
    # A is block-diagonal over the cosets of H with every block equal to
    # the matrix of nu on H, so the search on G and on H alone agree
    rng = random.Random(83)
    groups = (
        cd.symmetric_group(4), cd.symmetric_group(5), cd.dihedral_group(6), cd.cyclic_group(12),
        cd.product_group(cd.cyclic_group(4), cd.cyclic_group(6)),
    )
    periods = set()
    for group in groups:
        cases = 0
        while cases < 15:
            support = rng.sample(range(group.order), rng.randint(1, 3))
            if cd.generated_subgroup(group, support).order == group.order:
                continue
            cases += 1
            nu = random_exact_measure(rng, group, support=support)
            nu_h, members = restricted_to_subgroup(nu)
            on_g, on_h = cd.power_convergence(cd.transition_matrix(nu)), cd.power_convergence(cd.transition_matrix(nu_h))
            assert (on_g.converged, on_g.iterations, on_g.period) == (on_h.converged, on_h.iterations, on_h.period)
            if on_g.converged:
                on_g_h = np.array(on_g.matrix)[np.ix_(members, members)]
                assert np.max(np.abs(on_g_h - np.array(on_h.matrix))) < 1e-12
            periods.add(on_g.period or 1)
    assert periods > {1, 2}  # converging cases, period 2 and longer periods all occur


def test_weights_at_or_below_the_support_tolerance_are_outside_h(z4):
    # 1e-15 <= FLOAT_SUPPORT_TOL: the identity is not in the support, so
    # the +-1 walk keeps period 2 and its pattern is not primitive
    so = cd.support_orbit(cd.ProbMeasure(z4, (1e-15, 0.5, 0.0, 0.5)))
    assert (so.acyclic, so.witness) == (False, None)
    # H = {0, 2}: the residue on 1 is not in A's powers, whose entries
    # between the cosets {0, 2} and {1, 3} are exactly 0
    nu = cd.ProbMeasure(z4, (0.5, 1e-15, 0.5 - 1e-15, 0.0))
    result = cd.power_convergence(cd.transition_matrix(nu))
    assert result.converged and result.iterations == 1
    assert all(result.matrix[i][j] == 0.0 for i in range(4) for j in range(4) if (i - j) % 2)


def test_power_convergence_order6_checkerboard(g6):
    nu = nu_g6(g6, F(1, 2))
    result = cd.power_convergence(cd.transition_matrix(nu))
    assert result.converged
    b = cd.transition_matrix(cd.limit_of_powers(nu)).entries
    for i in range(6):
        for j in range(6):
            assert abs(result.matrix[i][j] - float(b[i][j])) < 1e-11


def test_limit_of_powers_matrix_order6(g6):
    nu = nu_g6(g6, F(1, 2))
    b = cd.transition_matrix(cd.limit_of_powers(nu)).entries
    third = F(1, 3)
    expected = tuple(
        tuple(third if (i + j) % 2 == 0 else F(0) for j in range(6)) for i in range(6)
    )
    assert b == expected


def test_limit_of_powers_matrix_z3(nu_z3):
    b = cd.transition_matrix(cd.limit_of_powers(nu_z3)).entries
    assert all(x == F(1, 3) for row in b for x in row)


def test_limit_matrix_of_identity_point_mass(s3):
    delta = cd.ProbMeasure.point_mass(s3, s3.identity)
    b = cd.transition_matrix(cd.limit_of_powers(delta)).entries
    for i in range(6):
        for j in range(6):
            assert b[i][j] == (1 if i == j else 0)


def test_limit_matrix_is_idempotent_and_doubly_stochastic(small_pool):
    rng = random.Random(47)
    for group in small_pool:
        nu = random_exact_measure(rng, group)
        if not cd.is_acyclic(nu):
            continue
        b = cd.transition_matrix(cd.limit_of_powers(nu)).entries
        assert cd.matrix_multiply(b, b) == b
        for row in b:
            assert sum(row) == 1
        for col in zip(*b):
            assert sum(col) == 1


def test_verify_block_structure_order6(g6):
    nu = nu_g6(g6, F(1, 2))
    report = cd.verify_block_structure(nu)
    assert report.ok
    assert report.decomposition.blocks == ((0, 2, 4), (1, 3, 5))
    k = len(report.diagonal_block)
    assert k == 3
    # the diagonal block is the restriction to H
    members = report.decomposition.subgroup.members
    for r in range(k):
        for c in range(k):
            hi = report.decomposition.relabeling[r]
            hj = report.decomposition.relabeling[c]
            assert report.diagonal_block[r][c] == nu.weights[g6.cayley[g6.inverses[hi]][hj]]
    assert set(members) == {g6.index_of("e"), g6.index_of("b"), g6.index_of("b2")}


def test_verify_block_structure_full_support(s3):
    rng = random.Random(53)
    nu = random_exact_measure(rng, s3, support=range(6))
    report = cd.verify_block_structure(nu)
    assert report.ok
    assert len(report.decomposition.blocks) == 1


def test_verify_block_structure_z4_even_support(z4):
    nu = cd.ProbMeasure(z4, (F(1, 3), F(0), F(2, 3), F(0)))
    report = cd.verify_block_structure(nu)
    assert report.ok
    assert report.decomposition.blocks == ((0, 2), (1, 3))


def test_primitivity_examples(g6, z4):
    nu = nu_g6(g6, F(1, 2))
    so = cd.support_orbit(nu)
    assert so.acyclic and so.witness <= 5
    parity = cd.support_orbit(cd.ProbMeasure.point_mass(z4, 2))
    assert (parity.acyclic, parity.witness) == (False, None)
    full = cd.support_orbit(cd.ProbMeasure.uniform(z4, {0, 2}))
    assert (full.acyclic, full.witness) == (True, 1)


def kawada_ito_subgroup(nu: cd.ProbMeasure) -> frozenset[int]:
    """N0, the normal closure in H = <supp> of {s t^-1 : s, t in supp}.

    The subgroup generated by the quotients is closed under conjugation by
    the support elements until it is stable; a finite subgroup stable
    under conjugation by each generator of H is normal in H.
    """
    g, supp = nu.group, nu.support()
    mul, inv = g.cayley, g.inverses
    gens = {mul[s][inv[t]] for s in supp for t in supp}
    while True:
        members = cd.generated_subgroup(g, gens).member_set()
        conjugates = {mul[mul[s][x]][inv[s]] for s in supp for x in members}
        if conjugates <= members:
            return members
        gens = members | conjugates


def test_primitivity_matches_linear_search():
    groups = [cd.cyclic_group(n) for n in range(1, 25)] + [cd.dihedral_group(n) for n in range(2, 11)]
    groups += [cd.symmetric_group(3), cd.symmetric_group(4), cd.product_group(cd.cyclic_group(2), cd.cyclic_group(6))]
    rng = random.Random(79)
    sampled = [
        cd.ProbMeasure.uniform(group, rng.sample(range(group.order), rng.randint(1, min(5, group.order))))
        for group in groups
        for _ in range(20)
    ]
    exponents, non_primitive = set(), 0
    for nu in sampled:  # c07 checks every small support
        expected = linear_primitivity(nu)
        so = cd.support_orbit(nu)
        assert (so.acyclic, so.witness) == expected, (nu.group.labels, nu.support())
        exponents.add(expected[1])
        non_primitive += not expected[0]
    assert non_primitive > 100
    assert max(e for e in exponents if e) > 8  # answers past the first squarings


def test_primitivity_rejects_period_two_walk_on_z120():
    # the support orbit alternates between the odd and the even residues,
    # so no power of the pattern on H = Z_120 is positive
    z120 = cd.cyclic_group(120)
    so = cd.support_orbit(cd.ProbMeasure.uniform(z120, {1, 119}))
    assert (so.acyclic, so.witness) == (False, None)


def test_primitivity_iff_acyclic_small_random(small_pool):
    rng = random.Random(59)
    for group in small_pool:
        for _ in range(8):
            nu = random_exact_measure(rng, group)
            assert cd.is_acyclic(nu) == linear_primitivity(nu)[0]


def test_support_orbit_cycles_through_the_cosets_of_the_kawada_ito_subgroup():
    rng = random.Random(89)
    groups = (
        cd.dihedral_group(6), cd.symmetric_group(4), cd.cyclic_group(12),
        cd.product_group(cd.cyclic_group(2), cd.symmetric_group(3)),
    )
    sampled = [
        cd.ProbMeasure.uniform(group, rng.sample(range(group.order), rng.randint(1, 4)))
        for group in groups
        for _ in range(150)
    ]
    checked = non_acyclic = 0
    for nu in itertools.chain(exhaustive_small_supports(), sampled):
        n0, so = kawada_ito_subgroup(nu), cd.support_orbit(nu)
        assert so.subgroup.order == so.period * len(n0)
        if not so.acyclic:
            # the subgroup that accumulation_points certifies
            assert so.cycle_sets[-(so.pre_period + 1) % so.period] == n0
            non_acyclic += 1
        for cycle_set in so.cycle_sets:
            x = min(cycle_set)
            assert cycle_set == {nu.group.cayley[x][n] for n in n0}
        checked += 1
    assert checked == 1246 and non_acyclic > 300


def test_relabeling_invariance_of_convolution(s3):
    rng = random.Random(61)
    for _ in range(10):
        order = list(range(s3.order))
        rng.shuffle(order)
        relabeled = cd.relabel_group(s3, order)
        position = {old: new for new, old in enumerate(order)}
        mu = random_exact_measure(rng, s3)
        nu = random_exact_measure(rng, s3)
        mu_r = cd.ProbMeasure(relabeled, tuple(mu.weights[order[i]] for i in range(6)))
        nu_r = cd.ProbMeasure(relabeled, tuple(nu.weights[order[i]] for i in range(6)))
        conv = cd.convolve(mu, nu)
        conv_r = cd.convolve(mu_r, nu_r)
        # map the relabeled result back
        mapped_back = tuple(conv_r.weights[position[i]] for i in range(6))
        assert mapped_back == conv.weights


def test_verify_block_structure_holds_for_non_acyclic(z4):
    report = cd.verify_block_structure(cd.ProbMeasure.point_mass(z4, 2))
    assert report.ok
    assert report.decomposition.blocks == ((0, 2), (1, 3))
    assert report.diagonal_block == ((F(0), F(1)), (F(1), F(0)))
