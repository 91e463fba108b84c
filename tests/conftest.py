"""Shared fixtures: the worked examples and randomized-measure helpers."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import convdyn as cd


def order6_group(coset_order: bool) -> cd.FiniteGroup:
    """The abelian order-6 group generated by a (order 2) and b (order 3).

    ``coset_order=False`` lists it as {e, a, b2, ab, b, ab2};
    ``coset_order=True`` lists it as {e, b, b2, a, ab, ab2}, i.e. the
    subgroup <b> first and then its other coset.
    """
    prod = cd.product_group(cd.cyclic_group(2), cd.cyclic_group(3))
    # product index of (x, y) is 3x + y; a = (1,0), b = (0,1)
    if coset_order:
        order = [0, 1, 2, 3, 4, 5]
        labels = ["e", "b", "b2", "a", "ab", "ab2"]
    else:
        order = [0, 3, 2, 4, 1, 5]
        labels = ["e", "a", "b2", "ab", "b", "ab2"]
    return cd.relabel_group(prod, order, labels=labels)


@pytest.fixture(scope="session")
def z2():
    return cd.cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cd.cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cd.cyclic_group(4)


@pytest.fixture(scope="session")
def z6():
    return cd.cyclic_group(6)


@pytest.fixture(scope="session")
def s3():
    return cd.symmetric_group(3)


@pytest.fixture(scope="session")
def nu_z3(z3):
    return cd.ProbMeasure(z3, (Fraction(1, 3), Fraction(1, 4), Fraction(5, 12)))


@pytest.fixture(scope="session")
def g6():
    """Order-6 example group in its original element order {e,a,b2,ab,b,ab2}."""
    return order6_group(coset_order=False)


@pytest.fixture(scope="session")
def g6_coset():
    """Order-6 example group reordered as {e,b,b2,a,ab,ab2}."""
    return order6_group(coset_order=True)


def nu_g6(group: cd.FiniteGroup, alpha: Fraction) -> cd.ProbMeasure:
    """alpha at e plus (1 - alpha) at b, on either ordering of the group."""
    e = group.index_of("e")
    b = group.index_of("b")
    weights = [Fraction(0)] * 6
    weights[e] = Fraction(alpha)
    weights[b] = 1 - Fraction(alpha)
    return cd.ProbMeasure(group, tuple(weights))


def random_exact_measure(rng: random.Random, group: cd.FiniteGroup, support=None) -> cd.ProbMeasure:
    """Random rational measure; optional fixed support (index set)."""
    n = group.order
    if support is None:
        size = rng.randint(1, n)
        support = rng.sample(range(n), size)
    weights = [Fraction(0)] * n
    raw = {i: rng.randint(1, 12) for i in support}
    total = sum(raw.values())
    for i, v in raw.items():
        weights[i] = Fraction(v, total)
    return cd.ProbMeasure(group, tuple(weights))


def brute_convolve(a: cd.ProbMeasure, b: cd.ProbMeasure) -> tuple:
    """Independent oracle: enumerate all n^2 factor pairs."""
    g = a.group
    acc = [Fraction(0)] * g.order
    for i in range(g.order):
        for j in range(g.order):
            acc[g.cayley[i][j]] += Fraction(a.weights[i]) * Fraction(b.weights[j])
    return tuple(acc)


@pytest.fixture(scope="session")
def small_pool():
    """Groups used by randomized algebra tests (orders <= 8)."""
    return [
        cd.cyclic_group(2),
        cd.cyclic_group(3),
        cd.cyclic_group(4),
        cd.cyclic_group(5),
        cd.cyclic_group(6),
        cd.cyclic_group(8),
        cd.product_group(cd.cyclic_group(2), cd.cyclic_group(3)),
        cd.symmetric_group(3),
        cd.dihedral_group(4),
    ]


@pytest.fixture(scope="session")
def sweep_pool():
    """Group list for the main randomized sweeps."""
    pool = [cd.cyclic_group(n) for n in range(1, 13)]
    pool.append(cd.product_group(cd.cyclic_group(2), cd.cyclic_group(3)))
    pool.append(cd.dihedral_group(4))
    pool.append(cd.symmetric_group(3))
    pool.append(cd.symmetric_group(4))
    return pool


def linear_primitivity(nu: cd.ProbMeasure) -> tuple[bool, int | None]:
    """Matrix-side reference for the lemma that ``support_orbit``'s
    ``(acyclic, witness)`` are the primitivity and the exponent of the 0/1
    pattern of A on H = <supp>: power that pattern one product per
    exponent up to the Wielandt bound (k-1)^2 + 1 and return the first
    entrywise positive exponent."""
    import numpy as np

    g = nu.group
    supp = nu.support()
    members = cd.generated_subgroup(g, supp).members
    k = len(members)
    block = np.array(
        [[g.cayley[g.inverses[hi]][hj] in supp for hj in members] for hi in members],
        dtype=np.int64,
    )
    power = block
    for exponent in range(1, (k - 1) ** 2 + 2):
        if (power > 0).all():
            return True, exponent
        power = (power @ block > 0).astype(np.int64)
    return False, None


def exhaustive_small_supports():
    """c07's inputs: uniform measures on every support of size 1-4 in the
    groups of orders 1-8, Z_2 x Z_3, D_4 and S_3."""
    groups = [cd.cyclic_group(n) for n in range(1, 9)]
    groups += [cd.product_group(cd.cyclic_group(2), cd.cyclic_group(3)), cd.dihedral_group(4), cd.symmetric_group(3)]
    for group in groups:
        for size in range(1, min(4, group.order) + 1):
            for support in itertools.combinations(range(group.order), size):
                yield cd.ProbMeasure.uniform(group, support)
