"""Probability measures on a finite group and the convolution algebra.

A measure is an index-aligned weight vector in the simplex.  Convolution
follows the convention that the first operand's element stands on the
left of the group product:

    convolve(a, b)[k] = sum of a[i] * b[j] over all pairs with g_i*g_j = g_k

so ``convolve(mu, nu)`` equals the row vector ``mu`` times the transition
matrix of ``nu`` (see :mod:`convdyn.transition`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from . import scalars
from .errors import (
    DomainError,
    GroupMismatchError,
    InvalidMeasureError,
    ModeMismatchError,
    NotAcyclicError,
    VerificationError,
)
from .groups import FiniteGroup, GroupHom, Subgroup, _Frozen, _set, generated_subgroup
from .scalars import EXACT, FLOAT, Scalar

FLOAT_SUPPORT_TOL = 1e-14


def _require_same_group(a, b) -> None:
    if a.group != b.group:
        raise GroupMismatchError("values live on different groups")


def _require_same_mode(a, b) -> None:
    if a.mode != b.mode:
        raise ModeMismatchError(f"cannot mix {a.mode} and {b.mode} values")


class ProbMeasure(_Frozen):
    """A probability measure: weights[i] is the mass at g_i.

    Exact mode stores Fractions and requires the mass to be exactly 1;
    float mode tolerates |mass - 1| <= scalars.FLOAT_TOL.  Negative
    entries are rejected in both modes.  ``mode`` is decided once, here,
    and stays out of equality, hash and repr.
    """

    __slots__ = ("group", "weights", "mode")
    _fields = ("group", "weights")

    def __init__(self, group: FiniteGroup, weights):
        _set(self, "group", group)
        _set(self, "weights", weights)
        self.__post_init__()

    def __post_init__(self):
        ws, mode = scalars.normalize(self.weights)  # raises ModeMismatchError on mixtures
        _set(self, "weights", ws)
        _set(self, "mode", mode)
        if len(ws) != self.group.order:
            raise InvalidMeasureError(
                f"{len(ws)} weights for a group of order {self.group.order}"
            )
        for i, w in enumerate(ws):
            if w != w:  # NaN
                raise InvalidMeasureError(f"weight at index {i} is NaN")
            if w < 0:
                raise InvalidMeasureError(f"negative weight {w} at index {i}")
        total = sum(ws)
        if not scalars.equal(total, 1):
            if mode == EXACT:
                raise InvalidMeasureError(f"total mass is {total}, expected exactly 1")
            raise InvalidMeasureError(f"total mass deviates from 1 by {abs(total - 1.0):.3e}")

    @classmethod
    def point_mass(cls, group: FiniteGroup, index: int) -> "ProbMeasure":
        if not 0 <= index < group.order:
            raise DomainError(f"index {index} out of range")
        one, zero = Fraction(1), scalars.ZERO[EXACT]
        return cls(group, tuple(one if i == index else zero for i in range(group.order)))

    @classmethod
    def uniform(cls, group: FiniteGroup, indices: Iterable[int] | None = None) -> "ProbMeasure":
        """Uniform measure on a subset (default: the whole group), exact."""
        if indices is None:
            subset = frozenset(range(group.order))
        else:
            subset = frozenset(indices)
            if not subset or any(not 0 <= i < group.order for i in subset):
                raise DomainError("subset must be a nonempty set of valid indices")
        w, zero = Fraction(1, len(subset)), scalars.ZERO[EXACT]
        return cls(group, tuple(w if i in subset else zero for i in range(group.order)))

    def in_mode(self, mode: str) -> "ProbMeasure":
        """This measure with its weights coerced to ``mode``."""
        if mode == self.mode:
            return self
        return ProbMeasure(self.group, tuple(scalars.coerce(w, mode) for w in self.weights))

    def to_float(self) -> "ProbMeasure":
        return self.in_mode(FLOAT)

    def support(self) -> frozenset[int]:
        """Indices with strictly positive mass.

        Float mode counts only mass above FLOAT_SUPPORT_TOL, to separate
        true zeros from rounding residue; exact mode needs no threshold.
        """
        thr = 0 if self.mode == EXACT else FLOAT_SUPPORT_TOL
        return frozenset(i for i, w in enumerate(self.weights) if w > thr)

    def __getitem__(self, i: int) -> Scalar:
        return self.weights[i]


class TestFunction(_Frozen):
    """A real function on the group as the vector (f(g_0), ..., f(g_{n-1}))."""

    __slots__ = ("group", "values", "mode")
    _fields = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        vals, mode = scalars.normalize(values)
        if len(vals) != group.order:
            raise DomainError(f"{len(vals)} values for a group of order {group.order}")
        _set(self, "group", group)
        _set(self, "values", vals)
        _set(self, "mode", mode)

    @classmethod
    def constant(cls, group: FiniteGroup, value: Scalar = Fraction(1)) -> "TestFunction":
        return cls(group, tuple(value for _ in range(group.order)))

    @classmethod
    def indicator(cls, group: FiniteGroup, indices) -> "TestFunction":
        subset = frozenset(indices)
        one, zero = Fraction(1), scalars.ZERO[EXACT]
        return cls(group, tuple(one if i in subset else zero for i in range(group.order)))

    def to_float(self) -> "TestFunction":
        return TestFunction(self.group, tuple(float(v) for v in self.values))


def integrate(f: TestFunction, m: ProbMeasure) -> Scalar:
    """Integral of f against m: the inner product <f(G), weights>."""
    _require_same_group(f, m)
    _require_same_mode(f, m)
    return sum(v * w for v, w in zip(f.values, m.weights))


def convolve(a: ProbMeasure, b: ProbMeasure) -> ProbMeasure:
    """Convolution with a's element on the left of the group product."""
    _require_same_group(a, b)
    _require_same_mode(a, b)
    g = a.group
    acc = [scalars.coerce(0, a.mode)] * g.order
    cayley = g.cayley
    for i, ai in enumerate(a.weights):
        if not ai:
            continue
        row = cayley[i]
        for j, bj in enumerate(b.weights):
            if bj:
                acc[row[j]] += ai * bj
    return ProbMeasure(g, tuple(acc))


def bilinear_pairing(f: TestFunction, a: ProbMeasure, b: ProbMeasure) -> Scalar:
    """Integrate f against convolve(a, b) through the pairing matrix
    F[i][j] = f(g_i * g_j), without forming the convolution:

        result = sum over i, j of a[i] * F[i][j] * b[j]

    The row index belongs to the left operand, which is what makes this
    agree with ``integrate(f, convolve(a, b))`` on nonabelian groups.
    """
    _require_same_group(f, a)
    _require_same_group(a, b)
    _require_same_mode(f, a)
    _require_same_mode(a, b)
    g = a.group
    zero = scalars.coerce(0, a.mode)
    total = zero
    for i, ai in enumerate(a.weights):
        if not ai:
            continue
        row = g.cayley[i]
        inner = zero
        for j, bj in enumerate(b.weights):
            if bj:
                inner += f.values[row[j]] * bj
        total += ai * inner
    return total


def pushforward(phi: GroupHom, m: ProbMeasure) -> ProbMeasure:
    """Image measure under a homomorphism: mass at y is the mass of its preimage."""
    if m.group != phi.source:
        raise GroupMismatchError("measure does not live on the homomorphism's source")
    acc = [scalars.coerce(0, m.mode)] * phi.target.order
    for i, w in enumerate(m.weights):
        acc[phi.map[i]] += w
    return ProbMeasure(phi.target, tuple(acc))


def l1_distance(a: ProbMeasure, b: ProbMeasure) -> Scalar:
    """Sum of absolute coordinate differences (the total-variation-style metric)."""
    _require_same_group(a, b)
    _require_same_mode(a, b)
    return sum(abs(x - y) for x, y in zip(a.weights, b.weights))


def set_product(g: FiniteGroup, left: Iterable[int], right: Iterable[int]) -> frozenset[int]:
    """Elementwise product set {a*b : a in left, b in right}."""
    left = frozenset(left)
    right = frozenset(right)
    return frozenset(g.cayley[a][b] for a in left for b in right)


class SupportOrbit(NamedTuple):
    """The trajectory of support powers S, S*S, S*S*S, ... until it repeats.

    ``sets[m]`` is the set of (m+1)-fold products of support elements.
    The trajectory is eventually periodic (a deterministic map on a finite
    set of subsets): ``pre_period`` leading sets are transient, then
    ``cycle_sets`` of length ``period`` repeat forever.  The measure is
    acyclic exactly when the cycle is the single set H, the subgroup
    generated by the support; ``witness`` is then the smallest exponent N
    with S^N = H.  Entry (r, c) of the e-th power of the 0/1 pattern of
    the transition matrix on H is positive exactly when h_r^-1 h_c lies in
    S^e, so ``acyclic`` and ``witness`` are also that pattern's
    primitivity and exponent.
    """

    measure: ProbMeasure
    sets: tuple[frozenset[int], ...]
    pre_period: int
    period: int
    cycle_sets: tuple[frozenset[int], ...]
    subgroup: Subgroup
    acyclic: bool
    witness: int | None

    def set_at(self, exponent: int) -> frozenset[int]:
        """The support of the exponent-fold convolution power, exponent >= 1."""
        if exponent < 1:
            raise DomainError("exponent must be >= 1")
        m = exponent - 1
        if m < len(self.sets):
            return self.sets[m]
        return self.cycle_sets[(m - self.pre_period) % self.period]


def support_orbit(m: ProbMeasure) -> SupportOrbit:
    """Iterate S^(m+1) = S^m * S from S = supp(m) until the first repeated set.

    The trajectory has at most |H| distinct sets, H = <S>.  Sizes never
    fall, since S^k s lies in S^(k+1), and they rise strictly up to the
    first k with |S^(k+1)| = |S^k|.  Then S^(k+1) = S^k s for every s in
    S, so S^(k+2) = S * S^(k+1) = S^(k+1) s, and by induction
    S^(k+j) = S^k s^j: from k on the size stays put and the sets cycle.
    By Kawada and Ito (1940) the cycle runs through the cosets of a normal
    subgroup N of H, so the stable size is |N| and the period [H:N].  The
    k - 1 sets before S^k have distinct sizes below |N|, so the count is
    at most (|N| - 1) + |H|/|N|, which is at most |H| for 1 <= |N| <= |H|.
    A longer trajectory contradicts this and raises
    :class:`VerificationError`.
    """
    supp = m.support()
    if not supp:
        raise InvalidMeasureError("measure has empty support")
    g = m.group
    subgroup = generated_subgroup(g, supp)
    seen: dict[frozenset[int], int] = {}
    sets: list[frozenset[int]] = []
    current = supp
    while current not in seen:
        if len(sets) == subgroup.order:
            raise VerificationError(
                f"support orbit passed {subgroup.order} sets, the order of the generated subgroup"
            )
        seen[current] = len(sets)
        sets.append(current)
        current = set_product(g, current, supp)
    first = seen[current]
    pre_period = first
    period = len(sets) - first
    cycle = tuple(sets[first:])
    hset = subgroup.member_set()
    acyclic = period == 1 and cycle[0] == hset
    witness = None
    if acyclic:
        witness = next(i for i, s in enumerate(sets) if s == hset) + 1
    return SupportOrbit(
        measure=m,
        sets=tuple(sets),
        pre_period=pre_period,
        period=period,
        cycle_sets=cycle,
        subgroup=subgroup,
        acyclic=acyclic,
        witness=witness,
    )


def _acyclic_orbit(m: ProbMeasure, message: str) -> SupportOrbit:
    """The support orbit of m; raises :class:`NotAcyclicError` with
    ``message`` when m is not acyclic."""
    so = support_orbit(m)
    if not so.acyclic:
        raise NotAcyclicError(message)
    return so


def is_acyclic(m: ProbMeasure) -> bool:
    """True when some power of the support equals the whole generated subgroup
    (equivalently: the support-power trajectory has period 1)."""
    return support_orbit(m).acyclic
