"""The dynamical system T(mu) = convolve(mu, nu) for a fixed driving measure.

One orientation is used consistently: T acts by right convolution, i.e.
row-vector multiplication by the transition matrix of nu.

For acyclic nu the orbit of every mu converges; the limit is mu times the
closed-form limit matrix, its fixed points are exactly the solutions of
the Choquet-Deny equation convolve(mu, nu) = mu, and the basin of each
reachable limit is a coset-block-sum constraint system intersected with
the simplex.

Each result is read off H = <supp nu>, its left cosets and the support
powers, and certified by exact checks; no float iteration is involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import scalars
from .errors import (
    DomainError,
    GroupMismatchError,
    ModeMismatchError,
    VerificationError,
)
from .groups import CosetDecomposition, coset_decomposition, generated_subgroup, is_subgroup
from .measures import (
    FLOAT_SUPPORT_TOL,
    ProbMeasure,
    _acyclic_orbit,
    _require_same_group,
    convolve,
    l1_distance,
    support_orbit,
)
from .scalars import EXACT, Scalar


def apply_step(nu: ProbMeasure, mu: ProbMeasure) -> ProbMeasure:
    """One step of the dynamics: convolve(mu, nu), linear in mu."""
    return convolve(mu, nu)


def orbit(nu: ProbMeasure, mu: ProbMeasure, steps: int) -> list[ProbMeasure]:
    """[mu, T(mu), ..., T^steps(mu)]."""
    if steps < 0:
        raise DomainError("steps must be >= 0")
    _require_same_group(nu, mu)
    out = [mu]
    for _ in range(steps):
        out.append(apply_step(nu, out[-1]))
    return out


def _uniform_in_mode(nu: ProbMeasure, members) -> ProbMeasure:
    """The uniform measure on ``members``, its weights built directly in
    nu's mode: ``ProbMeasure.uniform(nu.group, members).in_mode(nu.mode)``."""
    members = frozenset(members)
    w = scalars.coerce(Fraction(1, len(members)), nu.mode)
    zero = scalars.coerce(0, nu.mode)
    return ProbMeasure(nu.group, tuple(w if i in members else zero for i in range(nu.group.order)))


def limit_of_powers(nu: ProbMeasure) -> ProbMeasure:
    """Limit of the convolution powers of an acyclic measure: uniform on
    the subgroup generated by the support."""
    so = _acyclic_orbit(
        nu, "powers of a non-acyclic measure do not converge; use accumulation_points instead"
    )
    return _uniform_in_mode(nu, so.subgroup.members)


class OmegaLimitReport(NamedTuple):
    """Accumulation points of an orbit.

    Acyclic driving measure: a single point and period 1.  Otherwise one
    point per support-power cycle set, in cycle order, and ``periodic``
    is set.  ``verified`` records that the points were certified exactly
    (see :func:`accumulation_points`); a failed certificate raises instead.
    """

    driving: ProbMeasure
    initial: ProbMeasure
    points: tuple[ProbMeasure, ...]
    periodic: bool
    period: int
    verified: bool


def omega_limit(nu: ProbMeasure, mu: ProbMeasure) -> OmegaLimitReport:
    """The single accumulation point of the orbit of mu under an acyclic nu.

    Equals mu times the closed-form limit matrix; on each left coset gH
    the limit spreads mu's block mass uniformly.
    """
    _require_same_group(nu, mu)
    point = convolve(mu, limit_of_powers(nu))
    return OmegaLimitReport(
        driving=nu, initial=mu, points=(point,), periodic=False, period=1, verified=True
    )


def accumulation_points(nu: ProbMeasure) -> OmegaLimitReport:
    """All accumulation points of the power sequence nu, nu^2, nu^3, ...

    Acyclic case: the single uniform limit.  Otherwise, after t =
    pre_period transient sets, the support powers cycle through d sets
    K_j = S^(t+1+j), and nu^(t+1+j+md) tends to U_{K_j} as m grows.

    Certified exactly: N = S^e (e >= t+1, e = 0 mod d) is checked to be a
    subgroup and each K_j to be the coset xN with x = min(K_j).  Then nu^e
    has full support on N, so (nu^e)^q tends to U_N; each nu^(t+1+j+rd)
    lives on xN, and any measure on xN convolved with U_N is U_{xN}.  A
    failed check raises :class:`VerificationError`.
    """
    so = support_orbit(nu)
    if so.acyclic:
        point = _uniform_in_mode(nu, so.subgroup.members)
        return OmegaLimitReport(
            driving=nu, initial=nu, points=(point,), periodic=False, period=1, verified=True
        )
    g = nu.group
    d = so.period
    n_set = so.cycle_sets[(-(so.pre_period + 1)) % d]
    if not is_subgroup(g, n_set):  # a * b^-1 in N for all a, b: the identity is in N
        raise VerificationError("the support powers of exponent 0 mod d are not a subgroup")
    for j, ks in enumerate(so.cycle_sets):
        x = min(ks)
        if ks != frozenset(g.cayley[x][m] for m in n_set):
            raise VerificationError(f"cycle set {j} is not a left coset of that subgroup")
    claims = tuple(_uniform_in_mode(nu, ks) for ks in so.cycle_sets)
    return OmegaLimitReport(
        driving=nu, initial=nu, points=claims, periodic=True, period=d, verified=True
    )


class FixedPointSet(NamedTuple):
    """Solutions of the Choquet-Deny equation convolve(mu, nu) = mu.

    The solution set is the convex hull of the uniform measures on the
    left cosets of H; ``dimension`` is its affine dimension, one less
    than the number of cosets.
    """

    driving: ProbMeasure
    basis: tuple[ProbMeasure, ...]
    dimension: int
    decomposition: CosetDecomposition


def fixed_points(nu: ProbMeasure) -> FixedPointSet:
    """Fixed measures of the dynamics, exactly.

    Each basis element, the uniform measure on a left coset of H, is
    checked fixed by direct convolution.  The dimension is the number of
    cosets less one without a solve: the transition matrix A is
    block-diagonal over the left cosets of H, each block the walk on H
    with steps in supp nu.  That walk is irreducible because supp nu
    generates H (the breadth-first search in ``generated_subgroup`` is
    the connectivity certificate), so by Perron-Frobenius each block
    fixes exactly one direction.
    """
    if nu.mode != EXACT:
        raise ModeMismatchError("fixed_points requires an exact measure")
    g = nu.group
    dec = coset_decomposition(g, generated_subgroup(g, nu.support()))
    basis = tuple(ProbMeasure.uniform(g, block) for block in dec.blocks)
    for b in basis:
        if convolve(b, nu).weights != b.weights:
            raise VerificationError("uniform coset measure is unexpectedly not fixed")
    return FixedPointSet(nu, basis, len(dec.blocks) - 1, dec)


def is_recurrent(nu: ProbMeasure, mu: ProbMeasure) -> bool:
    """True when mu is an accumulation point of its own orbit, which for
    acyclic nu happens exactly when mu solves the Choquet-Deny equation of
    the limit measure: convolve(mu, limit_of_powers(nu)) = mu."""
    _require_same_group(nu, mu)
    image = convolve(mu, limit_of_powers(nu))
    return scalars.equal(l1_distance(image, mu), 0)


class BasinDescription(NamedTuple):
    """The basin of attraction of a limit measure eta.

    A measure converges to eta exactly when its mass on each left coset
    block equals ``required_sums`` for that block; the basin is that
    affine constraint system (dimension n - l) intersected with the
    simplex.  ``feasible`` is False when eta is not constant on each
    coset, in which case its basin is empty and ``witness_block`` names
    an offending coset.
    """

    target: ProbMeasure
    decomposition: CosetDecomposition
    required_sums: tuple[Scalar, ...] | None
    dimension: int
    feasible: bool
    witness_block: int | None = None

    def contains(self, mu: ProbMeasure) -> bool:
        if not self.feasible:
            return False
        if mu.group != self.target.group:
            raise GroupMismatchError("candidate lives on a different group")
        return all(map(scalars.equal, _block_sums(mu, self.decomposition), self.required_sums))


def _block_sums(mu: ProbMeasure, dec: CosetDecomposition):
    """mu's mass on each left coset block of ``dec``, in block order,
    summed one block at a time as the caller reads them."""
    return (sum(mu.weights[i] for i in block) for block in dec.blocks)


def basin(nu: ProbMeasure, eta: ProbMeasure) -> BasinDescription:
    """Describe the basin of eta under an acyclic driving measure."""
    _require_same_group(nu, eta)
    so = _acyclic_orbit(nu, "basins are defined for acyclic driving measures")
    dec = coset_decomposition(nu.group, so.subgroup)
    n = nu.group.order
    l = len(dec.blocks)
    dimension = n - l
    required: list[Scalar] = []
    for m, block in enumerate(dec.blocks):
        values = [eta.weights[i] for i in block]
        if not scalars.equal(max(values), min(values)):
            return BasinDescription(eta, dec, None, dimension, False, witness_block=m)
        required.append(sum(values))
    total = sum(required)
    if not scalars.equal(total, 1):
        raise VerificationError(f"block sums add to {total}, expected 1")
    return BasinDescription(eta, dec, tuple(required), dimension, True)


def same_omega_limit(nu: ProbMeasure, mu1: ProbMeasure, mu2: ProbMeasure) -> bool:
    """Two orbits share their limit iff the initial measures agree blockwise
    on every left coset of H."""
    _require_same_group(nu, mu1)
    _require_same_group(nu, mu2)
    so = _acyclic_orbit(nu, "omega limits compare only for acyclic driving measures")
    dec = coset_decomposition(nu.group, so.subgroup)
    return all(map(scalars.equal, _block_sums(mu1, dec), _block_sums(mu2, dec)))


def acyclic_perturbation(nu: ProbMeasure, eps: Scalar) -> ProbMeasure:
    """An acyclic measure within l1 distance eps of nu.

    Spreads a small amount of mass from the support onto the rest of
    H = <supp(nu)>: with a the smallest weight on the support and
    ebar = min(eps, a)/2, each missing element of H gains
    ebar/(|H| - |supp|) and each support element loses ebar/|supp|.
    The result has support exactly H (hence is acyclic) and distance
    2*ebar <= eps, with equality when eps <= a.  Elements outside H keep
    weight zero; a full-support-on-H measure is returned unchanged.  In
    float mode the support counts only weights above FLOAT_SUPPORT_TOL;
    an eps too small for every weight on H to clear it raises
    DomainError rather than return a measure that is not acyclic.
    """
    if not eps > 0:  # also rejects NaN
        raise DomainError("eps must be positive")
    so = support_orbit(nu)
    supp = so.sets[0]
    h_members = so.subgroup.member_set()
    if supp == h_members:
        return nu
    a = min(nu.weights[i] for i in supp)
    ebar = scalars.coerce(min(eps, a), nu.mode) / 2  # an infinite eps is no bound
    gain = ebar / (len(h_members) - len(supp))
    loss = ebar / len(supp)
    weights = []
    for i, w in enumerate(nu.weights):
        if i in supp:
            weights.append(w - loss)
        elif i in h_members:
            weights.append(w + gain)
        else:
            weights.append(w)
    # ProbMeasure validation fails loudly if this ever left the simplex
    result = ProbMeasure(nu.group, tuple(weights))
    if result.support() != h_members:  # only float weights can fall short
        raise DomainError(
            f"eps = {eps} moves too little mass: some float weight on H = <supp nu> "
            f"stays at or below FLOAT_SUPPORT_TOL = {FLOAT_SUPPORT_TOL}"
        )
    return result


class GenericityReport(NamedTuple):
    """Whether nu has full support, and if so whether the generic picture
    holds: H = G, acyclicity, a unique fixed point (uniform on G), and
    every orbit limit uniform."""

    measure: ProbMeasure
    full_support: bool
    generates_group: bool | None = None
    acyclic: bool | None = None
    unique_fixed_point_uniform: bool | None = None
    omega_limits_uniform: bool | None = None

    @property
    def generic(self) -> bool:
        return bool(
            self.full_support
            and self.generates_group
            and self.acyclic
            and self.unique_fixed_point_uniform
            and self.omega_limits_uniform
        )


def generic_check(nu: ProbMeasure) -> GenericityReport:
    """Check membership in the open dense set of fully supported measures
    and, for members, verify the generic limit behavior.

    Every reported quantity depends on supp nu alone, so for a member it
    is computed exactly, in either mode, from the uniform measure on that
    support, which is the uniform measure on G.  Every orbit limit is
    mu * L for the limit of powers L, so all of them are uniform exactly
    when L = U_G: then mu * U_G = U_G for every mu, and otherwise the
    orbit of the point mass at the identity ends at L itself.
    """
    g = nu.group
    if len(nu.support()) != g.order:
        return GenericityReport(nu, False)
    uniform = ProbMeasure.uniform(g)
    so = support_orbit(uniform)
    fps = fixed_points(uniform)
    limit = limit_of_powers(uniform)  # uniform is fully supported, so acyclic
    return GenericityReport(
        nu,
        True,
        generates_group=so.subgroup.order == g.order,
        acyclic=so.acyclic,
        unique_fixed_point_uniform=len(fps.basis) == 1 and fps.basis[0].weights == uniform.weights,
        omega_limits_uniform=limit.weights == uniform.weights,
    )
