"""The matrix form of convolution and its powers.

For a measure nu the transition matrix A has entries

    A[i][j] = nu(g_i^{-1} * g_j)

which is doubly stochastic by construction, and right multiplication by A
is convolution with nu: ``convolve(mu, nu) == mu . A``.  Convolution
powers of nu are therefore rows of powers of A, and the limit of A^m for
an acyclic nu has the closed form: 1/|H| on pairs whose quotient lies in
H, 0 elsewhere, where H is the subgroup generated by the support.  That
is the matrix of the limit measure,
``transition_matrix(limit_of_powers(nu))``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import scalars
from .errors import BudgetError, ConvergenceError, DomainError
from .groups import CosetDecomposition, FiniteGroup, coset_decomposition, generated_subgroup
from .measures import ProbMeasure, support_orbit
from .scalars import EXACT, Scalar

if TYPE_CHECKING:  # numpy is imported only by the float paths that use it
    import numpy as np

DEFAULT_BIT_LIMIT = 8_000_000  # ~1 MB of numerator/denominator data per matrix
DEFAULT_MAX_ITER = 2**20
DEFAULT_POWER_TOL = 1e-12  # the default tol of power_convergence and of `power --iterative`


class TransitionMatrix(NamedTuple):
    """The doubly stochastic matrix representing convolution by ``source``."""

    group: FiniteGroup
    source: ProbMeasure
    entries: tuple[tuple[Scalar, ...], ...]

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def mode(self) -> str:
        return self.source.mode

    def as_float_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)


def _matrix_of(g: FiniteGroup, weights) -> tuple[tuple, ...]:
    """The n x n matrix with entry (i, j) = weights[index of g_i^{-1} g_j],
    read row by row off the Cayley table.  It needs no numpy, so the exact
    verbs that print A run without it."""
    return tuple(tuple(map(weights.__getitem__, g.cayley[x])) for x in g.inverses)


def _block_indices(g: FiniteGroup, members) -> np.ndarray:
    """The |H| x |H| uint16 array whose entry (r, c) is the index of
    h_r^{-1} h_c, for H given by its sorted ``members``."""
    import numpy as np

    cols = np.array(members, dtype=np.intp)
    block = np.empty((len(members), len(members)), dtype=np.uint16)
    for r, h in enumerate(members):
        block[r] = np.frombuffer(g.cayley[g.inverses[h]], dtype=np.uint16)[cols]
    return block


def transition_matrix(m: ProbMeasure) -> TransitionMatrix:
    return TransitionMatrix(m.group, m, _matrix_of(m.group, m.weights))


def _check_bits(entries, mode: str) -> None:
    """Raise :class:`BudgetError` when an exact matrix holds more than
    DEFAULT_BIT_LIMIT bits of numerators and denominators."""
    if mode != EXACT:
        return
    total = 0
    for row in entries:
        for x in row:
            total += x.numerator.bit_length() + x.denominator.bit_length()
    if total > DEFAULT_BIT_LIMIT:
        raise BudgetError(f"exact matrix power exceeded the {DEFAULT_BIT_LIMIT}-bit budget")


def matrix_multiply(a, b):
    """Plain O(n^3) product of two square scalar matrices (tuples of tuples)."""
    bt = tuple(zip(*b))  # columns of b
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _power(base, mul, e: int):
    """base^e for e >= 1 under the product ``mul``, by square-and-multiply
    over the bits of e from the top, starting from ``base``: floor(log2 e)
    squarings and popcount(e) - 1 products with ``base``, none with an
    identity.  For e = 2^j it is j squarings of ``base``."""
    power = base
    for bit in bin(e)[3:]:  # the bits of e below its leading one
        power = mul(power, power)
        if bit == "1":
            power = mul(power, base)
    return power


def matrix_power(a: TransitionMatrix, m: int):
    """A^m by ``_power``; A^0 is the identity and A^1 is A itself.

    Exact powers can grow; the DEFAULT_BIT_LIMIT budget (~1 MB per
    matrix), checked on every product, aborts pathological blowup with a
    clear error instead of stalling.
    """
    if m < 0:
        raise DomainError(f"exponent must be >= 0, got {m}")
    if m == 0:
        one, zero = scalars.coerce(1, a.mode), scalars.coerce(0, a.mode)
        return tuple(tuple(one if i == j else zero for j in range(a.order)) for i in range(a.order))

    def mul(x, y):
        product = matrix_multiply(x, y)
        _check_bits(product, a.mode)
        return product

    return _power(a.entries, mul, m)


def measure_times_matrix(m: ProbMeasure, entries) -> ProbMeasure:
    """Row vector times matrix, returned as a measure on the same group."""
    n = m.group.order
    acc = [sum(m.weights[i] * entries[i][k] for i in range(n)) for k in range(n)]
    return ProbMeasure(m.group, tuple(acc))


def convolution_power(m: ProbMeasure, n: int) -> ProbMeasure:
    """The n-fold convolution power; n = 0 gives the point mass at the identity."""
    if n < 0:
        raise DomainError(f"power must be >= 0, got {n}")
    if n == 0:
        return ProbMeasure.point_mass(m.group, m.group.identity).in_mode(m.mode)
    if n == 1:
        return m
    a = transition_matrix(m)
    return measure_times_matrix(m, matrix_power(a, n - 1))


class PowerIterationResult(NamedTuple):
    """Outcome of float power iteration on a transition matrix.

    Either the powers stabilised (``converged`` with the limit matrix) or
    they settled into oscillation with the reported period (``converged``
    False, ``period`` set).  ``iterations`` is the k at which iterating A,
    A^2, A^3, ... one product per k would stop; see ``power_convergence``.
    """

    converged: bool
    matrix: tuple[tuple[float, ...], ...] | None
    iterations: int
    period: int | None = None


def _first_passing(base, mul, passes, first: int, last: int):
    """The smallest e in first..last whose power base^e passes a monotone
    test, as ``(e, base^e)``, or None when no e up to ``last`` passes.

    Powers are products under ``mul``, and ``passes`` must be monotone:
    once it holds at e it holds at every larger e.  So the first passing e
    can be searched for; ``power_convergence`` searches float blocks this
    way.  The search computes base^first (first = 1 or 2)
    and doubles e by squaring until the test passes or e reaches ``last``;
    below the passing e it builds the largest failing exponent bit by bit
    from the top, recomputing each square base^(2^j) from base by
    ``_power``.  When no power passes, it stops after at most
    log2(last) + 1 products; finding e takes at most (log2 e)^2 / 2 +
    3/2 log2 e + 2 products and 2 log2 e + 2 tests.  It holds a fixed
    number of powers whatever e is.
    """
    below, below_power = 0, None  # largest e known to fail, and base^e
    e, power = first, _power(base, mul, first)
    while not passes(power):
        if e >= last:
            return None
        below, below_power = e, power
        e, power = 2 * e, mul(power, power)
    for j in reversed(range(below.bit_length() - 1)):  # gap (below, 2 below]
        trial = mul(below_power, _power(base, mul, 1 << j))
        if not passes(trial):
            below, below_power = below + (1 << j), trial
    if below:
        e, power = below + 1, mul(below_power, base)
    return (e, power) if e <= last else None


def power_convergence(
    a: TransitionMatrix,
    tol: float = DEFAULT_POWER_TOL,
    max_iter: int | None = None,
) -> PowerIterationResult:
    """Find in floats the first k at which the powers of A settle.

    Let d be the support-power period of the driving measure.  With d = 1
    the test at k is max|A^{k+1} - A^k| < ``tol``; the first passing k is
    returned as ``iterations`` with the matrix A^{k+1}.  With d > 1 the
    powers cannot converge (successive powers live on different cosets),
    so the test at k is stable oscillation, max|A^{k+1} - A^{k+1-d}| <
    ``tol``, applied from k = d + 1; the result reports the period, and
    ``iterations`` is the first passing k plus d - 1, the k at which the
    test has passed over a full cycle.  These are the answers of iterating
    A, A^2, A^3, ... one product per k, and ``max_iter`` (default 2^20)
    bounds that k: ``ConvergenceError`` is raised when the answer exceeds it.

    The test is monotone in k.  A is row-stochastic, so each row of A M is
    a convex combination of the rows of M and max|A M| <= max|M|; with
    M = A^{k+1} - A^{k+1-d} this gives max|A^{k+2} - A^{k+2-d}| <=
    max|A^{k+1} - A^{k+1-d}|.  So ``_first_passing`` searches for the lower
    exponent e = k + 1 - d.

    The search runs on the |H| x |H| block B[r][c] = nu(h_r^{-1} h_c) of A
    on H = <supp nu>, not on A.  A is block-diagonal over the left cosets
    xH, and every diagonal block equals B (the entry for x h_r, x h_c is
    nu(h_r^{-1} h_c)), so A^m is block-diagonal with blocks B^m and
    max|A^{k+1} - A^{k+1-d}| = max|B^{k+1} - B^{k+1-d}|: the test has the
    same value on B.  Counting the products in B^d and in the tests, an
    answer k costs at most (log2 k)^2 / 2 + 4 log2 k + 2 log2 d + 6
    products of |H| x |H| matrices and holds a fixed number of them,
    whatever k is.  The returned A^{k+1} is read off the identity row of
    B^{k+1}, nu^{k+1} on H, with 0.0 outside H.  ``tol`` must be positive
    and finite and ``max_iter`` at least 1; both are checked before any
    multiplication.
    """
    import numpy as np

    if not tol > 0:  # also rejects NaN, which no distance is below
        raise DomainError("tol must be positive")
    if tol == math.inf:
        raise DomainError("tol must be finite")
    limit = DEFAULT_MAX_ITER if max_iter is None else max_iter
    if limit < 1:
        raise DomainError(f"max_iter must be >= 1, got {limit}")
    orbit = support_orbit(a.source)  # held until return: freeing it early raised peak RSS
    d = orbit.period
    first = 1 if d == 1 else 2  # smallest e the test applies to
    last = limit - 2 * d + 2  # largest e whose answer e + 2d - 2 is within max_iter
    stalled = f"no convergence or stable period within {limit} iterations (tol={tol})"
    if last < first:
        raise ConvergenceError(stalled)
    g, members = a.group, orbit.subgroup.members
    weights = np.array([float(x) for x in a.source.weights])
    block = weights[_block_indices(g, members)]
    cycle = np.linalg.matrix_power(block, d)

    def passes(power: np.ndarray) -> bool:  # power = B^e
        return bool(np.max(np.abs(power @ cycle - power)) < tol)

    found = _first_passing(block, np.matmul, passes, first, last)
    if found is None:
        raise ConvergenceError(stalled)
    e, power = found
    if d > 1:
        return PowerIterationResult(converged=False, matrix=None, iterations=e + 2 * d - 2, period=d)
    w = np.zeros(g.order)
    w[list(members)] = power[members.index(g.identity)] @ block  # nu^(k+1), 0.0 outside H
    return PowerIterationResult(converged=True, matrix=_matrix_of(g, w.tolist()), iterations=e)


class BlockStructureReport(NamedTuple):
    """Result of checking the coset block structure of a transition matrix."""

    decomposition: CosetDecomposition
    ok: bool
    violations: tuple[tuple[str, int, int], ...]  # (kind, row, col) in original indices
    diagonal_block: tuple[tuple[Scalar, ...], ...]


def verify_block_structure(m: ProbMeasure) -> BlockStructureReport:
    """Under the coset relabeling, off-diagonal coset blocks of A must be
    zero and every diagonal block must equal the restricted matrix on H.

    Each entry A[i][j] = nu(g_i^{-1} g_j) is read from the Cayley table;
    the n x n matrix is never built.
    """
    g = m.group
    w = m.weights
    nonzero = [x != 0 for x in w]
    rows = [g.cayley[x] for x in g.inverses]  # rows[i][j] is the index of g_i^{-1} g_j
    h = generated_subgroup(g, m.support())
    dec = coset_decomposition(g, h)
    sigma = dec.relabeling
    k = h.order
    l = len(dec.blocks)
    diag = tuple(tuple(w[rows[sigma[r]][sigma[c]]] for c in range(k)) for r in range(k))
    violations: list[tuple[str, int, int]] = []
    for bm in range(l):
        for bp in range(l):
            for r in range(k):
                i = sigma[bm * k + r]
                row = rows[i]
                for c in range(k):
                    j = sigma[bp * k + c]
                    if bm == bp:
                        if w[row[j]] != diag[r][c]:
                            violations.append(("diagonal-mismatch", i, j))
                    elif nonzero[row[j]]:
                        violations.append(("off-diagonal-nonzero", i, j))
    return BlockStructureReport(dec, not violations, tuple(violations), diag)

