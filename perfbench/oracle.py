"""The benchmark's own group computations, independent of convdyn's algorithms.

Everything here works on a plain Cayley table (``table[i][j]`` is the index
of g_i * g_j) and plain ``Fraction`` weight lists.  The input generator
uses it to classify the supports it draws, and the correctness gate uses
it to recompute what the library claims: subgroups, support-power cycles,
coset blocks, convolutions and closed-form limits.
"""

from __future__ import annotations

from fractions import Fraction


def identity(table) -> int:
    return next(e for e in range(len(table)) if table[e][e] == e)


def closure(table, gens) -> frozenset[int]:
    """The subgroup generated by ``gens``: products until nothing new appears."""
    members = {identity(table)}
    frontier = list(members)
    while frontier:
        nxt = []
        for m in frontier:
            row = table[m]
            for s in gens:
                p = row[s]
                if p not in members:
                    members.add(p)
                    nxt.append(p)
        frontier = nxt
    return frozenset(members)


def support_cycle(table, support) -> tuple[int, list[frozenset[int]]]:
    """(pre-period, cycle sets) of the trajectory S, S*S, S*S*S, ..."""
    support = frozenset(support)
    seen: dict[frozenset[int], int] = {}
    sets = []
    current = support
    while current not in seen:
        seen[current] = len(sets)
        sets.append(current)
        current = frozenset(table[a][b] for a in current for b in support)
    first = seen[current]
    return first, sets[first:]


def is_acyclic(table, support) -> bool:
    _, cycle = support_cycle(table, support)
    return len(cycle) == 1 and cycle[0] == closure(table, support)


def left_cosets(table, members) -> list[frozenset[int]]:
    """Left cosets gH, ordered by their smallest element."""
    n = len(table)
    seen = [False] * n
    blocks = []
    for g in range(n):
        if not seen[g]:
            block = frozenset(table[g][h] for h in members)
            for x in block:
                seen[x] = True
            blocks.append(block)
    return blocks


def uniform(n: int, members) -> list[Fraction]:
    w = Fraction(1, len(members))
    return [w if i in members else Fraction(0) for i in range(n)]


def convolve(table, a, b) -> list:
    """(a * b)[k] = sum of a[i] b[j] over g_i g_j = g_k, over nonzero entries only."""
    acc = [0 * a[0]] * len(table)
    nb = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            row = table[i]
            for j, y in nb:
                acc[row[j]] += x * y
    return acc


def power_by_chain(table, weights, exponent: int) -> list:
    """nu^exponent as exponent - 1 successive convolutions with nu."""
    out = list(weights)
    for _ in range(exponent - 1):
        out = convolve(table, out, weights)
    return out


def omega_point(table, support, mu) -> list[Fraction]:
    """mu times the limit of the powers: mu's mass on each left coset of H,
    spread uniformly over that coset."""
    h = closure(table, support)
    out = [Fraction(0)] * len(table)
    for block in left_cosets(table, h):
        share = sum(mu[i] for i in block) / len(block)
        for i in block:
            out[i] = share
    return out


def limit_matrix(table, support):
    """Closed-form limit B[i][j] = 1/|H| when g_i^-1 g_j lies in H, else 0."""
    n = len(table)
    e = identity(table)
    inv = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]
    h = closure(table, support)
    value = 1.0 / len(h)
    return [[value if table[inv[i]][j] in h else 0.0 for j in range(n)] for i in range(n)]
