"""Finite groups as dense Cayley tables with 0-based element indices.

Element order is significant throughout the package: measures are
index-aligned weight vectors, so a group fixes a canonical ordering of
its elements once and for all.  All types here are immutable.

A table row is an ``array('H')`` of unsigned 16-bit indices (orders are
capped below 2^16), written once while the group is built and never
after: 2 bytes per entry, where a tuple row takes an 8-byte slot and
points at int objects of its own above 256.  Tables are built and
checked a row at a time, so that each row costs one C-level
``itemgetter`` call rather than n Python products.  The family builders
fill the table breadth-first from the rows of a generating set (the row
of p*s is row_p read at the entries of row_s), and :func:`validate_table`
tests associativity with Light's test on a small generating set,
O(n^2 log n) for a group instead of the O(n^3) scan over all triples.
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from collections.abc import Sequence
from operator import eq, itemgetter
from typing import NamedTuple

try:  # hashlib's own blake2b; importing hashlib loads OpenSSL, about 4 ms of every CLI start
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

from .errors import DomainError, GroupMismatchError, GroupStructureError

MAX_GROUP_ORDER = 5040  # |S_7|: its n^2-entry table builds in about 1 s and 88 MB


def _row_writer(n: int):
    """A function from a row of n indices to an ``array('H')`` row.

    struct packs a row of ints into bytes several times faster than
    ``array('H', row)`` converts it, and the array takes those bytes in
    one copy.  Raises ``struct.error`` on a wrong length or an entry that
    is not an integer in 0..65535.
    """
    pack = struct.Struct(f"{n}H").pack
    return lambda row: array("H", pack(*row))


def _check_order(n: int) -> None:
    if n < 1:
        raise DomainError(f"group order must be >= 1, got {n}")
    if n > MAX_GROUP_ORDER:
        raise DomainError(f"group order {n} exceeds cap {MAX_GROUP_ORDER} (MAX_GROUP_ORDER)")


class GroupViolation(NamedTuple):
    """One violated group axiom with a concrete witness."""

    axiom: str  # "shape" | "latin-square" | "associativity" | "identity" | "inverse"
    witness: tuple[int, ...]
    detail: str

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness), "detail": self.detail}


def validate_table(cayley) -> list[GroupViolation]:
    """Check a candidate Cayley table against every group axiom.

    Returns a report of violations, each naming the axiom and a witness;
    an empty report means the table defines a group.  Never raises.  An
    associativity failure is reported at its lexicographically first
    triple (i, j, k).
    """
    if not isinstance(cayley, Sequence):
        return [GroupViolation("shape", (), f"table is {cayley!r}, not a list")]
    violations: list[GroupViolation] = []
    n = len(cayley)
    if n == 0:
        return [GroupViolation("shape", (), "table is empty")]
    for i, row in enumerate(cayley):
        if not isinstance(row, Sequence):
            violations.append(GroupViolation("shape", (i,), f"row {i} is {row!r}, not a list"))
            return violations
        if len(row) != n:
            violations.append(
                GroupViolation("shape", (i,), f"row {i} has length {len(row)}, expected {n}")
            )
            return violations
        if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
            continue
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                violations.append(
                    GroupViolation("shape", (i, j), f"entry [{i}][{j}] = {v!r} is not an index in 0..{n - 1}")
                )
                return violations
    rows = [tuple(row) for row in cayley]

    for i, row in enumerate(rows):
        if len(set(row)) != n:
            violations.append(GroupViolation("latin-square", (i,), f"row {i} repeats an element"))
    for j, col in enumerate(zip(*rows)):
        if len(set(col)) != n:
            violations.append(GroupViolation("latin-square", (j,), f"column {j} repeats an element"))

    identity = _identity_of(rows)
    if identity is None:
        violations.append(GroupViolation("identity", (), "no two-sided identity element"))
    else:
        for i, row in enumerate(rows):
            right = itertools.compress(range(n), map(identity.__eq__, row))  # j with g_i*g_j = e
            if not any(rows[j][i] == identity for j in right):
                violations.append(
                    GroupViolation("inverse", (i,), f"element {i} has no two-sided inverse")
                )

    if identity is not None and _light_associative(rows, identity):
        return violations
    # not a group, so n >= 2 and each getter returns a tuple
    read_at = [itemgetter(*row) for row in rows]  # read_at[j](row_i) is the row of g_i*g_j
    for i, row_i in enumerate(rows):
        for j, ij in enumerate(row_i):
            row_ij = rows[ij]
            composed = read_at[j](row_i)
            if row_ij != composed:
                k = next(k for k in range(n) if row_ij[k] != composed[k])
                violations.append(
                    GroupViolation(
                        "associativity",
                        (i, j, k),
                        f"(g{i}*g{j})*g{k} = g{row_ij[k]} but g{i}*(g{j}*g{k}) = g{composed[k]}",
                    )
                )
                return violations  # one associativity witness is enough
    return violations


def _identity_of(rows) -> int | None:
    """The first index whose row and column are both 0..n-1, if any; rows
    may be tuples or arrays."""
    n = len(rows)
    return next(
        (e for e, row in enumerate(rows)
         if all(map(eq, row, range(n))) and all(r[e] == i for i, r in enumerate(rows))),
        None,
    )


def _inverses(rows, identity: int) -> tuple[int, ...]:
    """The inverse table of a group: g_i^-1 is the column of the identity
    in row i.  Each row is searched as bytes, since ``array.index`` makes
    an int of every entry it passes; a match at an odd byte offset
    straddles two entries and is passed over."""
    target = array("H", [identity]).tobytes()
    out = []
    for row in rows:
        raw = row.tobytes()
        k = raw.find(target)
        while k > 0 and k % 2:
            k = raw.find(target, k + 1)
        out.append(k // 2)
    return tuple(out)


def _light_associative(rows, identity: int) -> bool:
    """Light's associativity test (Clifford & Preston, *The Algebraic
    Theory of Semigroups*, vol. 1, 1961) on a table with an identity.

    The elements a with (x*a)*y = x*(a*y) for all x, y contain the
    identity and are closed under products, so it is enough to check a
    set whose right-multiplication closure from the identity is the whole
    table.  Elements not yet reached are checked and added greedily; for
    a group each one at least doubles the closure, so at most log2(n)
    are checked, each in n row reads.
    """
    reached = [identity]
    seen = {identity}
    gens: list[int] = []
    for a in range(len(rows)):
        if a in seen:
            continue
        read_at_a = itemgetter(*rows[a])  # a is not the identity, so n >= 2: a tuple
        for row_x in rows:
            if read_at_a(row_x) != rows[row_x[a]]:  # x*(a*y) against (x*a)*y, for every y
                return False
        gens.append(a)
        for m in reached:  # grows while it is walked: the closure under the new generator set
            row_m = rows[m]
            for s in gens:
                p = row_m[s]
                if p not in seen:
                    seen.add(p)
                    reached.append(p)
    return True


_set = object.__setattr__


class _Frozen:
    """Base of the value types that check their fields on construction.

    ``__init__`` stores each of ``_fields`` (and any derived slot) once,
    through ``object.__setattr__``; assigning or deleting an attribute
    afterwards raises ``AttributeError``.  Two values are equal when they
    have the same class and equal ``_fields``, which also give the hash,
    the repr and the arguments that pickling and ``copy`` rebuild the
    value from.  A plain ``__slots__`` class, unlike a dataclass, needs no
    ``dataclasses`` import, which costs every CLI process several ms.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key()


class FiniteGroup(_Frozen):
    """A finite group: labels, dense Cayley table, identity and inverse tables.

    ``cayley`` is a tuple of n rows, each an ``array('H')`` of n indices:
    ``cayley[i][j]`` is the index of ``g_i * g_j``.  Rows given as other
    sequences of ints are stored as such arrays; array rows are stored as
    they are, so they are shared, never copied, and must not be written.
    Construct through the family builders or :func:`group_from_table`;
    those guarantee validity.

    Two groups are equal when their labels, tables, identities and
    inverse tables are: that is, when their digests are.  The digest, a
    BLAKE2b hash of all four, is taken once, here, and also serves
    ``hash``.
    """

    __slots__ = ("labels", "cayley", "identity", "inverses", "_digest")
    _fields = ("labels", "cayley", "identity", "inverses")

    def __init__(self, labels, cayley, identity: int, inverses):
        labels = tuple(str(x) for x in labels)
        inverses = tuple(inverses)
        rows = tuple(cayley)
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GroupStructureError(f"Cayley table shape does not match {n} labels")
        if not all(type(r) is array and r.typecode == "H" for r in rows):
            try:
                rows = tuple(map(_row_writer(n), rows))
            except struct.error:
                raise GroupStructureError("Cayley table entries must be integers in 0..65535") from None
        if len(set(labels)) != n:
            raise GroupStructureError("labels must be distinct")
        if len(inverses) != n or not 0 <= identity < n:
            raise GroupStructureError("identity/inverse tables do not match the order")
        digest = blake2b(repr((labels, identity, inverses)).encode())
        for row in rows:
            digest.update(row)
        _set(self, "labels", labels)
        _set(self, "cayley", rows)
        _set(self, "identity", identity)
        _set(self, "inverses", inverses)
        _set(self, "_digest", digest.digest())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._digest == other._digest

    def __hash__(self):
        return hash(self._digest)

    @property
    def order(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"no element labeled {label!r}") from None

    def __repr__(self) -> str:  # keep tables out of reprs
        return f"FiniteGroup(order={self.order}, labels={self.labels[:4]}...)"


def validate_group(g: FiniteGroup) -> list[GroupViolation]:
    """Re-check every invariant of a built group, including the stored
    identity and inverse tables."""
    violations = validate_table(g.cayley)
    if not any(v.axiom in ("shape", "identity") for v in violations):
        e, inv = g.identity, g.inverses
        if _identity_of(g.cayley) != e:  # a two-sided identity is unique
            violations.append(
                GroupViolation("identity", (e,), "stored identity index is wrong")
            )
        for i, row in enumerate(g.cayley):
            if row[inv[i]] != e or g.cayley[inv[i]][i] != e:
                violations.append(
                    GroupViolation("inverse", (i,), f"stored inverse of {i} is wrong")
                )
    return violations


def _finish(labels, rows) -> FiniteGroup:
    """Derive identity/inverses for array rows known to form a group."""
    identity = _identity_of(rows)
    return FiniteGroup(tuple(labels), tuple(rows), identity, _inverses(rows, identity))


def _table_from_generators(n: int, identity: int, gen_rows) -> list[array]:
    """Cayley table of an order-n group from the rows of a generating set.

    Breadth-first from the identity: the row of p*s is row_p read at the
    entries of row_s, since (p*s)*x = p*(s*x), and the index of p*s is
    ``row_p[s]``.  Every element is reached because the generators
    generate the group.  Until an element is expanded its row is also
    kept as a tuple of the ints of ``range(n)``: reading such a tuple
    makes no objects, where reading an array makes an int per entry.
    Only the rows between reached and expanded are held twice.
    """
    write = _row_writer(n)
    first = tuple(range(n))
    rows: list = [None] * n
    rows[identity] = write(first)
    gens = [(row_s[identity], itemgetter(*row_s)) for row_s in gen_rows]
    pending = {identity: first}
    reached = [identity]
    for p in reached:  # grows while it is walked
        row_p = pending.pop(p)
        for s, read_at_s in gens:
            ps = row_p[s]
            if rows[ps] is None:  # then ps is not the identity, so n >= 2: a tuple
                row = read_at_s(row_p)
                rows[ps] = write(row)
                pending[ps] = row
                reached.append(ps)
    return rows


def group_from_table(cayley, labels=None) -> FiniteGroup:
    """Build a group from an explicit Cayley table, validating every axiom.

    Raises :class:`GroupStructureError` naming the violated axiom and a
    witness when the table is not a group.
    """
    n = len(cayley)
    _check_order(n)
    violations = validate_table(cayley)
    if violations:
        first = violations[0]
        raise GroupStructureError(
            f"not a group: {first.axiom} violated at {first.witness}: {first.detail}",
            violations,
        )
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    if len(labels) != n:
        raise GroupStructureError(f"{len(labels)} labels for a table of order {n}")
    return _finish(labels, list(map(_row_writer(n), cayley)))


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with elements labeled '0'..'n-1' and addition mod n."""
    _check_order(n)
    cayley = _table_from_generators(n, 0, [(*range(1, n), 0)])
    return _finish([str(i) for i in range(n)], cayley)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Elements are r^k (index k) and s*r^k (index n+k) with s^2 = e,
    r^n = e and s*r*s = r^-1.
    """
    if n < 1:
        raise DomainError(f"dihedral parameter must be >= 1, got {n}")
    _check_order(2 * n)
    size = 2 * n

    def mul(a: int, b: int) -> int:
        f1, k1 = divmod(a, n)
        f2, k2 = divmod(b, n)
        f = f1 ^ f2
        k = (k2 - k1) % n if f2 else (k1 + k2) % n
        return f * n + k

    r, s = 1 % n, n
    cayley = _table_from_generators(size, 0, [tuple(mul(a, b) for b in range(size)) for a in (r, s)])
    labels = [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)]
    return _finish(labels, cayley)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; elements in lexicographic one-line order, n <= 7.

    Product is composition: (sigma * tau)(x) = sigma(tau(x)).  The
    parameter check admits n = 8, whose order 40,320 the MAX_GROUP_ORDER
    cap then refuses.
    """
    if not 1 <= n <= 8:
        raise DomainError(f"symmetric group parameter must be in 1..8, got {n}")
    _check_order(math.factorial(n))
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def row(sigma) -> tuple[int, ...]:
        return tuple(index[tuple(map(sigma.__getitem__, q))] for q in perms)

    cycle = (*range(1, n), 0)
    transposition = (1, 0, *range(2, n)) if n > 1 else (0,)
    cayley = _table_from_generators(len(perms), 0, [row(cycle), row(transposition)])
    labels = ["".join(str(x) for x in p) for p in perms]
    return _finish(labels, cayley)


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) has index a*|G2| + b and label '(la,lb)'."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    # row (a, b) at column (c, d) is (a*c, b*d), index (a*c)*|G2| + b*d
    write = _row_writer(n1 * n2)
    cayley = [write([x * n2 + y for x in row_a for y in row_b]) for row_a in g1.cayley for row_b in g2.cayley]
    labels = [f"({g1.labels[a]},{g2.labels[b]})" for a in range(n1) for b in range(n2)]
    return _finish(labels, cayley)


def relabel_group(g: FiniteGroup, order, labels=None) -> FiniteGroup:
    """Return the same group with elements listed in a new order.

    ``order[new_index] = old_index``; labels default to the old labels
    carried along.  Used to realise that results do not depend on how
    the elements are enumerated.
    """
    n = g.order
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise DomainError("relabeling must be a permutation of 0..n-1")
    position = {old: new for new, old in enumerate(order)}
    write = _row_writer(n)
    cayley = [write(map(position.__getitem__, map(g.cayley[old].__getitem__, order))) for old in order]
    if labels is None:
        labels = [g.labels[old] for old in order]
    return _finish(labels, cayley)


def element_order(g: FiniteGroup, i: int) -> int:
    """Multiplicative order of g_i."""
    if not 0 <= i < g.order:
        raise DomainError(f"element index {i} out of range 0..{g.order - 1}")
    x = i
    k = 1
    while x != g.identity:
        x = g.cayley[x][i]
        k += 1
    return k


class Subgroup(_Frozen):
    """A subgroup of ``parent`` as a sorted member tuple."""

    __slots__ = ("parent", "members", "_member_set")
    _fields = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members):
        members = tuple(sorted(members))
        _set(self, "parent", parent)
        _set(self, "members", members)
        _set(self, "_member_set", frozenset(members))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self._member_set

    def member_set(self) -> frozenset[int]:
        return self._member_set


def generated_subgroup(g: FiniteGroup, gens) -> Subgroup:
    """Smallest subgroup containing ``gens``: closure under products.

    In a finite group the closure of a nonempty set under products alone
    already contains the identity and all inverses, so a work queue over
    right-multiplication by generators terminates in at most |G| rounds.
    """
    gens = frozenset(gens)
    if not gens:
        raise DomainError("generator set must be nonempty")
    n = g.order
    for i in gens:
        if not 0 <= i < n:
            raise DomainError(f"generator index {i} out of range 0..{n - 1}")
    members = {g.identity}
    frontier = [g.identity]
    while frontier:
        nxt = []
        for m in frontier:
            for s in gens:
                p = g.cayley[m][s]
                if p not in members:
                    members.add(p)
                    nxt.append(p)
        frontier = nxt
    return Subgroup(g, tuple(members))


def is_subgroup(g: FiniteGroup, members) -> bool:
    """One-step subgroup test on an index set."""
    mset = frozenset(members)
    if not mset or any(not 0 <= i < g.order for i in mset):
        return False
    return all(g.cayley[a][g.inverses[b]] in mset for a in mset for b in mset)


class CosetDecomposition(NamedTuple):
    """Left cosets of a subgroup, with a relabeling that lists them in order.

    ``blocks[m]`` is the sorted index set ``representatives[m] * H``; the
    first representative is the identity.  ``relabeling`` is a permutation
    of 0..n-1 listing the elements block by block, and within block m as
    ``representatives[m] * h`` with h running through the sorted members
    of H.  That within-block order is what makes the diagonal blocks of a
    relabeled transition matrix literally identical.
    """

    subgroup: Subgroup
    representatives: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    relabeling: tuple[int, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.subgroup.parent


def coset_decomposition(g: FiniteGroup, h: Subgroup) -> CosetDecomposition:
    """Decompose G into left cosets of H, representatives by lowest unused index."""
    if h.parent is not g and h.parent != g:
        raise GroupMismatchError("subgroup does not belong to this group")
    if not is_subgroup(g, h.members):
        raise DomainError("member set is not a subgroup")
    n = g.order
    assigned = [False] * n
    representatives: list[int] = []
    blocks: list[tuple[int, ...]] = []
    relabeling: list[int] = []
    # identity first, then lowest unused index
    candidates = [g.identity] + [i for i in range(n) if i != g.identity]
    for rep in candidates:
        if assigned[rep]:
            continue
        ordered = [g.cayley[rep][m] for m in h.members]
        for x in ordered:
            assigned[x] = True
        representatives.append(rep)
        blocks.append(tuple(sorted(ordered)))
        relabeling.extend(ordered)
    return CosetDecomposition(h, tuple(representatives), tuple(blocks), tuple(relabeling))


class GroupHom(NamedTuple):
    """A verified homomorphism: map[i] is the image index of g_i."""

    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]


def check_homomorphism(src: FiniteGroup, tgt: FiniteGroup, mapping) -> GroupHom:
    """Verify the homomorphism property at every pair; raise with a witness
    pair (i, j) on the first failure."""
    from .errors import HomomorphismError

    mapping = tuple(mapping)
    if len(mapping) != src.order:
        raise DomainError(f"map length {len(mapping)} != |source| = {src.order}")
    for v in mapping:
        if not 0 <= v < tgt.order:
            raise DomainError(f"map value {v} out of range for target of order {tgt.order}")
    for i in range(src.order):
        for j in range(src.order):
            if mapping[src.cayley[i][j]] != tgt.cayley[mapping[i]][mapping[j]]:
                raise HomomorphismError(
                    f"not a homomorphism: fails at pair ({i}, {j})", witness=(i, j)
                )
    if mapping[src.identity] != tgt.identity:
        raise HomomorphismError("map does not send identity to identity", witness=None)
    return GroupHom(src, tgt, mapping)
