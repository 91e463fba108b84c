from __future__ import annotations

import collections
import gc
import itertools
import random
import tracemalloc
from array import array

import pytest

import convdyn as cd
from convdyn.errors import DomainError, GroupStructureError, HomomorphismError


def test_cyclic_table_is_addition_mod_n(z3):
    assert z3.cayley[1][2] == 0
    assert z3.labels == ("0", "1", "2")
    assert z3.identity == 0


def test_product_of_cyclics_is_abelian_of_order_six():
    g = cd.product_group(cd.cyclic_group(3), cd.cyclic_group(2))
    assert g.order == 6
    assert all(g.cayley[i][j] == g.cayley[j][i] for i in range(6) for j in range(6))


def test_order6_group_from_explicit_table(g6):
    rebuilt = cd.group_from_table([list(r) for r in g6.cayley], labels=list(g6.labels))
    assert rebuilt.cayley == g6.cayley
    assert cd.validate_group(rebuilt) == []
    # relations of the presentation: a^2 = e, b^3 = e, ab = ba
    a, b = g6.index_of("a"), g6.index_of("b")
    assert g6.cayley[a][a] == g6.identity
    assert cd.element_order(g6, b) == 3
    assert g6.cayley[a][b] == g6.cayley[b][a] == g6.index_of("ab")


@pytest.mark.parametrize(
    "group",
    [
        cd.cyclic_group(1),
        cd.cyclic_group(7),
        cd.dihedral_group(1),
        cd.dihedral_group(3),
        cd.dihedral_group(4),
        cd.symmetric_group(3),
        cd.symmetric_group(4),
        cd.product_group(cd.cyclic_group(2), cd.cyclic_group(4)),
    ],
)
def test_family_constructors_satisfy_all_axioms(group):
    assert cd.validate_group(group) == []


def test_validate_reports_latin_square_violation():
    table = [list(r) for r in cd.cyclic_group(4).cayley]
    table[1][1] = 3  # duplicates 3 in row 1
    report = cd.validate_table(table)
    assert any(v.axiom == "latin-square" and v.witness == (1,) for v in report)
    with pytest.raises(GroupStructureError):
        cd.group_from_table(table)


def test_validate_reports_associativity_with_witness():
    # latin square that is not a group (no valid identity-compatible structure)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    report = cd.validate_table(table)
    assert report, "table should violate some axiom"
    bad = report[0]
    assert bad.axiom in ("associativity", "inverse", "identity")
    if bad.axiom == "associativity":
        i, j, k = bad.witness
        assert table[table[i][j]][k] != table[i][table[j][k]]


def test_validate_rejects_bad_shape_and_range():
    assert cd.validate_table([[0, 1], [1]])[0].axiom == "shape"
    assert cd.validate_table([[0, 5], [1, 0]])[0].axiom == "shape"
    for table, row in (([1, 2], 0), ([[0, 1], None], 1), ([[0, 1], {0: 1, 1: 0}], 1)):
        report = cd.validate_table(table)
        assert [(v.axiom, v.witness) for v in report] == [("shape", (row,))]
        assert f"row {row} is " in report[0].detail
        with pytest.raises(GroupStructureError, match="shape"):
            cd.group_from_table(table)


@pytest.mark.parametrize("table", [5, None, {0: [0]}])
def test_validate_reports_a_table_that_is_not_a_list(table):
    assert cd.validate_table(table) == [cd.GroupViolation("shape", (), f"table is {table!r}, not a list")]


def test_generated_subgroup_examples(g6):
    z6 = cd.cyclic_group(6)
    assert cd.generated_subgroup(z6, {2}).members == (0, 2, 4)
    z3 = cd.cyclic_group(3)
    assert cd.generated_subgroup(z3, {1, 2}).members == (0, 1, 2)
    h = cd.generated_subgroup(g6, {g6.index_of("e"), g6.index_of("b")})
    assert set(h.members) == {g6.index_of("e"), g6.index_of("b"), g6.index_of("b2")}


def test_generated_subgroup_is_idempotent_and_lagrange(small_pool):
    rng = random.Random(7)
    for group in small_pool:
        for _ in range(5):
            gens = rng.sample(range(group.order), rng.randint(1, min(3, group.order)))
            h = cd.generated_subgroup(group, gens)
            again = cd.generated_subgroup(group, set(h.members))
            assert again.members == h.members
            assert group.order % h.order == 0
            assert cd.is_subgroup(group, h.members)


def test_subgroup_equality_does_not_depend_on_the_generating_set():
    z12 = cd.cyclic_group(12)
    h = cd.generated_subgroup(z12, {2})
    assert h == cd.generated_subgroup(z12, {2, 4}) == cd.generated_subgroup(z12, {10, 0})
    assert hash(h) == hash(cd.generated_subgroup(z12, {2, 4}))
    assert h != cd.generated_subgroup(z12, {4})


def test_generated_subgroup_rejects_empty_gens(z3):
    with pytest.raises(DomainError):
        cd.generated_subgroup(z3, set())


def test_coset_decomposition_z4():
    z4 = cd.cyclic_group(4)
    h = cd.generated_subgroup(z4, {2})
    dec = cd.coset_decomposition(z4, h)
    assert dec.blocks == ((0, 2), (1, 3))
    assert dec.representatives == (0, 1)


def test_coset_decomposition_order6(g6):
    h = cd.generated_subgroup(g6, {g6.index_of("b")})
    dec = cd.coset_decomposition(g6, h)
    by_labels = [sorted(g6.labels[i] for i in block) for block in dec.blocks]
    assert by_labels == [["b", "b2", "e"], ["a", "ab", "ab2"]]


def test_coset_decomposition_whole_group(s3):
    h = cd.generated_subgroup(s3, set(range(s3.order)))
    dec = cd.coset_decomposition(s3, h)
    assert len(dec.blocks) == 1
    assert dec.blocks[0] == tuple(range(s3.order))


def test_coset_blocks_partition_and_match_quotient_predicate(s3):
    # H = <transposition>, a non-normal subgroup: blocks are left cosets
    transposition = next(i for i in range(s3.order) if cd.element_order(s3, i) == 2)
    h = cd.generated_subgroup(s3, {transposition})
    dec = cd.coset_decomposition(s3, h)
    seen = sorted(i for block in dec.blocks for i in block)
    assert seen == list(range(s3.order))
    block_of = {i: m for m, block in enumerate(dec.blocks) for i in block}
    for i in range(s3.order):
        for j in range(s3.order):
            same_block = block_of[i] == block_of[j]
            assert same_block == (s3.cayley[s3.inverses[i]][j] in h)


def test_relabeling_is_a_group_isomorphism(s3):
    rng = random.Random(3)
    order = list(range(s3.order))
    rng.shuffle(order)
    relabeled = cd.relabel_group(s3, order)
    assert cd.validate_group(relabeled) == []
    position = {old: new for new, old in enumerate(order)}
    for i in range(s3.order):
        for j in range(s3.order):
            assert relabeled.cayley[position[i]][position[j]] == position[s3.cayley[i][j]]


def test_check_homomorphism_accepts_quotient_maps(z3, z4, z2):
    ident = cd.check_homomorphism(z3, z3, [0, 1, 2])
    assert ident.map == (0, 1, 2)
    mod2 = cd.check_homomorphism(z4, z2, [i % 2 for i in range(4)])
    assert mod2.map == (0, 1, 0, 1)


def test_check_homomorphism_witness(z3):
    with pytest.raises(HomomorphismError) as err:
        cd.check_homomorphism(z3, z3, [0, 2, 2])
    assert err.value.witness == (1, 1)


def test_check_homomorphism_rejects_bad_map(z3, z2):
    with pytest.raises(DomainError):
        cd.check_homomorphism(z3, z2, [0, 1])
    with pytest.raises(DomainError):
        cd.check_homomorphism(z3, z2, [0, 1, 9])


def test_symmetric_group_composition_convention():
    s3 = cd.symmetric_group(3)
    # labels are one-line images; composition applies the right factor first
    i = s3.labels.index("102")
    j = s3.labels.index("021")
    composed = tuple(int("102"[int("021"[x])]) for x in range(3))
    assert s3.labels[s3.cayley[i][j]] == "".join(map(str, composed))


def test_symmetric_group_has_noncommuting_pair():
    s3 = cd.symmetric_group(3)
    assert any(
        s3.cayley[i][j] != s3.cayley[j][i]
        for i, j in itertools.product(range(6), repeat=2)
    )


def test_order_caps(monkeypatch):
    with pytest.raises(DomainError):
        cd.symmetric_group(9)
    with pytest.raises(DomainError):
        cd.cyclic_group(0)
    monkeypatch.setattr("convdyn.groups.MAX_GROUP_ORDER", 5)
    with pytest.raises(DomainError):
        cd.cyclic_group(10)
    monkeypatch.undo()
    assert cd.cyclic_group(10).order == 10


def test_element_order(z6):
    assert cd.element_order(z6, 0) == 1
    assert cd.element_order(z6, 1) == 6
    assert cd.element_order(z6, 3) == 2


@pytest.mark.parametrize("i", [-1, 6, 100])
def test_element_order_rejects_out_of_range_index(z6, i):
    with pytest.raises(DomainError, match="out of range 0..5"):
        cd.element_order(z6, i)


def test_dihedral_relations():
    d4 = cd.dihedral_group(4)
    r, s = d4.index_of("r1"), d4.index_of("sr0")
    assert cd.element_order(d4, r) == 4
    assert cd.element_order(d4, s) == 2
    # s r s = r^-1
    srs = d4.cayley[d4.cayley[s][r]][s]
    assert srs == d4.inverses[r]
    assert any(
        d4.cayley[i][j] != d4.cayley[j][i] for i in range(8) for j in range(8)
    )


# --- the documented element order of every family, against per-pair definitions -------------


def _reference_group(n, mul, labels):
    """(labels, cayley, identity, inverses) from a product given pair by pair."""
    cayley = tuple(tuple(mul(i, j) for j in range(n)) for i in range(n))
    identity = next(e for e in range(n) if all(mul(e, j) == j == mul(j, e) for j in range(n)))
    inverses = tuple(next(j for j in range(n) if mul(i, j) == identity) for i in range(n))
    return tuple(labels), cayley, identity, inverses


def _reference_cyclic(n):
    return _reference_group(n, lambda i, j: (i + j) % n, [str(i) for i in range(n)])


def _reference_dihedral(n):
    # index f*n + k is s^f r^k; r^k s^f = s^f r^((-1)^f k)
    def mul(a, b):
        (f1, k1), (f2, k2) = divmod(a, n), divmod(b, n)
        return ((f1 + f2) % 2) * n + ((-k1 if f2 else k1) + k2) % n

    return _reference_group(2 * n, mul, [f"r{k}" for k in range(n)] + [f"sr{k}" for k in range(n)])


def _reference_symmetric(n):
    perms = sorted(itertools.permutations(range(n)))  # lexicographic one-line order
    index = {p: i for i, p in enumerate(perms)}

    def mul(i, j):  # composition: (p*q)(x) = p(q(x))
        p, q = perms[i], perms[j]
        return index[tuple(p[q[x]] for x in range(n))]

    return _reference_group(len(perms), mul, ["".join(map(str, p)) for p in perms])


def _reference_product(g1, g2):
    n2 = g2.order

    def mul(x, y):
        (a1, b1), (a2, b2) = divmod(x, n2), divmod(y, n2)
        return g1.cayley[a1][a2] * n2 + g2.cayley[b1][b2]

    labels = [f"({la},{lb})" for la in g1.labels for lb in g2.labels]
    return _reference_group(g1.order * n2, mul, labels)


def _parts(g):
    """Labels, table values as tuples, identity and inverses: compared by value, whatever the row type."""
    return g.labels, tuple(map(tuple, g.cayley)), g.identity, g.inverses


@pytest.mark.parametrize("n", range(1, 10))
def test_cyclic_group_matches_its_documented_element_order(n):
    assert _parts(cd.cyclic_group(n)) == _reference_cyclic(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_dihedral_group_matches_its_documented_element_order(n):
    assert _parts(cd.dihedral_group(n)) == _reference_dihedral(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_matches_its_documented_element_order(n):
    assert _parts(cd.symmetric_group(n)) == _reference_symmetric(n)


@pytest.mark.parametrize(
    "g1,g2",
    [(cd.cyclic_group(2), cd.symmetric_group(3)), (cd.symmetric_group(3), cd.symmetric_group(3))],
    ids=["Z2xS3", "S3xS3"],
)
def test_product_group_matches_its_documented_element_order(g1, g2):
    assert _parts(cd.product_group(g1, g2)) == _reference_product(g1, g2)


def test_symmetric_group_checks_the_cap_before_enumerating(monkeypatch):
    from convdyn import groups

    def refuse(*args):
        raise AssertionError("permutations enumerated before the order cap was checked")

    monkeypatch.setattr(groups.itertools, "permutations", refuse)
    with pytest.raises(DomainError, match="exceeds cap"):
        cd.symmetric_group(8)


# --- validate_table against the lexicographic O(n^3) scan ---------------------------------------


def _reference_validate(cayley):
    """Every axiom checked entry by entry; associativity by scanning all
    triples (i, j, k) in lexicographic order."""
    violations = []
    n = len(cayley)
    for i in range(n):
        if len(set(cayley[i])) != n:
            violations.append(("latin-square", (i,), f"row {i} repeats an element"))
    for j in range(n):
        if len({cayley[i][j] for i in range(n)}) != n:
            violations.append(("latin-square", (j,), f"column {j} repeats an element"))
    identity = next(
        (e for e in range(n)
         if all(cayley[e][j] == j for j in range(n)) and all(cayley[i][e] == i for i in range(n))),
        None,
    )
    if identity is None:
        violations.append(("identity", (), "no two-sided identity element"))
    else:
        for i in range(n):
            if not any(cayley[i][j] == identity and cayley[j][i] == identity for j in range(n)):
                violations.append(("inverse", (i,), f"element {i} has no two-sided inverse"))
    for i, j, k in itertools.product(range(n), repeat=3):
        left, right = cayley[cayley[i][j]][k], cayley[i][cayley[j][k]]
        if left != right:
            detail = f"(g{i}*g{j})*g{k} = g{left} but g{i}*(g{j}*g{k}) = g{right}"
            violations.append(("associativity", (i, j, k), detail))
            break
    return violations


def _random_latin_square(rng, n):
    """A Latin square filled cell by cell, each from a random order of the
    symbols, backtracking on dead ends."""
    square = [[None] * n for _ in range(n)]

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        for v in rng.sample(range(n), n):
            if v not in used:
                square[i][j] = v
                if fill(cell + 1):
                    return True
        square[i][j] = None
        return False

    fill(0)
    return square


def _as_loop(square):
    """Reorder columns and then rows so that element 0 is a two-sided identity."""
    n = len(square)
    col_of = {v: j for j, v in enumerate(square[0])}
    square = [[row[col_of[v]] for v in range(n)] for row in square]
    return sorted(square, key=lambda row: row[0])


def test_validate_table_matches_the_lexicographic_scan():
    rng = random.Random(20240)
    outcomes = collections.Counter()
    for t in range(500):
        n = rng.randint(1, 8)
        square = _random_latin_square(rng, n)
        if t % 3:
            square = _as_loop(square)
        if t % 3 == 2:
            square[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        expected = _reference_validate(square)
        report = [(v.axiom, v.witness, v.detail) for v in cd.validate_table(square)]
        assert report == expected, square
        axioms = {v[0] for v in expected}
        outcomes["identity" not in axioms, "associativity" not in axioms] += 1
    # every branch is taken: Light's test passing and failing, and no identity
    assert min(outcomes[True, True], outcomes[True, False], outcomes[False, False]) >= 50


def test_validate_group_reports_wrong_stored_identity_and_inverses(s3):
    assert cd.validate_group(cd.FiniteGroup(s3.labels, s3.cayley, s3.identity, s3.inverses)) == []
    wrong_identity = cd.validate_group(cd.FiniteGroup(s3.labels, s3.cayley, 1, s3.inverses))
    assert (wrong_identity[0].axiom, wrong_identity[0].witness) == ("identity", (1,))
    inverses = list(s3.inverses)
    inverses[3] = 3  # 120 is a 3-cycle, not its own inverse
    wrong_inverse = cd.validate_group(cd.FiniteGroup(s3.labels, s3.cayley, s3.identity, inverses))
    assert [(v.axiom, v.witness) for v in wrong_inverse] == [("inverse", (3,))]


# --- compact rows, digest identity ---------------------------------------------------------------


def _relabelled_s3():
    return cd.relabel_group(cd.symmetric_group(3), [0, 2, 1, 3, 4, 5])


@pytest.mark.parametrize(
    "build",
    [
        lambda: cd.cyclic_group(5),
        lambda: cd.dihedral_group(4),
        lambda: cd.symmetric_group(4),
        lambda: cd.product_group(cd.cyclic_group(2), cd.symmetric_group(3)),
        lambda: cd.group_from_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
        _relabelled_s3,
        lambda: cd.FiniteGroup(("e", "a"), [[0, 1], (1, 0)], 0, (0, 1)),
    ],
    ids=["cyclic", "dihedral", "symmetric", "product", "table", "relabel", "FiniteGroup"],
)
def test_every_builder_stores_array_rows(build):
    g = build()
    assert type(g.cayley) is tuple and len(g.cayley) == g.order
    assert all(type(row) is array and row.typecode == "H" for row in g.cayley)
    assert cd.validate_group(g) == []


def test_finite_group_rejects_entries_that_are_not_16_bit_indices():
    for bad in (-1, 65536, 0.5):
        with pytest.raises(GroupStructureError, match="0..65535"):
            cd.FiniteGroup(("e", "a"), [[0, 1], [1, bad]], 0, (0, 1))


def test_equal_groups_are_equal_and_hash_equal_and_a_relabelling_is_not():
    a, b = cd.symmetric_group(4), cd.symmetric_group(4)
    assert a is not b and a.cayley[5] is not b.cayley[5]
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    rebuilt = cd.group_from_table([list(r) for r in a.cayley], labels=list(a.labels))
    assert rebuilt == a and hash(rebuilt) == hash(a)
    # the same elements listed in another order: another table, so another group
    relabelled = cd.relabel_group(a, [1, 0, *range(2, a.order)])
    assert relabelled != a and relabelled.labels != a.labels
    same_labels = cd.relabel_group(a, [1, 0, *range(2, a.order)], labels=a.labels)
    assert same_labels != a
    # a wrong stored identity also makes another group
    assert cd.FiniteGroup(a.labels, a.cayley, 1, a.inverses) != a
    assert cd.FiniteGroup(a.labels, a.cayley, a.identity, a.inverses) == a
    assert a != cd.cyclic_group(24) and a != "S4"
    # measures on equal groups are equal and hash equal
    ma, mb = cd.ProbMeasure.uniform(a), cd.ProbMeasure.uniform(b)
    assert ma == mb and hash(ma) == hash(mb)


def test_retained_table_of_s6_is_compact():
    gc.collect()
    tracemalloc.start()
    try:
        g = cd.symmetric_group(6)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 720
    # 720 rows of 720 two-byte entries are 1.04 MB; tuple rows took about 4.2 MB
    assert retained < 1_500_000
