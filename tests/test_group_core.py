"""Cayley-table validation and the structural queries."""

import tracemalloc

import numpy as np
import pytest

from unitary_lab import group_catalog as cat
from unitary_lab import group_core
from unitary_lab.errors import (
    IndexOutOfRange,
    NoIdentity,
    NotAssociative,
    NotCentralInvolution,
    NotLatin,
    NotNormal,
)
from unitary_lab.group_core import (
    SpecialSets,
    SubgroupHandle,
    _magma_generators,
    validate_group,
)

# a Latin square with identity that is not a group (element 1 would need
# order 2 and 5 at once)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_validate_trivial_and_c2():
    g1 = validate_group([[0]])
    assert g1.n == 1
    g2 = validate_group([[0, 1], [1, 0]])
    assert g2.n == 2 and g2.inverse(1) == 1


def test_validate_rejects_non_latin():
    with pytest.raises(NotLatin):
        validate_group([[0, 1], [1, 1]])


def test_not_latin_names_the_least_failing_column():
    with pytest.raises(NotLatin) as exc:
        validate_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 0, 1, 3], [3, 2, 0, 1]])
    assert (exc.value.kind, exc.value.index) == ("column", 1)


def test_not_latin_names_the_row_first_at_equal_index():
    with pytest.raises(NotLatin) as exc:
        validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 0]])
    assert (exc.value.kind, exc.value.index) == ("row", 2)


def test_validate_rejects_missing_identity():
    with pytest.raises(NoIdentity):
        validate_group([[1, 0], [0, 1]])


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 0.9]],                            # float, truncated to 0 by a cast
    [[0, 1], [1, 0.0]],                            # float with an integral value
    [[0, 1], [1, "0"]],                            # str
    [[0, 1], [1, False]],                          # bool
    [[0, 1], [1, [0]]],                            # ragged
    [[0, 1], [1]],                                 # ragged
    np.array([[0, 1], [1, 0]], dtype=np.float64),  # float array
    np.array([[0, 1], [1, 0]], dtype=bool),        # bool array
])
def test_validate_refuses_entries_that_are_not_integers(table):
    with pytest.raises(ValueError, match="^table entries must be integers$"):
        validate_group(table)


def test_validate_accepts_integer_entries_of_any_integer_type():
    c2 = [[0, 1], [1, 0]]
    for table in (c2, [[np.int8(0), 1], [np.uint64(1), 0]], np.array(c2, dtype=np.uint8)):
        g = validate_group(table)
        assert g.table.dtype == np.int64 and g.table.tolist() == c2


def test_validate_refuses_entries_beyond_int64_as_out_of_range():
    with pytest.raises(ValueError, match="^table entries must be indices < n$"):
        validate_group([[0, 1], [1, 2 ** 64]])


def test_validate_rejects_non_associative_with_witness():
    with pytest.raises(NotAssociative) as exc:
        validate_group(NONASSOC_LOOP)
    i, j, k = exc.value.witness
    t = np.array(NONASSOC_LOOP)
    assert t[t[i, j], k] != t[i, t[j, k]]


def test_element_queries_cyclic():
    c4 = cat.build("cyclic:4")
    assert c4.inverse(0) == 0 and c4.order_of(0) == 1
    assert c4.inverse(1) == 3
    assert c4.order_of(1) == 4


def test_element_queries_dihedral_reflection():
    d8 = cat.build("dihedral:8")
    s = 4
    assert d8.inverse(s) == s
    assert d8.order_of(s) == 2


@pytest.mark.parametrize("p, max_order", [(2, 64), (3, 27)])
def test_inverse_matches_the_position_of_the_identity(p, max_order):
    entries = cat.catalog_entries(max_order, p)
    assert entries
    for entry in entries:
        group = entry.build()
        expected = np.argmin(group.table, axis=1)  # g g^-1 = g_0, the least entry of row g
        assert [group.inverse(g) for g in group.elements()] == expected.tolist(), entry.name


def test_element_queries_bounds():
    c4 = cat.build("cyclic:4")
    with pytest.raises(IndexOutOfRange):
        c4.inverse(7)


def test_special_sets_d8():
    d8 = cat.build("dihedral:8")
    s = d8.special_sets()
    assert len(s.order_two) == 6
    assert s.center == (0, 2)
    assert s.central_order_two == (2,)


def test_special_sets_q8():
    q8 = cat.build("quaternion:8")
    s = q8.special_sets()
    assert len(s.order_two) == 2
    assert s.central_order_two == (2,)


def test_special_sets_c4():
    c4 = cat.build("cyclic:4")
    s = c4.special_sets()
    assert s.squares == (0, 2)
    assert s.square_order_two == (0, 2)
    assert len(s.square_order_two) == 2


@pytest.mark.parametrize("p, max_order", [(2, 64), (3, 27), (5, 25)])
def test_special_sets_match_the_loop_reference(p, max_order):
    for g in cat.sweep(max_order, p):
        t, elements = g.table, range(g.n)
        order_two = tuple(a for a in elements if t[a, a] == 0)
        squares = tuple(sorted({int(t[a, a]) for a in elements}))
        center = tuple(a for a in elements if all(t[a, b] == t[b, a] for b in elements))
        expected = SpecialSets(center, order_two, squares,
                               tuple(s for s in squares if s in order_two),
                               tuple(a for a in center if a != 0 and a in order_two))
        assert g.special_sets() == expected, g.id


def test_square_roots_d8():
    d8 = cat.build("dihedral:8")
    t = d8.square_roots(2)
    assert t == (1, 3)
    assert d8.is_pairwise_commuting(t)


def test_square_roots_q8_not_commuting():
    q8 = cat.build("quaternion:8")
    t = q8.square_roots(2)
    assert len(t) == 6
    assert not q8.is_pairwise_commuting(t)


def test_square_roots_c4():
    c4 = cat.build("cyclic:4")
    assert c4.square_roots(2) == (1, 3)
    assert c4.is_pairwise_commuting((1, 3))


def test_square_roots_rejects_non_central():
    d8 = cat.build("dihedral:8")
    with pytest.raises(NotCentralInvolution):
        d8.square_roots(4)  # a reflection: involution but not central
    with pytest.raises(NotCentralInvolution):
        d8.square_roots(0)


def test_subgroup_generated():
    d8 = cat.build("dihedral:8")
    assert d8.subgroup_generated([0]).members == (0,)
    assert d8.subgroup_generated([1]).members == (0, 1, 2, 3)
    q8 = cat.build("quaternion:8")
    assert q8.subgroup_generated([2]).members == (0, 2)


def test_magma_generators_generate_every_catalog_group():
    for g in cat.sweep(64, 2) + cat.sweep(27, 3) + cat.sweep(25, 5):
        gens = _magma_generators(g.table)
        assert g.subgroup_generated(gens).members == tuple(g.elements()), g.id


def test_subgroup_handle_rejects_non_closed():
    d8 = cat.build("dihedral:8")
    with pytest.raises(ValueError):
        SubgroupHandle(d8, (0, 1))  # r alone is not closed


def test_quotient_d8_by_center_is_klein():
    d8 = cat.build("dihedral:8")
    center = d8.subgroup_generated([2])
    gbar, proj, _ = d8.quotient(center)
    assert gbar.n == 4
    assert all(gbar.mul(g, g) == 0 for g in gbar.elements())
    assert proj[0] == 0


def test_quotient_c4_by_squares_is_c2():
    c4 = cat.build("cyclic:4")
    gbar, proj, reps = c4.quotient(c4.subgroup_generated([2]))
    assert gbar.n == 2
    assert proj.tolist() == [0, 1, 0, 1] and reps.tolist() == [0, 1]


def test_quotient_by_trivial_is_same_table():
    d8 = cat.build("dihedral:8")
    gbar, proj, reps = d8.quotient(SubgroupHandle(d8, (0,)))
    assert np.array_equal(gbar.table, d8.table)
    assert proj.tolist() == reps.tolist() == list(range(8))


def test_quotient_rejects_non_normal():
    d8 = cat.build("dihedral:8")
    with pytest.raises(NotNormal):
        d8.quotient(d8.subgroup_generated([4]))  # <s> is not normal in D8


def _reference_quotient(g, sub):
    """Group.quotient element by element: the normality loop, then the least
    member of each coset g H as its representative; (table, projection,
    representatives) or the NotNormal witness."""
    members = set(sub.members)
    for x in g.elements():
        for h in sub.members:
            if g.mul(g.mul(x, h), g.inverse(x)) not in members:
                return x
    rep_of_element = [min(g.mul(x, h) for h in sub.members) for x in g.elements()]
    reps = sorted(set(rep_of_element))
    projection = tuple(reps.index(r) for r in rep_of_element)
    table = np.array([[projection[g.mul(a, b)] for b in reps] for a in reps], dtype=np.int64)
    return table, projection, reps


def test_quotient_matches_the_loop_reference():
    # every catalog 2-group up to order 64 by each central involution, and by
    # each non-central one, whose order-two subgroup is not normal
    refused = 0
    for g in cat.sweep(64, 2):
        for c in g.special_sets().order_two[1:]:
            sub = g.subgroup_generated([c])
            expected = _reference_quotient(g, sub)
            if isinstance(expected, int):
                with pytest.raises(NotNormal) as exc:
                    g.quotient(sub)
                assert exc.value.witness == expected, (g.id, c)
                refused += 1
                continue
            gbar, proj, reps = g.quotient(sub)
            assert gbar.table.dtype == np.int64 and gbar.table.tobytes() == expected[0].tobytes(), (g.id, c)
            assert proj.dtype == reps.dtype == np.intp, (g.id, c)
            assert tuple(proj.tolist()) == expected[1] and reps.tolist() == expected[2], (g.id, c)
            assert gbar.id == f"{g.id}/{{0,{c}}}"
    assert refused > 0


def test_projection_lift_round_trip():
    for name in ("dihedral:8", "cyclic:16", "quaternion:16"):
        g = cat.build(name)
        for c in g.special_sets().central_order_two:
            gbar, proj, reps = g.quotient(g.subgroup_generated([c]))
            assert proj[reps].tolist() == list(range(gbar.n))


def test_quotient_order_two_count_identity():
    # |Gbar{2}| = (|G{2}| + |T_c|) / 2 for H = <c>, across all catalog 2-groups
    for g in cat.sweep(16, 2):
        g2 = len(g.special_sets().order_two)
        for c in g.special_sets().central_order_two:
            t_c = len(g.square_roots(c))
            gbar, _, _ = g.quotient(g.subgroup_generated([c]))
            assert len(gbar.special_sets().order_two) == (g2 + t_c) // 2, g.id


def test_fixed_point_free_pairing_parity():
    # |G| - |G_sigma| is even for the inversion involution (G_sigma = G{2})
    for g in cat.sweep(16, 2) + cat.sweep(27, 3):
        g2 = len(g.special_sets().order_two)
        assert (g.n - g2) % 2 == 0


def test_group_equality_and_key():
    a = cat.build("dihedral:8")
    b = cat.build("dihedral:8")
    assert a == b


def test_equal_groups_hash_equal():
    # same table under two ids: equal, so the hashes must agree
    a = cat.build("elementary_abelian:2:3")
    b = cat.abelian(2, [1, 1, 1])
    assert a.id != b.id and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_light_associativity_accepts_large_group():
    import unitary_lab.group_catalog as cat
    g = cat.build("product:dihedral:64*cyclic:2")  # order 128: Light's test
    assert g.n == 128
    assert g.order_of(2) == 32  # (r, 1) sits at index 1*|B| = 2


def test_light_associativity_catches_large_loop():
    # direct cube of the order-5 loop: still Latin with identity, but not associative
    base = np.array(NONASSOC_LOOP)
    n = 125
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a = (i % 5, i // 5 % 5, i // 25)
        for j in range(n):
            b = (j % 5, j // 5 % 5, j // 25)
            c = (base[a[0], b[0]], base[a[1], b[1]], base[a[2], b[2]])
            table[i, j] = c[0] + 5 * c[1] + 25 * c[2]
    with pytest.raises(NotAssociative) as exc:
        validate_group(table)
    i, j, k = exc.value.witness
    assert table[table[i, j], k] != table[i, table[j, k]]


def test_light_associativity_peaks_near_twice_the_table():
    # the two gathers of a generator are dropped once compared, so they are
    # never alive beside the next generator's or the returned copy
    table = cat.build("dihedral:1024").table
    tracemalloc.start()
    try:
        validate_group(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * table.nbytes, peak / table.nbytes


def _refuse_one_swapped_intercalate(name: str, n: int):
    # rows g, g u and columns h, u h of a group table, u an involution, form a
    # 2x2 Latin subsquare; swapping its two symbols keeps the table a loop
    t = np.array(cat.build(name).table)
    assert t.shape == (n, n)
    u = next(x for x in range(2, n) if t[x, x] == 0)
    rows, cols = [1, t[1, u]], [1, t[u, 1]]  # g = h = g1
    block = t[np.ix_(rows, cols)]
    assert block[0, 0] == block[1, 1] != block[0, 1] == block[1, 0]
    t[np.ix_(rows, cols)] = block[::-1]
    with pytest.raises(NotAssociative) as exc:
        validate_group(t)
    i, j, k = exc.value.witness
    assert t[t[i, j], k] != t[i, t[j, k]]


def test_light_associativity_catches_one_swapped_intercalate():
    _refuse_one_swapped_intercalate("product:dihedral:64*cyclic:2", 128)


def test_light_associativity_catches_one_swapped_intercalate_at_order_64():
    # the least order that takes Light's test
    _refuse_one_swapped_intercalate("product:dihedral:32*cyclic:2", 64)


def test_only_a_table_past_order_32_takes_lights_test(monkeypatch):
    # every triple costs about as much as Light's test at order 32 and about
    # 20 times as much at order 64, so only the order-64 table finds generators
    tables = [cat.build(name).table for name in ("product:dihedral:16*cyclic:2",
                                                 "product:dihedral:32*cyclic:2")]
    seen, generators = [], group_core._magma_generators
    monkeypatch.setattr(group_core, "_magma_generators", lambda t: seen.append(t.shape[0]) or generators(t))
    for table in tables:
        assert np.array_equal(validate_group(table).table, table)
    assert seen == [64]
