"""Unitary orders: pointwise checks, the three computation routes, bounds."""

import dataclasses
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from unitary_lab import group_algebra as ga
from unitary_lab import unitary as un
from unitary_lab.engine import DEFAULT_BATCH, AlgebraContext, keys_contain
from unitary_lab.errors import (
    EvenCharacteristic,
    InternalInconsistency,
    NotCentralInvolution,
    NotInvertible,
    NotNormalized,
    NotPGroupOverField,
    OddCharacteristic,
    SearchSpaceTooLarge,
    SpecMismatch,
)
from unitary_lab.finite_field import make_field
from unitary_lab.group_catalog import abelian, build, catalog_entries
from unitary_lab.group_core import validate_group

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF5 = make_field(5, 1)
GF8 = make_field(2, 3)


# --- is_unitary / cayley -------------------------------------------------------

def test_group_elements_are_unitary():
    c4 = build("cyclic:4")
    star = ga.canonical_star(c4)
    for g in c4.elements():
        assert un.is_unitary(ga.basis_element(GF2, c4, g), star)


def test_is_unitary_fc4_gf2():
    c4 = build("cyclic:4")
    x = ga.from_coeffs(GF2, c4, [1, 1, 1, 0])
    assert un.is_unitary(x, ga.canonical_star(c4))


def test_is_unitary_rejects_fc2_gf3_example():
    c2 = build("cyclic:2")
    x = ga.from_coeffs(GF3, c2, [2, 2])
    assert not un.is_unitary(x, ga.canonical_star(c2))


def test_is_unitary_requires_normalization():
    c2 = build("cyclic:2")
    with pytest.raises(NotNormalized):
        un.is_unitary(ga.from_coeffs(GF2, c2, [1, 1]), ga.canonical_star(c2))


def test_cayley_of_zero_is_one():
    c9 = build("cyclic:9")
    assert un.cayley(ga.algebra_zero(GF3, c9)) == ga.algebra_one(GF3, c9)


def test_cayley_refuses_one_in_char2():
    c4 = build("cyclic:4")
    with pytest.raises(NotInvertible):
        un.cayley(ga.algebra_one(GF2, c4))


def test_cayley_is_involutive_on_skew():
    c3 = build("cyclic:3")
    x = ga.basis_element(GF3, c3, 1) - ga.basis_element(GF3, c3, 2)
    y = un.cayley(x)
    assert un.is_unitary(y, ga.canonical_star(c3))
    assert un.cayley(y) == x


# --- odd characteristic formula ---------------------------------------------------

def test_odd_formula_values():
    assert un.unitary_order_odd(build("cyclic:3"), ga.canonical_star(build("cyclic:3")), GF3) == 3
    h27 = build("heisenberg:3")
    assert un.unitary_order_odd(h27, ga.canonical_star(h27), GF3) == 3 ** 13
    c1 = build("cyclic:1")
    assert un.unitary_order_odd(c1, ga.canonical_star(c1), GF3) == 1
    c5 = build("cyclic:5")
    assert un.unitary_order_odd(c5, ga.canonical_star(c5), GF5) == 25


def test_odd_formula_guards():
    c4 = build("cyclic:4")
    with pytest.raises(EvenCharacteristic):
        un.unitary_order_odd(c4, ga.canonical_star(c4), GF2)
    with pytest.raises(NotPGroupOverField):
        un.unitary_order_odd(c4, ga.canonical_star(c4), GF3)


# --- oracle --------------------------------------------------------------------------

def test_oracle_fc2_gf2():
    c2 = build("cyclic:2")
    res = un.unitary_enumerate_oracle(c2, ga.canonical_star(c2), GF2, max_witnesses=None)
    assert res.order == 2
    assert set(x.support() for x in res.elements) == {(0,), (1,)}
    assert res.theta == 1


def test_oracle_fc4_gf2_all_normalized_units():
    c4 = build("cyclic:4")
    res = un.unitary_enumerate_oracle(c4, ga.canonical_star(c4), GF2)
    assert res.order == 8
    assert res.theta == 2  # |G^2{2}| per the abelian formula


def test_oracle_matches_odd_formula():
    c3 = build("cyclic:3")
    star = ga.canonical_star(c3)
    res = un.unitary_enumerate_oracle(c3, star, GF3)
    assert res.order == un.unitary_order_odd(c3, star, GF3) == 3


def test_oracle_respects_search_cap():
    c4 = build("cyclic:4")
    with pytest.raises(SearchSpaceTooLarge):
        un.unitary_enumerate_oracle(c4, ga.canonical_star(c4), GF2, search_cap=4)


def test_involution_of_another_group_is_refused():
    # E4's star on C4 would count 4 elements, and C3's star on C9 index past sigma
    c4, c9 = build("cyclic:4"), build("cyclic:9")
    for group, other, field in ((c4, build("elementary_abelian:2:2"), GF2), (c9, build("cyclic:3"), GF3)):
        with pytest.raises(SpecMismatch, match="different group"):
            un.unitary_enumerate_oracle(group, ga.canonical_star(other), field)
    with pytest.raises(SpecMismatch, match="different group"):
        un.unitary_order_odd(c9, ga.canonical_star(build("cyclic:3")), GF3)
    # a group with an equal table is the same group
    twin = validate_group(c4.table, id="twin")
    assert un.unitary_enumerate_oracle(c4, ga.canonical_star(twin), GF2).order == 8


def test_negative_caps_are_refused():
    # a negative cap would slice from the end, not refuse
    d8 = build("dihedral:8")
    with pytest.raises(ValueError, match="max_witnesses -1 is negative"):
        un.unitary_enumerate_oracle(d8, ga.canonical_star(d8), GF2, max_witnesses=-1)
    with pytest.raises(ValueError, match="max_samples -2 is negative"):
        un.s_h_enumerate(d8, 2, GF2, max_samples=-2)
    assert un.unitary_enumerate_oracle(d8, ga.canonical_star(d8), GF2, max_witnesses=0).elements == ()
    size, samples = un.s_h_enumerate(d8, 2, GF2, max_samples=0)
    assert size > 0 and samples == []


def test_oracle_witness_cap():
    c4 = build("cyclic:4")
    res = un.unitary_enumerate_oracle(c4, ga.canonical_star(c4), GF2, max_witnesses=3)
    assert len(res.elements) == 3
    assert res.subsidiary["witnesses_truncated"] is True


def test_oracle_groups_with_equal_tables_share_one_cache_entry():
    # one Cayley table under two ids: one certified scan, each result over its own group
    a, b = build("elementary_abelian:2:3"), abelian(2, [1, 1, 1])
    assert a == b and a.id != b.id
    un.clear_caches()
    try:
        ra, rb = (un.unitary_enumerate_oracle(g, ga.canonical_star(g), GF2, max_witnesses=5)
                  for g in (a, b))
        assert len(un._SET_CACHE) == 1
        assert un._oracle_set(a, ga.canonical_star(a), GF2) is un._oracle_set(b, ga.canonical_star(b), GF2)
    finally:
        un.clear_caches()
    assert (ra.group_id, rb.group_id) == (a.id, b.id)
    assert ra.order == rb.order == 2 ** 7
    assert all(x.group is a for x in ra.elements) and all(x.group is b for x in rb.elements)
    assert [x.coeffs for x in ra.elements] == [x.coeffs for x in rb.elements]


def test_oracle_elements_verify_scalar_side():
    # independent of the engine: subgroup laws re-checked with AlgebraElement ops
    c4 = build("cyclic:4")
    star = ga.canonical_star(c4)
    res = un.unitary_enumerate_oracle(c4, star, GF2, max_witnesses=None)
    elems = set(res.elements)
    one = ga.algebra_one(GF2, c4)
    assert one in elems
    for x in elems:
        assert x * ga.apply_involution(x, star) == one
        for y in elems:
            assert x * y in elems


def test_oracle_order_check_names_group_and_field(monkeypatch):
    # the zero element passes the certificate (0 x = 0 = 0*) but is no unit, so a
    # scan that adds its key (0) reports one element more than there are normalized units
    scan = AlgebraContext.unitary_keys
    monkeypatch.setattr(AlgebraContext, "unitary_keys",
                        lambda ctx, sigma: np.concatenate(([np.uint64(0)], scan(ctx, sigma))))
    c2 = build("cyclic:2")
    un.clear_caches()
    try:
        with pytest.raises(InternalInconsistency) as exc:
            un.unitary_enumerate_oracle(c2, ga.canonical_star(c2), GF2)
    finally:
        un.clear_caches()
    assert str(exc.value) == "unitary order exceeds the normalized unit count (cyclic:2 over 2^1)"


# --- the subgroup certificate, called directly ------------------------------------------

def _scan(group, field):
    """The oracle's uncertified key set under the canonical star, with its context."""
    ctx = AlgebraContext(field, group)
    sigma = np.array(ga.canonical_star(group).sigma, dtype=np.intp)
    return ctx, sigma, ctx.unitary_keys(sigma)


def _certify(ctx, sigma, keys):
    un._subgroup_certificate(ctx, keys, sigma, full_space=ctx.q ** (ctx.n - 1))


@pytest.mark.parametrize("name, field", [
    ("dihedral:8", GF2), ("dihedral:8", GF4), ("quaternion:8", GF2), ("quaternion:8", GF4),
    ("cyclic:9", GF3), ("elementary_abelian:3:2", GF3),
])
def test_certificate_accepts_the_oracle_set(name, field):
    ctx, sigma, keys = _scan(build(name), field)
    assert 1 < keys.size < ctx.q ** (ctx.n - 1)  # a proper subset: the coset walk runs
    # each generator at least multiplies the subgroup reached by p, so the walk
    # takes at most log_p |S| of them; the widest right factor it multiplies
    # by is the list of generators
    widths = []
    mul = ctx.mul
    ctx.mul = lambda X, Y: widths.append(Y.shape[0]) or mul(X, Y)
    _certify(ctx, sigma, keys)
    assert field.p ** max(widths) <= keys.size


def test_certificate_accepts_a_proper_subgroup():
    ctx, sigma, keys = _scan(build("dihedral:8"), GF4)
    sub = _closure_keys(ctx, ctx.unpack(keys[1:4]))
    assert 1 < sub.size < keys.size
    _certify(ctx, sigma, sub)


@pytest.mark.parametrize("name, field", [("dihedral:8", GF2), ("quaternion:8", GF2)])
def test_certificate_refuses_every_dropped_pair(name, field):
    # V minus {x, x*} keeps 1 and the involution, but is too large for a proper
    # subgroup, so some product of its members must land on x or x*
    group = build(name)
    ctx, sigma, keys = _scan(group, field)
    for key in keys[keys != ctx.tabs.one]:
        x = ctx.unpack(np.array([key]))
        pair = np.concatenate([x, x[:, sigma]])
        with pytest.raises(InternalInconsistency) as exc:
            _certify(ctx, sigma, keys[~np.isin(keys, ctx.pack(pair))])
        named = [ga.format_algebra_literal(ga.from_codes(ctx.field, ctx.group, row)) for row in pair]
        assert str(exc.value) in {
            f"product of two claimed unitary elements escapes the set "
            f"({name} over {field.literal()}, element {literal})" for literal in named
        }


def test_certificate_follows_each_new_representative():
    # F2 C4 under the identity involution (C4 is abelian): the walk reaches
    # g2 = g1 g1 as a new representative, and g2 g1 escapes {1, g1, g2}
    c4 = build("cyclic:4")
    ctx = AlgebraContext(GF2, c4)
    sigma = np.array(ga.involution_from_map(c4, range(4)).sigma, dtype=np.intp)
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, np.array([1, 2, 4], dtype=np.uint64))
    assert str(exc.value) == ("product of two claimed unitary elements escapes the set "
                              "(cyclic:4 over 2^1, element 1*g3)")


def _d8_by_reflections():
    """D8 listed by words in reflections s, t with st of order 4, and the
    involution g -> phi(g^-1), phi swapping s and t."""
    d8 = build("dihedral:8")
    s = 4
    t = next(j for j in range(5, 8) if d8.order_of(d8.mul(s, j)) == 4)
    st, ts = d8.mul(s, t), d8.mul(t, s)
    words = [0, s, t, st, ts, d8.mul(st, s), d8.mul(ts, t), d8.mul(st, st)]
    relabeled = validate_group([[words.index(d8.mul(a, b)) for b in words] for a in words],
                               id="dihedral:8")
    return relabeled, ga.involution_from_map(relabeled, [0, 2, 1, 3, 4, 6, 5, 7])


def test_certificate_multiplies_by_every_generator_so_far():
    # The involution of _d8_by_reflections keeps {1, s, t, st}; that set is
    # closed under right multiplication by t, the newest generator, but t s escapes
    relabeled, inv = _d8_by_reflections()
    ctx = AlgebraContext(GF2, relabeled)
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, np.array(inv.sigma, dtype=np.intp), np.array([1, 2, 4, 8], dtype=np.uint64))
    assert str(exc.value) == ("product of two claimed unitary elements escapes the set "
                              "(dihedral:8 over 2^1, element 1*g4)")


def test_certificate_refuses_a_set_without_the_identity():
    ctx, sigma, keys = _scan(build("quaternion:8"), GF4)
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, keys[keys != ctx.tabs.one])
    assert str(exc.value) == "unitary set misses the identity (quaternion:8 over 2^2, element 10*g0)"


def test_certificate_under_the_identity_map_involutes_nothing(monkeypatch):
    # E4 over GF(4): the star is the identity map, so x* = x and the involution
    # check has nothing to do, yet 1 is still required
    ctx, sigma, keys = _scan(build("elementary_abelian:2:2"), GF4)
    assert sigma.tolist() == list(range(ctx.n))
    involute = ctx.involute_keys
    calls = []
    monkeypatch.setattr(ctx, "involute_keys", lambda *a: calls.append(a) or involute(*a))
    _certify(ctx, sigma, keys)
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, keys[keys != ctx.tabs.one])
    assert str(exc.value) == ("unitary set misses the identity "
                              "(elementary_abelian:2:2 over 2^2, element 10*g0)")
    assert calls == []


def test_certificate_names_the_first_escaping_product_of_a_coset():
    # C4 x C2 over GF(2) without g1 and g5: the coset that escapes forms g5
    # before g1, though g1's key is the smaller, and g5 is the one named
    group = build("abelian:2:[1,2]")
    ctx = AlgebraContext(GF2, group)
    sigma = np.array(ga.involution_from_map(group, range(group.n)).sigma, dtype=np.intp)
    kept = [g for g in range(group.n) if g not in (1, 5)]
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, np.array([1 << g for g in kept], dtype=np.uint64))
    assert str(exc.value) == ("product of two claimed unitary elements escapes the set "
                              "(abelian:2:[1,2] over 2^1, element 1*g5)")


def test_certificate_refuses_a_set_not_closed_under_the_involution():
    # {1, g1} in F3 C9: g1* = g8 is missing
    ctx, sigma, _ = _scan(build("cyclic:9"), GF3)
    rows = np.zeros((2, ctx.n), dtype=np.uint16)
    rows[0, 0] = rows[1, 1] = 1
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, np.sort(ctx.pack(rows)))
    assert str(exc.value) == ("unitary set is not closed under the involution "
                              "(cyclic:9 over 3^1, element 1*g1)")


@pytest.mark.parametrize("name, field", [
    ("dihedral:8", GF2), ("dihedral:8", GF4), ("dihedral:8", GF8),
    ("quaternion:8", GF2), ("quaternion:8", GF4), ("quaternion:8", GF8),
])
def test_certificate_names_the_least_key_whose_involute_is_missing(name, field):
    # drop the involutes of a few x with x* != x: the least remaining key whose
    # involute is gone, found here by the row route, is the element named
    group = build(name)
    ctx, sigma, keys = _scan(group, field)
    star = ctx.pack(ctx.unpack(keys)[:, sigma])
    moved = np.flatnonzero(star != keys)
    rng = np.random.default_rng(field.order)
    for picks in (moved[:1], moved[-1:], rng.choice(moved, size=5, replace=False)):
        kept = keys[~np.isin(keys, star[picks])]
        missing = ~np.isin(ctx.pack(ctx.unpack(kept)[:, sigma]), kept)
        witness = ga.from_codes(ctx.field, ctx.group, ctx.unpack(kept[missing][:1])[0])
        with pytest.raises(InternalInconsistency) as exc:
            _certify(ctx, sigma, kept)
        assert str(exc.value) == (f"unitary set is not closed under the involution "
                                  f"({name} over {field.literal()}, "
                                  f"element {ga.format_algebra_literal(witness)})")


def _involutions(group, rng, count):
    """The canonical star and count random involutions g -> t g^-1 t^-1 with
    t^2 central, each validated by involution_from_map."""
    center = set(group.special_sets().center)
    ts = [t for t in group.elements() if group.mul(t, t) in center]
    sigmas = [ga.canonical_star(group).sigma]
    for t in rng.choice(ts, size=count):
        t = int(t)
        sigmas.append(ga.involution_from_map(group, [
            group.mul(group.mul(t, group.inverse(g)), group.inverse(t)) for g in group.elements()]).sigma)
    return [np.array(sig, dtype=np.intp) for sig in sigmas]


@pytest.mark.parametrize("name, field", [
    ("dihedral:8", GF2), ("quaternion:8", GF4), ("dihedral:8", GF8), ("abelian:2:[1,2]", GF8),
    ("dihedral:16", GF2), ("quaternion:16", GF4), ("semidihedral:16", GF8),
    ("elementary_abelian:2:4", GF8), ("cyclic:9", GF3), ("heisenberg:3", GF3),
])
def test_involute_keys_match_the_row_route(name, field):
    # random keys fill the whole key range, 48 bits for order 16 over GF(8),
    # and run past one batch; the oracle's own key set is added wherever its
    # scan is small
    group = build(name)
    ctx = AlgebraContext(field, group)
    rng = np.random.default_rng(group.n * field.order)
    keys = rng.integers(0, ctx.q ** ctx.n, size=DEFAULT_BATCH + 3000, dtype=np.uint64)
    keys[:2] = (0, ctx.q ** ctx.n - 1)
    key_sets = [keys]
    if ctx.q ** (ctx.n - 1) <= 1 << 21:
        key_sets.append(ctx.unitary_keys(np.array(ga.canonical_star(group).sigma, dtype=np.intp)))
    for sigma in _involutions(group, rng, 3) + [rng.permutation(group.n)]:
        for k in key_sets:
            expected = ctx.pack(ctx.unpack(k)[:, sigma])
            assert ctx.involute_keys(k, sigma).tobytes() == expected.tobytes(), sigma


@pytest.mark.parametrize("field", [GF2, GF4, GF8])
def test_involute_keys_under_the_relabeled_d8_involution(field):
    relabeled, inv = _d8_by_reflections()
    ctx = AlgebraContext(field, relabeled)
    sigma = np.array(inv.sigma, dtype=np.intp)
    keys = ctx.unitary_keys(sigma)
    assert ctx.involute_keys(keys, sigma).tobytes() == ctx.pack(ctx.unpack(keys)[:, sigma]).tobytes()
    _certify(ctx, sigma, keys)


# --- S_H -------------------------------------------------------------------------------

def test_s_h_d8():
    size, samples = un.s_h_enumerate(build("dihedral:8"), 2, GF2)
    assert size == 2
    assert all(s.is_normalized_unit() for s in samples)


def test_s_h_c4_is_trivial():
    c4 = build("cyclic:4")
    size, samples = un.s_h_enumerate(c4, 2, GF2)
    assert size == 1
    assert samples[0] == ga.algebra_one(GF2, c4)


def test_s_h_upper_bound_tight_for_d8():
    d8 = build("dihedral:8")
    size, _ = un.s_h_enumerate(d8, 2, GF2)
    g2 = len(d8.special_sets().order_two)
    t = len(d8.square_roots(2))
    assert size <= GF2.order ** ((d8.n - g2 + t) // 4) == 2


def test_s_h_requires_char2():
    with pytest.raises(OddCharacteristic):
        un.s_h_enumerate(build("cyclic:9"), 1, GF3)


def test_s_h_requires_central_involution():
    with pytest.raises(NotCentralInvolution):
        un.s_h_enumerate(build("dihedral:8"), 4, GF2)


def _scalar_s_h(group, c, field):
    """S_H = {x x* : Psi(x) unitary} over every normalized x, in scalar arithmetic."""
    star = ga.canonical_star(group)
    ideal, psi, _ = ga.ideal_and_quotient(group, group.subgroup_generated([c]), field)
    bar_star = ga.canonical_star(ideal.quotient_group)
    bar_one = ga.algebra_one(field, ideal.quotient_group)
    out = set()
    for coeffs in itertools.product(field.elements(), repeat=group.n):
        x = ga.AlgebraElement(field, group, coeffs)
        if not x.is_normalized_unit():
            continue
        u = psi(x)
        if u * ga.apply_involution(u, bar_star) == bar_one:
            out.add(x * ga.apply_involution(x, star))
    return out


@pytest.mark.parametrize("name", ["dihedral:8", "quaternion:8", "abelian:2:[1,2]"])
def test_s_h_matches_scalar_brute_force(name):
    group = build(name)
    for c in group.special_sets().central_order_two:
        size, samples = un.s_h_enumerate(group, c, GF2, max_samples=1 << 20)
        expected = _scalar_s_h(group, c, GF2)
        assert size == len(samples) == len(expected), (name, c)
        assert set(samples) == expected, (name, c)


def _batch_s_h(group, c, field):
    """Sorted keys of S_H = {x x* : x normalized, Psi(x) unitary}, over every
    normalized unit of FG in batches: Psi adds the coefficients of each coset of <c>."""
    ctx = AlgebraContext(field, group)
    gbar, projection = group.quotient(group.subgroup_generated([c]))
    bctx = AlgebraContext(field, gbar)
    parts = []
    for X in ctx.normalized_batches():
        U = np.zeros((X.shape[0], gbar.n), dtype=np.uint16)
        for g, h in enumerate(projection):
            U[:, h] ^= X[:, g]
        parts.append(ctx.pack(ctx.norm(X[bctx.is_one(bctx.norm(U, bctx.star))], ctx.star)))
    return np.unique(np.concatenate(parts))


CHAR2_SMALL_CELLS = [(entry.name, m) for m, max_order in ((1, 16), (2, 8))
                     for entry in catalog_entries(max_order, 2)]


@pytest.mark.parametrize("name, m", CHAR2_SMALL_CELLS)
def test_s_h_matches_the_batch_reference(name, m):
    group, field = build(name), make_field(2, m)
    ctx = AlgebraContext(field, group)
    for c in group.special_sets().central_order_two:
        size, samples = un.s_h_enumerate(group, c, field, max_samples=1 << 20)
        rows = np.array([[a.code for a in x.coeffs] for x in samples], dtype=np.uint16)
        assert size == len(samples), (name, c)
        assert np.array_equal(np.sort(ctx.pack(rows)), _batch_s_h(group, c, field)), (name, c)


@pytest.mark.parametrize("name, m", CHAR2_SMALL_CELLS)
def test_sum_keys_match_row_sums(name, m):
    # an S_H key is a point's key plus a key of W; as rows, the point's element
    # plus an element of span{(g + g^-1)(1+c)} over the N1 orbits, which is W
    group, field = build(name), make_field(2, m)
    ctx = AlgebraContext(field, group)
    for c in group.special_sets().central_order_two:
        orbit, keys = un._fiber_scan(group, c, field, search_cap=un.DEFAULT_SEARCH_CAP)
        orbits = un._n1_orbits(group, c, field)
        basis = np.zeros((len(orbits), group.n), dtype=np.uint16)
        basis[np.arange(len(orbits))[:, None], orbits] = 1
        w = np.concatenate(list(ctx.span_batches(basis)))
        assert w.shape[0] == orbit.w_size, (name, c)
        point_rows = orbit.elements(orbit.points * np.uint64(orbit.w_size))
        sums = ctx.add(point_rows[:, None, :], w[None, :, :]).reshape(-1, group.n)
        assert np.array_equal(np.unique(ctx.pack(sums)), np.sort(ctx.pack(orbit.elements(keys)))), (name, c)
        assert np.array_equal(keys, np.sort(keys)), (name, c)


def _forge_norm_at_order(monkeypatch, n, indices):
    """AlgebraContext.norm with 1 added at the given indices of every product over a group of order n."""
    norm = AlgebraContext.norm

    def forged(self, X, sigma):
        Y = norm(self, X, sigma)
        if self.n == n:
            Y[:, list(indices)] ^= self.tabs.one
        return Y

    monkeypatch.setattr(AlgebraContext, "norm", forged)
    monkeypatch.setattr(un, "_ORBITS", {})


def test_s_h_failure_names_group_field_c_and_element(monkeypatch):
    # Q16, c = g4: g2 squares to c, so adding 1 at g2 and g2 c = g6 to every
    # L L* keeps the three gamma facts and moves each point off the orbit's,
    # and the lifted Schreier generators come out unsolvable
    q16, c = build("quaternion:16"), 4
    assert q16.mul(2, 2) == c and q16.mul(2, c) == 6
    _forge_norm_at_order(monkeypatch, 16, (2, 6))
    with pytest.raises(InternalInconsistency) as exc:
        un.s_h_enumerate(q16, c, GF2)
    assert str(exc.value) == ("a Schreier generator is not solvable "
                              "(quaternion:16 over 2^1, c = g4, element 1*g1)")


@pytest.mark.parametrize("flip, what", [
    # 1 alone: Psi(L L*) gains 1 at the identity
    ((0,), "Psi(L L*) is not 1"),
    # g + gc with g^2 not in <c>: Psi adds 2 g = 0, gamma changes at g but not at g^-1
    ((1, 5), "gamma of L L* is not symmetric"),
    # 1 + c: Psi adds 1 + 1 = 0, and gamma at 1 becomes 1
    ((0, 4), "gamma of L L* is not 0 on the image of G{2}"),
], ids=["psi-not-1", "gamma-not-symmetric", "gamma-not-0-on-G2"])
def test_s_h_check_names_the_element_that_breaks_it(monkeypatch, flip, what):
    # every L L* of the Q16/GF(4) orbit, c = g4, moved off exactly one fact;
    # the first orbit product is lift(g1), and "10" is the literal of 1 in GF(4)
    q16, c = build("quaternion:16"), 4
    assert q16.mul(1, c) == 5 and q16.inverse(1) == 7 and q16.mul(1, 1) not in (0, c)
    _forge_norm_at_order(monkeypatch, 16, flip)
    with pytest.raises(InternalInconsistency) as exc:
        un.s_h_enumerate(q16, c, GF4)
    assert str(exc.value) == f"{what} (quaternion:16 over 2^2, c = g4, element 10*g1)"


# --- characteristic-two recursion -----------------------------------------------------

def test_char2_regressions():
    assert un.unitary_order_char2(build("dihedral:8"), GF2).order == 64
    assert un.theta(build("dihedral:8"), GF2) == 1
    q8 = build("quaternion:8")
    res = un.unitary_order_char2(q8, GF2)
    assert res.order == 64 and res.theta == 4
    sd = build("semidihedral:16")
    res = un.unitary_order_char2(sd, GF2)
    assert res.order == 2 ** 11 and res.theta == 2


def test_char2_requires_char2_field():
    with pytest.raises(OddCharacteristic):
        un.unitary_order_char2(build("cyclic:4"), GF3)
    with pytest.raises(OddCharacteristic):
        un.theta(build("cyclic:4"), GF3)


def test_char2_requires_2_group():
    with pytest.raises(NotPGroupOverField):
        un.unitary_order_char2(build("cyclic:9"), GF2)


def test_char2_recursion_runs_down_to_order_one():
    res = un.unitary_order_char2(build("cyclic:4"), GF2)
    assert res.method == "recursive" and res.order == 8
    assert (res.subsidiary["c"], res.subsidiary["vbar_order"], res.subsidiary["s_h_size"]) == (2, 2, 1)
    trivial = un.unitary_order_char2(build("cyclic:1"), GF4)
    assert (trivial.order, trivial.subsidiary) == (1, None)
    assert un._unitary_generators(build("cyclic:1"), GF4, un.DEFAULT_SEARCH_CAP)[1].shape[0] == 0


def test_char2_choice_of_central_involution_does_not_matter():
    for name in ("elementary_abelian:2:3", "abelian:2:[1,2]", "elementary_abelian:2:4",
                 "abelian:2:[1,1,2]"):
        group = build(name)
        orders = {
            un.unitary_order_char2(group, GF2, c=c).order
            for c in group.special_sets().central_order_two
        }
        assert len(orders) == 1, name


def _closure_keys(ctx, generators):
    """Sorted keys of the group the rows generate, by Dimino's algorithm: each
    generator not yet reached extends the group so far, H, by right cosets H e
    until right multiplication by every generator so far stays inside."""
    known = np.array([ctx.tabs.one], dtype=np.uint64)
    for i in range(generators.shape[0]):
        if keys_contain(known, ctx.pack(generators[i:i + 1]))[0]:
            continue
        H = ctx.unpack(known)
        reps = ctx.identity[None, :]
        while reps.shape[0]:
            candidates = ctx.mul(np.repeat(reps, i + 1, axis=0),
                                 np.tile(generators[:i + 1], (reps.shape[0], 1)))
            fresh = []
            for row in candidates:
                if not keys_contain(known, ctx.pack(row[None, :]))[0]:
                    known = np.union1d(known, ctx.pack(ctx.mul(H, row[None, :])))
                    fresh.append(row)
            reps = np.array(fresh, dtype=np.uint16).reshape(-1, ctx.n)
    return known


@pytest.mark.parametrize("field, max_order", [(GF2, 16), (GF4, 8), (GF8, 8)])
def test_generators_generate_the_oracle_set(field, max_order):
    for entry in catalog_entries(max_order, 2):
        group = entry.build()
        order, generators, _ = un._unitary_generators(group, field, un.DEFAULT_SEARCH_CAP)
        oracle = un._oracle_set(group, ga.canonical_star(group), field)
        assert order == oracle.size, entry.name
        closure = _closure_keys(AlgebraContext(field, group), generators)
        assert np.array_equal(closure, oracle), entry.name


def test_char2_recursion_builds_one_context_per_level(monkeypatch):
    # D16 -> D8 -> C2 x C2 -> C2 -> 1: each level's context also serves the level above
    built, init = [], AlgebraContext.__init__

    def counting_init(self, field, group):
        built.append(group.n)
        init(self, field, group)

    d16 = build("dihedral:16")
    monkeypatch.setattr(AlgebraContext, "__init__", counting_init)
    un.clear_caches()
    un.unitary_order_char2(d16, GF2)
    assert sorted(built) == [1, 2, 4, 8, 16]


def test_oracle_builds_one_context(monkeypatch):
    # the scan's context also certifies; the witnesses are unpacked without one
    built, init = [], AlgebraContext.__init__

    def counting_init(self, field, group):
        built.append(group.n)
        init(self, field, group)

    q8 = build("quaternion:8")
    monkeypatch.setattr(AlgebraContext, "__init__", counting_init)
    un.clear_caches()
    result = un.unitary_enumerate_oracle(q8, ga.canonical_star(q8), GF8)
    assert built == [8]
    ctx = AlgebraContext(GF8, q8)
    keys = un._oracle_set(q8, ga.canonical_star(q8), GF8)[:un.DEFAULT_MAX_WITNESSES]
    assert result.elements == tuple(ga.from_codes(GF8, q8, row) for row in ctx.unpack(keys))


def test_char2_refuses_by_the_rows_of_its_own_route():
    e32 = build("elementary_abelian:2:5")
    assert un.theta(e32, GF2) == 1  # |V| = 2^31 from 31 generators, never listed
    # C16 over <c>: at most 2 points (the bound), each times the 5 generators of
    # V(F C8); then S_H lists 2 cosets of |W| = 2^3
    with pytest.raises(SearchSpaceTooLarge) as exc:
        un.s_h_enumerate(build("cyclic:16"), 8, GF2, search_cap=12)
    assert exc.value.size == 16 and exc.value.context == "S_H cosets over cyclic:16"
    with pytest.raises(SearchSpaceTooLarge) as exc:
        un.s_h_enumerate(build("cyclic:16"), 8, GF2, search_cap=9)
    assert exc.value.size == 10 and exc.value.context == "S_H coset orbit over cyclic:16"
    # order 64 over GF(2) has 2^64 elements, but the recursion keys in S_H's own coordinates
    assert un.theta(build("dihedral:64"), GF2) == 1
    # keys wider than 63 bits are refused whatever the cap: S_H of C64 over GF(16) has
    # 16 coordinates of 4 bits, and a point of Q256 over GF(2) |T_c|/2 = 65 of 1 bit
    c64, gf16 = build("cyclic:64"), make_field(2, 4)
    assert un.theta(c64, gf16) == 2
    with pytest.raises(SearchSpaceTooLarge) as exc:
        un.s_h_enumerate(c64, c64.special_sets().central_order_two[0], gf16, search_cap=1 << 80)
    assert (exc.value.size, exc.value.context) == (1 << 64, "S_H keys over cyclic:64")
    with pytest.raises(SearchSpaceTooLarge) as exc:
        un.theta(build("quaternion:256"), GF2, search_cap=1 << 80)
    assert (exc.value.size, exc.value.context) == (1 << 65, "S_H coset keys over quaternion:256")


def test_theta_order_32_regressions():
    named = {"dihedral:32": 1, "quaternion:32": 4, "elementary_abelian:2:5": 1}
    checked = 0
    for entry in catalog_entries(32, 2):
        group = entry.build()
        if group.n != 32:
            continue
        checked += 1
        value = un.theta(group, GF2)
        if entry.name in named:
            assert value == named[entry.name], entry.name
        if group.is_abelian():
            assert value == len(group.special_sets().square_order_two), entry.name
    assert checked == 9


# (m, order): the cells with more than 2^63 elements that the recursion now reaches,
# and order 16 over GF(8) below them; the quaternion cells marked stay past the orbit bound
FRONTIER_CELLS = [(1, 64), (2, 32), (3, 16), (4, 16), (8, 8)]
REFUSED_BY_THE_ORBIT_BOUND = {("quaternion:16", 4), ("quaternion:8", 8)}


@pytest.mark.parametrize("m, order", FRONTIER_CELLS)
def test_frontier_theta_is_c_independent_and_matches_the_catalog(m, order):
    field = make_field(2, m)
    for entry in catalog_entries(order, 2):
        if entry.order != order:
            continue
        group = entry.build()
        centrals = group.special_sets().central_order_two
        if (entry.name, m) in REFUSED_BY_THE_ORBIT_BOUND:
            with pytest.raises(SearchSpaceTooLarge) as exc:
                un.unitary_order_char2(group, field)
            assert exc.value.context == f"S_H coset orbit over {entry.name}"
            continue
        orders = {un.unitary_order_char2(group, field, c=c).order for c in centrals}
        assert len(orders) == 1, (entry.name, m)
        value = un.theta_from_order(orders.pop(), field, group)
        assert value.denominator == 1, (entry.name, m)
        assert value == entry.expected_facts.get("theta", value), (entry.name, m)


def test_theta_order_16_field_independent():
    for entry in catalog_entries(16, 2):
        group = entry.build()
        if group.n == 16:
            assert un.theta(group, GF4) == un.theta(group, GF2), entry.name


def test_theta_abelian_equals_square_involutions():
    for name in ("cyclic:4", "elementary_abelian:2:2", "cyclic:8", "abelian:2:[1,2]"):
        group = build(name)
        expected = len(group.special_sets().square_order_two)
        assert un.theta(group, GF2) == expected, name


def test_theta_q8_across_fields():
    q8 = build("quaternion:8")
    assert un.theta(q8, GF2) == un.theta(q8, GF4) == 4


def test_theta_trivial_group():
    assert un.theta(build("cyclic:1"), GF2) == 1


def test_theta_divisibility_all_small_groups():
    for entry in catalog_entries(16, 2):
        group = entry.build()
        value = un.theta(group, GF2)
        assert value.denominator == 1 and value >= 1, entry.name


def test_lemma1_identity_spot_checks():
    for name, c in (("dihedral:8", 2), ("quaternion:8", 2), ("cyclic:16", 8)):
        group = build(name)
        star = ga.canonical_star(group)
        full = un.unitary_enumerate_oracle(group, star, GF2).order
        gbar, _ = group.quotient(group.subgroup_generated([c]))
        bar = un.unitary_enumerate_oracle(gbar, ga.canonical_star(gbar), GF2).order
        s_h, _ = un.s_h_enumerate(group, c, GF2)
        assert full * s_h == GF2.order ** (group.n // 2) * bar, name


# --- bounds and constructions ------------------------------------------------------------

def test_bounds_d8():
    rep = un.bounds_and_constructions(build("dihedral:8"), 2, GF2)
    assert rep.t_c_size == 2 and rep.t_c_commuting
    assert rep.upper_bound == 2 and rep.lower_bound == 1
    assert rep.s_h_size == 2
    assert rep.n1_size == 1 and rep.n2_size == 1
    assert rep.n1_inside_s_h and rep.n2_inside_s_h and rep.product_inside_s_h
    assert rep.generator_identity_ok


def test_bounds_does_not_import_numpy_ma():
    """A plain np.unique imports numpy.ma on first use (numpy 2.4), which costs
    a fresh process 10-20 ms; the N2 span's tau codes are
    deduplicated by sorted_unique instead. Checked in a fresh interpreter,
    over GF(4) where tau has two distinct values."""
    code = ("import sys\n"
            "from unitary_lab import unitary\n"
            "from unitary_lab.finite_field import make_field\n"
            "from unitary_lab.group_catalog import build\n"
            "group, field = build('dihedral:8'), make_field(2, 2)\n"
            "assert 'numpy.ma' not in sys.modules\n"
            "report = unitary.bounds_and_constructions(group, 2, field)\n"
            "assert report.n2_size == 2, report\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(un.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_bounds_c4():
    rep = un.bounds_and_constructions(build("cyclic:4"), 2, GF2)
    assert rep.upper_bound == 2 and rep.lower_bound == 1
    assert rep.s_h_size == 1


def test_bounds_q8_skips_n2():
    rep = un.bounds_and_constructions(build("quaternion:8"), 2, GF2)
    assert not rep.t_c_commuting
    assert rep.lower_bound is None and rep.n2_size is None
    assert rep.s_h_size <= rep.upper_bound
    assert rep.n1_size == 2 ** ((8 - 2 - 6) // 4) == 1


def test_bounds_gf4_nontrivial_n2():
    rep = un.bounds_and_constructions(build("dihedral:8"), 2, GF4)
    assert rep.n2_size == (GF4.order // 2) ** (rep.t_c_size // 2) == 2
    assert rep.n2_inside_s_h and rep.generator_identity_ok
    assert Fraction(rep.s_h_size) >= rep.lower_bound
    assert rep.s_h_size <= rep.upper_bound


@pytest.mark.parametrize("points, n1_inside, n2_inside", [
    ([0, 2, 3], True, False),   # N2's point 1 (im tau = {0, 1} over GF(4)) is missing
    ([1, 2, 3], False, False),  # point 0, W itself, holds N1 and N2's point 0
])
def test_bounds_look_n1_and_n2_up_among_the_points(monkeypatch, points, n1_inside, n2_inside):
    # D8 over GF(4), c = g2: the orbit has the 4 points 0..3 of one 2-bit field on Tb
    d8 = build("dihedral:8")
    orbit = un._coset_orbit(d8, 2, GF4, un.DEFAULT_SEARCH_CAP)
    assert orbit.points.tolist() == [0, 1, 2, 3] and orbit.support.shape[0] == 1
    forged = dataclasses.replace(orbit, points=np.array(points, dtype=np.uint64))
    monkeypatch.setattr(un, "_coset_orbit", lambda *args: forged)
    rep = un.bounds_and_constructions(d8, 2, GF4)
    assert (rep.n1_inside_s_h, rep.n2_inside_s_h, rep.product_inside_s_h) == (n1_inside, n2_inside, n2_inside)


def test_bounds_require_2_group_like_the_other_char2_routes():
    # C6 has the central involution 3, but its order is not a power of 2
    c6 = build("cyclic:6")
    routes = (lambda: un.bounds_and_constructions(c6, 3, GF2),
              lambda: un.s_h_enumerate(c6, 3, GF2),
              lambda: un.unitary_order_char2(c6, GF2, c=3))
    messages = set()
    for route in routes:
        with pytest.raises(NotPGroupOverField) as exc:
            route()
        messages.add(str(exc.value))
    assert messages == {"|G|=6 for cyclic:6 is not a power of char(F)=2"}


def test_n1_failure_names_group_field_and_c(monkeypatch):
    orbits = un._n1_orbits
    monkeypatch.setattr(un, "_n1_orbits", lambda group, c, field: orbits(group, c, field)[1:])
    with pytest.raises(InternalInconsistency) as exc:
        un.bounds_and_constructions(build("dihedral:16"), 4, GF4)
    assert str(exc.value) == ("0 orbits, not (|G|-|G{2}|-|T_c|)/4 = 1 "
                              "(dihedral:16 over 2^2, c = g4)")


def _reference_n1_orbits(group, c):
    """The {g, g^-1, gc, (gc)^-1} orbits over g with g^2 not in <c>, one group
    element at a time, each sorted, in order of their least member."""
    seen, orbits = set(), []
    for g in group.elements():
        if g in seen or group.mul(g, g) in {0, c}:
            continue
        orbit = {g, group.inverse(g), group.mul(g, c), group.mul(group.inverse(g), c)}
        assert len(orbit) == 4
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _reference_generator_identity(group, field, c, pair_reps):
    """(1 + w g + w g^2)(1 + w g + w g^2)* = 1 + (w + w^2) g (1+c) over every
    g in pair_reps and w in F, in scalar arithmetic."""
    star = ga.canonical_star(group)
    one = ga.algebra_one(field, group)
    for g in pair_reps:
        for omega in field.elements():
            x = one + ga.basis_element(field, group, g).scale(omega) \
                    + ga.basis_element(field, group, group.mul(g, g)).scale(omega)
            ghat = ga.basis_element(field, group, g) + ga.basis_element(field, group, group.mul(g, c))
            if x * ga.apply_involution(x, star) != one + ghat.scale(omega + omega * omega):
                return False
    return True


@pytest.mark.parametrize("field, max_order", [(GF2, 32), (GF4, 16), (GF8, 8)])
def test_n1_orbits_and_generator_identity_match_the_scalar_references(field, max_order):
    cells = [(entry.name, entry.build(), c) for entry in catalog_entries(max_order, 2)
             for c in entry.build().special_sets().central_order_two]
    assert cells
    for name, group, c in cells:
        orbits = un._n1_orbits(group, c, field)
        assert [tuple(row) for row in orbits.tolist()] == _reference_n1_orbits(group, c), (name, c)
        ctx = AlgebraContext(field, group)
        t_c = group.square_roots(c)
        pair_reps = sorted({min(g, group.inverse(g)) for g in t_c})
        assert un._check_generator_identity(ctx, c, pair_reps) == \
            _reference_generator_identity(group, field, c, pair_reps), (name, c)
        for g in group.elements():  # every g alone, in T_c or not
            assert un._check_generator_identity(ctx, c, [g]) == \
                _reference_generator_identity(group, field, c, [g]), (name, c, g)


def test_generator_identity_fails_outside_t_c():
    # a reflection g of D8 is its own involute and g^2 = 1, so x x* = x^2 = 1,
    # while 1 + tau(w) g (1+c) differs from 1 for w outside GF(2)
    d8 = build("dihedral:8")
    c = d8.special_sets().central_order_two[0]
    reflections = [g for g in d8.elements() if g != 0 and d8.mul(g, g) == 0 and g != c]
    ctx = AlgebraContext(GF4, d8)
    for g in reflections:
        assert g not in d8.square_roots(c)
        assert not un._check_generator_identity(ctx, c, [g])
        assert not _reference_generator_identity(d8, GF4, c, [g])
    pair_reps = sorted({min(g, d8.inverse(g)) for g in d8.square_roots(c)})
    assert un._check_generator_identity(ctx, c, pair_reps)
    assert not un._check_generator_identity(ctx, c, pair_reps + reflections[:1])


@pytest.mark.parametrize("name", [entry.name for entry in catalog_entries(16, 2)])
def test_char2_route_and_bounds_read_one_bracket(name):
    group = build(name)
    for c in group.special_sets().central_order_two:
        sub = un.unitary_order_char2(group, GF2, c=c).subsidiary
        rep = un.bounds_and_constructions(group, c, GF2)
        assert (sub["t_c_size"], sub["t_c_commuting"], sub["s_h_size"],
                sub["s_h_upper_bound"], sub["s_h_lower_bound"]) == \
            (rep.t_c_size, rep.t_c_commuting, rep.s_h_size, rep.upper_bound, rep.lower_bound), c


# --- order recovery -------------------------------------------------------------------------

def test_recover_odd():
    assert un.recover_group_order(3, GF3, 3) == 3
    assert un.recover_group_order(3 ** 13, GF3, 3) == 27
    assert un.recover_group_order(25, GF5, 5) == 5


def test_recover_char2():
    assert un.recover_group_order(64, GF2, 2) == 8   # both D8 and Q8 land here
    assert un.recover_group_order(1, GF2, 2) == 1
    assert un.recover_group_order(2, GF2, 2) == 2
    assert un.recover_group_order(2 ** 11, GF2, 2) == 16
    assert un.recover_group_order(32, GF4, 2) == 4


def test_recover_rejects_non_power_odd():
    with pytest.raises(ValueError):
        un.recover_group_order(10, GF3, 3)


def test_recover_field_char_must_match():
    with pytest.raises(ValueError):
        un.recover_group_order(4, GF2, 3)


# --- result serialization ---------------------------------------------------------------------

def test_result_to_dict_uses_decimal_strings():
    res = un.unitary_order_char2(build("semidihedral:16"), GF2)
    payload = res.to_dict()
    assert payload["order"] == "2048"
    assert payload["theta"] == "2"
    assert payload["subsidiary"]["s_h_size"] == "8"
    assert payload["subsidiary"]["t_c_commuting"] is False


def test_recover_surfaces_empty_candidate_set():
    from unitary_lab.errors import Ambiguous
    with pytest.raises(Ambiguous) as exc:
        un.recover_group_order(3, GF2, 2)  # no 2-power bracket contains 3
    assert exc.value.candidates == []


def test_oracle_with_non_canonical_involution_char2():
    # conjugate-inverse g -> r g^-1 r^-1 on D8: arises from the group, differs
    # from the canonical star on reflections
    d8 = build("dihedral:8")
    sigma = [d8.mul(d8.mul(1, d8.inverse(g)), 3) for g in d8.elements()]
    inv = ga.involution_from_map(d8, sigma, name="conj-inverse")
    assert inv.sigma != ga.canonical_star(d8).sigma
    res = un.unitary_enumerate_oracle(d8, inv, GF2, max_witnesses=None)
    one = ga.algebra_one(GF2, d8)
    for x in res.elements:
        assert x * ga.apply_involution(x, inv) == one
    assert GF2.order ** (d8.n - 1) % res.order == 0  # Lagrange inside V(FG)
