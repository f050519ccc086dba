"""Unitary orders: pointwise checks, the three computation routes, bounds."""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from unitary_lab import engine, finite_field
from unitary_lab import group_algebra as ga
from unitary_lab import unitary as un
from unitary_lab.engine import AlgebraContext, constant_planes, keys_contain
from unitary_lab.errors import (
    EvenCharacteristic,
    IndexOutOfRange,
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
from unitary_lab.group_core import Group, validate_group

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


def test_oracle_groups_with_equal_tables_give_results_over_their_own_group():
    # one Cayley table under two ids: each result names, counts and lists its own group
    a, b = build("elementary_abelian:2:3"), abelian(2, [1, 1, 1])
    assert a == b and a.id != b.id
    ra, rb = (un.unitary_enumerate_oracle(g, ga.canonical_star(g), GF2, max_witnesses=5)
              for g in (a, b))
    assert (ra.group_id, rb.group_id) == (a.id, b.id)
    assert ra.order == rb.order == 2 ** 7
    assert all(x.group is a for x in ra.elements) and all(x.group is b for x in rb.elements)
    assert [x.coeffs for x in ra.elements] == [x.coeffs for x in rb.elements]


def test_oracle_call_keeps_none_of_its_key_set():
    # C4 x C2 over GF(8) is scanned: its 2^16 keys (512 KiB) outlive no call.
    # Every one of the 2^21 normalized units of E8 over GF(8), and of the 2^24 of
    # C2 x C2 over GF(2^8), is unitary: 16 and 128 MiB of keys, none of which is
    # even built, as the generators prove the whole space unitary
    for name, field, full in (("abelian:2:[1,2]", GF8, False), ("elementary_abelian:2:3", GF8, True),
                              ("elementary_abelian:2:2", make_field(2, 8), True)):
        group = build(name)
        un.clear_caches()
        tracemalloc.start()
        try:
            result = un.unitary_enumerate_oracle(group, ga.canonical_star(group), field, max_witnesses=0)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (result.order == field.order ** (group.n - 1)) == full, name
        assert retained < 1 << 16, (name, retained)
        assert not full or peak < 1 << 20, (name, peak)


@pytest.mark.parametrize("name, m", [("elementary_abelian:2:3", 3), ("elementary_abelian:2:2", 8),
                                     ("elementary_abelian:2:4", 1), ("cyclic:2", 16), ("cyclic:1", 1)])
def test_full_space_oracle_never_calls_the_scan(monkeypatch, name, m):
    # an elementary abelian group under its star in characteristic two: every
    # normalized unit is unitary, and the witnesses are the least candidates,
    # i's digits at indices 1..n-1 and 1 + their sum at index 0
    group, field = build(name), make_field(2, m)
    space = field.order ** (group.n - 1)
    rows = np.zeros((min(10, space), group.n), dtype=np.uint16)
    rows[:, 1:] = engine.digits(np.arange(rows.shape[0], dtype=np.uint64), field.order, group.n - 1)
    rows[:, 0] = 1 ^ np.bitwise_xor.reduce(rows[:, 1:], axis=1)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle scanned a full space")

    monkeypatch.setattr(AlgebraContext, "unitary_keys", refuse)
    result = un.unitary_enumerate_oracle(group, ga.canonical_star(group), field, max_witnesses=10)
    assert result.order == space
    assert result.elements == tuple(ga.from_codes(field, group, row) for row in rows)
    assert result.subsidiary["witnesses_truncated"] == (space > 10)


def test_equal_results_hash_equal():
    # subsidiary is a dict: it takes part in equality, not in the hash
    d8 = build("dihedral:8")
    for compute in (lambda: un.unitary_order_char2(d8, GF2),
                    lambda: un.unitary_enumerate_oracle(d8, ga.canonical_star(d8), GF2)):
        first, again = compute(), compute()
        assert first == again and first.subsidiary
        assert hash(first) == hash(again)
        assert len({first, again}) == 1


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


def _scan_with_zero(monkeypatch):
    """Make the oracle's scan add the key of the zero element, 0, which is no unit."""
    scan = AlgebraContext.unitary_keys
    monkeypatch.setattr(AlgebraContext, "unitary_keys",
                        lambda ctx, sigma: np.concatenate(([np.uint64(0)], scan(ctx, sigma))))


@pytest.mark.parametrize("name, field", [("quaternion:8", GF2), ("cyclic:9", GF3)])
def test_oracle_refuses_a_scan_that_adds_the_zero_element(monkeypatch, name, field):
    # the walk takes 0, the least key, as its first generator, and 0 0* = 0 != 1
    _scan_with_zero(monkeypatch)
    group = build(name)
    with pytest.raises(InternalInconsistency) as exc:
        un.unitary_enumerate_oracle(group, ga.canonical_star(group), field)
    assert str(exc.value) == (f"a generator of the unitary set is not unitary "
                              f"({name} over {field.literal()}, element 0)")


def test_oracle_order_check_names_group_and_field(monkeypatch):
    # with the certificate out of the way, a scan that adds the zero element
    # reports one element more than there are normalized units; the trivial
    # group over GF(3) is scanned, as odd characteristic always is
    _scan_with_zero(monkeypatch)
    monkeypatch.setattr(un, "_subgroup_certificate", lambda *args, **kwargs: None)
    c1 = build("cyclic:1")
    un.clear_caches()
    try:
        with pytest.raises(InternalInconsistency) as exc:
            un.unitary_enumerate_oracle(c1, ga.canonical_star(c1), GF3)
    finally:
        un.clear_caches()
    assert str(exc.value) == "unitary order exceeds the normalized unit count (cyclic:1 over 3^1)"


# --- the subgroup certificate, called directly ------------------------------------------

def _scan(group, field):
    """The oracle's uncertified key set under the canonical star, with its context."""
    ctx = AlgebraContext(field, group)
    sigma = np.array(ga.canonical_star(group).sigma, dtype=np.intp)
    return ctx, sigma, ctx.unitary_keys(sigma)


def _certify(ctx, sigma, keys):
    un._subgroup_certificate(ctx, keys, sigma)


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
    for key in keys[keys != ctx.identity[0]]:
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
        _certify(ctx, sigma, keys[keys != ctx.identity[0]])
    assert str(exc.value) == "unitary set misses the identity (quaternion:8 over 2^2, element 10*g0)"


def test_certificate_of_a_full_space_set_forms_no_product_and_still_needs_1(monkeypatch):
    # E4 over GF(4): every normalized unit is unitary. The oracle does not scan,
    # and proves the space through its generators on digit arrays, so it forms
    # no batch product; a scanned set of all 64 keys is walked and certified,
    # yet 1 is still required
    group = build("elementary_abelian:2:2")
    calls = []
    mul = AlgebraContext.mul
    monkeypatch.setattr(AlgebraContext, "mul", lambda *a: calls.append(a) or mul(*a))
    assert un.unitary_enumerate_oracle(group, ga.canonical_star(group), GF4).order == 64
    assert calls == []
    ctx, sigma, keys = _scan(group, GF4)
    assert keys.size == ctx.q ** (ctx.n - 1) == 64
    _certify(ctx, sigma, keys)
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, keys[keys != ctx.identity[0]])
    assert str(exc.value) == ("unitary set misses the identity "
                              "(elementary_abelian:2:2 over 2^2, element 10*g0)")


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


def test_certificate_walk_refuses_a_set_missing_an_involute():
    # {1, g1} in F3 C9: g1* = g8 is missing, and the walk finds g1 g1 = g2 outside first
    ctx, sigma, _ = _scan(build("cyclic:9"), GF3)
    rows = np.zeros((2, ctx.n), dtype=np.uint16)
    rows[0, 0] = rows[1, 1] = 1
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, np.sort(ctx.pack(rows)))
    assert str(exc.value) == ("product of two claimed unitary elements escapes the set "
                              "(cyclic:9 over 3^1, element 1*g2)")


def test_certificate_refuses_a_group_of_non_unitary_elements():
    # {1, g3, g6} in F3 C9 is a group; under the identity map g3 g3 = g6 != 1,
    # under the canonical star g3 g3* = g3 g6 = 1
    c9 = build("cyclic:9")
    ctx = AlgebraContext(GF3, c9)
    keys = np.array([1, 3 ** 3, 3 ** 6], dtype=np.uint64)
    identity = np.array(ga.involution_from_map(c9, range(9)).sigma, dtype=np.intp)
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, identity, keys)
    assert str(exc.value) == ("a generator of the unitary set is not unitary "
                              "(cyclic:9 over 3^1, element 1*g3)")
    _certify(ctx, np.array(ga.canonical_star(c9).sigma, dtype=np.intp), keys)


@pytest.mark.parametrize("name, field", [
    ("dihedral:8", GF2), ("dihedral:8", GF4), ("dihedral:8", GF8),
    ("quaternion:8", GF2), ("quaternion:8", GF4), ("quaternion:8", GF8),
])
def test_certificate_names_a_generator_that_is_not_unitary(name, field):
    # <u> for the least normalized u outside the oracle's set is a group, so
    # the walk accepts it; u is its least key but 1, the walk's first generator
    group = build(name)
    ctx, sigma, keys = _scan(group, field)
    candidates = np.arange(min(ctx.q ** ctx.n, 1 << 12), dtype=np.uint64)
    normalized = ctx.augmentation(ctx.unpack(candidates)) == ctx.identity[0]
    u = ctx.unpack(candidates[normalized & ~np.isin(candidates, keys)][:1])
    cyclic = _closure_keys(ctx, u)
    assert cyclic.size > 2 and cyclic[1] == ctx.pack(u)[0]
    witness = ga.from_codes(field, group, u[0])
    assert not un.is_unitary(witness, ga.canonical_star(group))
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, sigma, cyclic)
    assert str(exc.value) == (f"a generator of the unitary set is not unitary "
                              f"({name} over {field.literal()}, "
                              f"element {ga.format_algebra_literal(witness)})")
    if (name, field) == ("dihedral:8", GF2):
        assert str(exc.value) == ("a generator of the unitary set is not unitary "
                                  "(dihedral:8 over 2^1, element 1*g0 + 1*g1 + 1*g4)")


@pytest.mark.parametrize("field", [GF2, GF4, GF8])
def test_certificate_accepts_the_relabeled_d8_oracle_set(field):
    relabeled, inv = _d8_by_reflections()
    ctx = AlgebraContext(field, relabeled)
    sigma = np.array(inv.sigma, dtype=np.intp)
    _certify(ctx, sigma, ctx.unitary_keys(sigma))


# --- the full space: generators of the normalized units ---------------------------------

def _all_normalized_keys(ctx):
    return np.sort(ctx.pack(np.concatenate(list(ctx.normalized_batches()))))


def _named_element(exc, what, name, field, group):
    """The element that the refusal "what (name over field, element ...)" names."""
    prefix = f"{what} ({name} over {field.literal()}, element "
    message = str(exc.value)
    assert message.startswith(prefix) and message.endswith(")"), message
    return ga.parse_algebra_literal(field, group, message[len(prefix):-1])


@pytest.mark.parametrize("name, field", [("quaternion:8", GF2), ("cyclic:9", GF3)])
def test_oracle_refuses_a_scan_that_returns_every_normalized_unit(monkeypatch, name, field):
    # |V| is 64 of 128 and 81 of 6561: the whole space is a group, so the walk
    # accepts it, and some generator it took is not unitary; that one is named
    group = build(name)
    star = ga.canonical_star(group)
    monkeypatch.setattr(AlgebraContext, "unitary_keys", lambda ctx, sigma: _all_normalized_keys(ctx))
    with pytest.raises(InternalInconsistency) as exc:
        un.unitary_enumerate_oracle(group, star, field)
    named = _named_element(exc, "a generator of the unitary set is not unitary", name, field, group)
    assert named.is_normalized_unit()
    assert not un.is_unitary(named, star)


@pytest.mark.parametrize("name, field", [("elementary_abelian:2:2", GF4), ("cyclic:9", GF3)])
def test_certificate_refuses_a_full_space_set_with_a_stray_member(name, field):
    # every normalized unit but the largest, and 0 in its place: as many keys as
    # the space has, repeat-free and holding 1; over E4/GF(4) under its star every
    # generator of the normalized units is unitary, so only closure shows it
    group = build(name)
    ctx = AlgebraContext(field, group)
    forged = _all_normalized_keys(ctx)
    forged[-1] = 0
    forged = np.sort(forged)
    with pytest.raises(InternalInconsistency) as exc:
        _certify(ctx, np.array(ga.canonical_star(group).sigma, dtype=np.intp), forged)
    named = _named_element(exc, "product of two claimed unitary elements escapes the set", name, field, group)
    assert not keys_contain(forged, ctx.pack(np.array([[a.code for a in named.coeffs]], dtype=np.uint16)))[0]


@pytest.mark.parametrize("name, field", [
    ("cyclic:4", GF2), ("quaternion:8", GF2), ("dihedral:8", GF2), ("abelian:2:[1,2]", GF2),
    ("cyclic:4", GF4), ("cyclic:9", GF3), ("elementary_abelian:3:2", GF3),
])
def test_normalized_unit_generators_generate_every_normalized_unit(name, field):
    group = build(name)
    ctx = AlgebraContext(field, group)
    d = un._normalized_unit_generators(field, group)
    assert d.shape == (field.m * (group.n - 1), group.n, field.m)
    codes = (d @ field.p ** np.arange(field.m)).astype(np.uint16)
    closure = _closure_keys(ctx, codes)
    assert closure.size == field.order ** (group.n - 1)
    assert np.array_equal(closure, _all_normalized_keys(ctx))


def _independent_rows(rows, p):
    """Independent rows spanning what the given rows span over F_p, by a plain
    elimination: each new row is reduced at the pivots found so far."""
    basis = []  # (pivot, row with 1 at its pivot and 0 at every earlier pivot)
    for row in rows:
        row = [int(v) % p for v in row]
        for pivot, b in basis:
            row = [(x - row[pivot] * y) % p for x, y in zip(row, b)]
        lead = next((i for i, v in enumerate(row) if v), None)
        if lead is not None:
            basis.append((lead, [v * pow(row[lead], -1, p) % p for v in row]))
    return [b for _, b in basis]


# Jennings' counts: the weights of an adapted basis are fixed by G
JENNINGS_WEIGHTS = {
    "elementary_abelian:2:4": [1] * 4 + [2] * 6 + [3] * 4 + [4],
    "dihedral:8": [1, 1, 2, 2, 3, 3, 4],
    "cyclic:9": list(range(1, 9)),
}


@pytest.mark.parametrize("name, p", [
    ("cyclic:1", 2), ("cyclic:4", 2), ("quaternion:8", 2), ("dihedral:8", 2), ("abelian:2:[1,2]", 2),
    ("elementary_abelian:2:4", 2), ("dihedral:16", 2), ("cyclic:9", 3), ("elementary_abelian:3:2", 3),
    ("cyclic:5", 5),
])
def test_delta_power_basis_is_adapted_to_the_powers(name, p):
    # Delta^k is built here from products of g - 1 over all of G; the rows of
    # weight at least k must be independent and span it, so each row of weight
    # k lies in Delta^k and not in Delta^(k+1)
    group = build(name)
    basis, weights = un._delta_power_basis(group, p)
    assert basis.shape == (group.n - 1, group.n) and weights.shape == (group.n - 1,)
    assert (basis.sum(axis=1) % p == 0).all()
    assert weights.tolist() == sorted(weights.tolist())
    table = group.table.tolist()

    def times_g_minus_1(g, row):
        out = [-v for v in row]
        for h, v in enumerate(row):
            out[table[g][h]] += v
        return out

    power = _independent_rows([times_g_minus_1(g, [1] + [0] * (group.n - 1)) for g in range(group.n)], p)
    k = 1
    while power:
        rows = basis[weights >= k].tolist()
        assert len(rows) == len(power) == len(_independent_rows(power + rows, p)), k
        assert len(_independent_rows(rows, p)) == len(rows), k
        power = _independent_rows([times_g_minus_1(g, b) for b in power for g in range(group.n)], p)
        k += 1
    assert (weights < k).all()
    if name in JENNINGS_WEIGHTS:
        assert weights.tolist() == JENNINGS_WEIGHTS[name]


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
        x = ga.from_coeffs(field, group, coeffs)
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
    gbar, projection, _ = group.quotient(group.subgroup_generated([c]))
    bctx = AlgebraContext(field, gbar)
    parts = []
    for X in ctx.normalized_batches():
        U = np.zeros((X.shape[0], gbar.n), dtype=np.uint16)
        for g, h in enumerate(projection):
            U[:, h] ^= X[:, g]
        unitary = bctx.is_one(bctx.mul(U, U[:, bctx.star]))
        parts.append(ctx.pack(ctx.mul(X[unitary], X[unitary][:, ctx.star])))
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
        sums = (point_rows[:, None, :] ^ w[None, :, :]).reshape(-1, group.n)
        assert np.array_equal(np.unique(ctx.pack(sums)), np.sort(ctx.pack(orbit.elements(keys)))), (name, c)
        assert np.array_equal(keys, np.sort(keys)), (name, c)


def _forge_norm_at_order(monkeypatch, n, indices):
    """AlgebraContext.norm_planes, which every norm goes through, with 1 added
    at the given indices of every product over a group of order n."""
    norm_planes = AlgebraContext.norm_planes

    def forged(self, xp, sigma, support=None):
        Yp = norm_planes(self, xp, sigma, support)
        if self.n == n:
            Yp[list(indices)] ^= constant_planes(self.identity[:1], self.field.m)
        return Yp

    monkeypatch.setattr(AlgebraContext, "norm_planes", forged)
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


def test_unitarity_check_names_the_generator_that_breaks_it(monkeypatch):
    # 1 added at the orbit {g1, g1^-1, g1 c, g1^-1 c} of every L L* moves gamma
    # within W: the points and the three gamma facts hold, and so do the lifted
    # Schreier generators, but a generator 1 + (1+c) lift(k) of K does not.
    # S_H reads no generator, so it is unforged; reading them refuses
    q16, c = build("quaternion:16"), 4
    assert sorted({1, q16.inverse(1), q16.mul(1, c), q16.mul(q16.inverse(1), c)}) == [1, 3, 5, 7]
    _forge_norm_at_order(monkeypatch, 16, (1, 3, 5, 7))
    assert un.s_h_enumerate(q16, c, GF4)[0] == 1024
    with pytest.raises(InternalInconsistency) as exc:
        un._generating_set(q16, GF4, un.DEFAULT_SEARCH_CAP)
    assert str(exc.value) == "a generator is not unitary (quaternion:16 over 2^2, c = g4, element 10*g4)"


def test_a_lift_refusal_names_the_group_that_reads_it(monkeypatch):
    # under the same forge the orbit of Q32/{0,8}'s table is computed, and not
    # lifted, under another id; Q32's level then reads its generators, and the
    # refusal names that reader
    _forge_norm_at_order(monkeypatch, 16, (1, 3, 5, 7))
    q32 = build("quaternion:32")
    other = validate_group(un._quotient(q32, 8).gbar.table, id="other")
    un.s_h_enumerate(other, 4, GF4)
    with pytest.raises(InternalInconsistency) as exc:
        un.unitary_order_char2(q32, GF4)
    assert str(exc.value) == ("a generator is not unitary "
                              "(quaternion:32/{0,8} over 2^2, c = g4, element 10*g4)")


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
    assert un._generating_set(build("cyclic:1"), GF4, un.DEFAULT_SEARCH_CAP)[1].shape[0] == 0


def test_an_index_one_level_forms_only_the_products_construction_leaves(monkeypatch):
    # E16 over GF(2), its lower level cached: the orbit is point 0 alone, so P
    # is the generators (no product by 1) and each is its own Schreier
    # generator (no t* P), and Gb = E8 has no pairs h != h^-1, so b0 = 0 (no
    # b0 S). Left are the norm of the generators' lifts, and once the
    # generators are read, the closing unitarity check of their own lift; the
    # recursion formed 6 here before it kept the orbit in bit-planes.
    monkeypatch.setattr(un, "_ORBITS", {})
    group = build("elementary_abelian:2:4")
    c = un._least_central_involution(group)
    un._generating_set(group.quotient(group.subgroup_generated([c]))[0], GF2, un.DEFAULT_SEARCH_CAP)
    calls, product = [], AlgebraContext.plane_product
    monkeypatch.setattr(AlgebraContext, "plane_product",
                        lambda self, *args, **kwargs: calls.append(self.n) or product(self, *args, **kwargs))
    orbit = un._walk_orbit(un._coset_orbit(group, c, GF2, un.DEFAULT_SEARCH_CAP), group)
    assert orbit.points.size == 1 and orbit.order == 2 ** 15
    assert calls == [16]
    assert orbit.lift(group)[0].shape[0] and calls == [16, 16]


def test_a_record_is_completed_once(monkeypatch):
    # _walk_orbit completes a record and then returns it as it is: E16's record
    # is stored unwalked (Tb is empty), and only its first walk forms products;
    # D16's is walked when stored, so S_H and the order then form none
    monkeypatch.setattr(un, "_ORBITS", {})
    calls, product = [], AlgebraContext.plane_product
    monkeypatch.setattr(AlgebraContext, "plane_product",
                        lambda self, *args, **kwargs: calls.append(self.n) or product(self, *args, **kwargs))
    e16 = build("elementary_abelian:2:4")
    orbit = un._coset_orbit(e16, 1, GF2, un.DEFAULT_SEARCH_CAP)
    assert orbit.order is None and not calls
    assert un._walk_orbit(orbit, e16) is orbit and orbit.order == 2 ** 15 and calls
    walked = len(calls)
    assert un._walk_orbit(orbit, e16) is orbit and len(calls) == walked
    d16 = build("dihedral:16")
    c = un._least_central_involution(d16)
    orbit = un._coset_orbit(d16, c, GF2, un.DEFAULT_SEARCH_CAP)
    assert orbit.order is not None and orbit.lifted is None
    del calls[:]
    assert un.s_h_enumerate(d16, c, GF2)[0] == orbit.s_h_size
    assert un.unitary_order_char2(d16, GF2).order == orbit.order
    assert calls == [] and orbit.lifted is None


def _spy_on_lifts(monkeypatch):
    """The order of each group whose orbit lifts its generators, in order."""
    lifted, lift = [], un._CosetOrbit.lift

    def spy(self, group):
        if self.lifted is None:
            lifted.append(self.ctx.n)
        return lift(self, group)

    monkeypatch.setattr(un._CosetOrbit, "lift", spy)
    monkeypatch.setattr(un, "_ORBITS", {})
    return lifted


@pytest.mark.parametrize("name, field", [("dihedral:16", GF2), ("quaternion:16", GF4)])
def test_only_the_level_above_lifts_generators(monkeypatch, name, field):
    # 16 -> 8 -> 4 -> 2 -> 1: the top level's generators have no reader, and
    # each level below is lifted once, by the first entry point to reach it
    lifted = _spy_on_lifts(monkeypatch)
    group = build(name)
    c = un._least_central_involution(group)
    result = un.unitary_order_char2(group, field)
    assert lifted == [2, 4, 8]
    assert un.s_h_enumerate(group, c, field)[0] == result.subsidiary["s_h_size"]
    assert un.bounds_and_constructions(group, c, field).s_h_size == result.subsidiary["s_h_size"]
    assert lifted == [2, 4, 8]
    orbit = un._coset_orbit(group, c, field, un.DEFAULT_SEARCH_CAP)
    assert orbit.lifted is None and orbit.schreier is not None


def test_reading_the_generators_twice_lifts_once(monkeypatch):
    lifted = _spy_on_lifts(monkeypatch)
    d16 = build("dihedral:16")
    orbit = un._coset_orbit(d16, un._least_central_involution(d16), GF2, un.DEFAULT_SEARCH_CAP)
    generators, planes = orbit.lift(d16)
    assert orbit.lift(d16)[0] is generators and orbit.lift(d16)[1] is planes
    assert np.array_equal(planes, engine.to_planes(generators, 1))
    assert lifted == [2, 4, 8, 16]
    assert orbit.schreier is None and orbit.schreier_gamma is None


def test_the_recursion_on_dihedral_512_peaks_under_16_tables(monkeypatch):
    # no level above reads the top level's 970 generators, so their norm, a
    # gather over every pair of G, is never formed: about 9 tables, against 35
    # when the top level lifted them too
    group = build("dihedral:512")
    monkeypatch.setattr(un, "_ORBITS", {})
    tracemalloc.start()
    try:
        un.unitary_order_char2(group, GF2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * group.table.nbytes, peak / group.table.nbytes


# sha256 of every orbit below, as the recursion computed it before the orbit
# was kept in bit-planes: points, generators, support and the four sizes
ORBIT_DIGEST = "777125cfa002f944ec8d3740b1d540697db5fc9b886d358956f814f9b6763d2b"


def _digest_cells():
    """Every (catalog name, m, group, c, field) the digest covers."""
    for m, max_order in ((1, 16), (2, 8), (3, 8)):
        field = make_field(2, m)
        for entry in catalog_entries(max_order, 2):
            group = build(entry.name)
            for c in group.special_sets().central_order_two:
                yield entry.name, m, group, c, field


def _orbit_digest():
    digest, count = hashlib.sha256(), 0
    for name, m, group, c, field in _digest_cells():
        o = un._walk_orbit(un._coset_orbit(group, c, field, un.DEFAULT_SEARCH_CAP), group)
        digest.update(f"{name}|{m}|{c}|{o.order}|{o.vbar_order}|{o.w_size}|{o.s_h_size}|".encode())
        for array, dtype in ((o.points, np.uint64), (o.lift(group)[0], np.uint16), (o.quo.support, np.int64)):
            digest.update(str(array.shape).encode())
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
        count += 1
    return count, digest.hexdigest()


def test_char2_orbits_are_byte_identical_to_the_pinned_digest():
    assert _orbit_digest() == (87, ORBIT_DIGEST)


def test_orbits_read_for_s_h_first_complete_to_the_pinned_digest(monkeypatch):
    # S_H of every (G, c) first leaves the levels with an empty Tb unwalked;
    # reading their orders and generators then walks them to the same bytes
    monkeypatch.setattr(un, "_ORBITS", {})
    for _, _, group, c, field in _digest_cells():
        un.s_h_enumerate(group, c, field)
    assert any(o.order is None for o in un._ORBITS.values())
    assert _orbit_digest() == (87, ORBIT_DIGEST)


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
    known = np.array([ctx.identity[0]], dtype=np.uint64)
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
        order, generators, _, _ = un._generating_set(group, field, un.DEFAULT_SEARCH_CAP)
        oracle_order, oracle = un._oracle_set(group, ga.canonical_star(group), field)
        assert order == oracle_order == oracle.size, entry.name
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


def _commute_pairwise(group, members):
    return all(group.mul(a, b) == group.mul(b, a) for a in members for b in members)


def test_quotient_coordinates_match_the_quotient_and_square_roots():
    # every catalog 2-group up to order 64 and every central involution: Gb
    # against the quotient by the subgroup search, its representatives and
    # projection against the least members of the cosets {g, gc}, and the
    # bounds' T_c and its flag against square_roots and a loop
    un.clear_caches()
    count = 0
    for entry in catalog_entries(64, 2):
        group = build(entry.name)
        for c in group.special_sets().central_order_two:
            quo = un._quotient(group, c)
            t_c, commuting = un._s_h_bounds(group, c, GF2)[:2]
            gbar, projection, _ = group.quotient(group.subgroup_generated([c]))
            least = [min(g, group.mul(g, c)) for g in group.elements()]
            reps = sorted(set(least))
            assert quo.gbar.id == gbar.id == f"{entry.name}/{{0,{c}}}"
            assert quo.gbar.table.tobytes() == gbar.table.tobytes(), (entry.name, c)
            assert quo.reps.tolist() == reps, (entry.name, c)
            assert projection.tolist() == [reps.index(r) for r in least], (entry.name, c)
            assert t_c == group.square_roots(c)
            assert commuting == group.is_pairwise_commuting(t_c) == \
                _commute_pairwise(group, t_c), (entry.name, c)
            squares = [group.mul(r, r) for r in reps]
            assert quo.reps_c.tolist() == [group.mul(r, c) for r in reps]
            assert quo.pairs.tolist() == [h for h in range(gbar.n) if h < gbar.inverse(h)]
            assert quo.t_bar.tolist() == [h for h, s in enumerate(squares) if s == c]
            assert quo.over_g2.tolist() == [h for h, s in enumerate(squares) if s == 0]
            count += 1
    assert count > 100


def test_an_orbit_miss_builds_one_quotient_and_a_hit_none(monkeypatch):
    # D16 over GF(2), then over GF(4): each orbit computed builds its own Gb;
    # the bounds and S_H over a (G, c) whose orbit is known build none
    built, quotient = [], Group.quotient
    monkeypatch.setattr(Group, "quotient", lambda self, sub: built.append(self.n) or quotient(self, sub))
    un.clear_caches()
    d16 = build("dihedral:16")
    for field in (GF2, GF4):
        un.unitary_order_char2(d16, field)
    misses = len(un._ORBITS)
    assert misses == 8 and len(built) == misses
    c = un._least_central_involution(d16)
    un.bounds_and_constructions(d16, c, GF4)
    un.s_h_enumerate(d16, c, GF2)
    assert len(un._ORBITS) == misses and len(built) == misses
    un.clear_caches()


def test_an_equal_table_under_another_id_reuses_the_orbits_and_keeps_its_name():
    # _ORBITS is keyed by the table: D16's table under the id "other" computes
    # no orbit, and its result and its refusals still name "other"
    un.clear_caches()
    d16 = build("dihedral:16")
    expected = un.unitary_order_char2(d16, GF2).order
    computed = len(un._ORBITS)
    other = validate_group(d16.table, id="other")
    result = un.unitary_order_char2(other, GF2)
    assert len(un._ORBITS) == computed
    assert (result.group_id, result.order) == ("other", expected)
    for cap, where in ((8, "other"), (4, "other/{0,4}")):
        with pytest.raises(SearchSpaceTooLarge) as exc:
            un.unitary_order_char2(other, GF2, search_cap=cap)
        assert str(exc.value).endswith(f"exceeds cap {cap} (S_H coset orbit over {where})")
    un.clear_caches()


def _e16_relabeled():
    """E16 on permuted non-identity indices, its table rebuilt through validate_group."""
    e16 = build("elementary_abelian:2:4")
    perm = np.concatenate(([0], 1 + np.random.default_rng(5).permutation(e16.n - 1)))
    table = np.empty_like(e16.table)
    table[np.ix_(perm, perm)] = perm[e16.table]
    return validate_group(table, id="e16")


def test_s_h_and_the_bounds_at_an_empty_tb_walk_no_orbit(monkeypatch):
    # no c of E16 has a square root, so every Tb is empty and S_H = W: S_H and
    # the N1/N2 report over all 15 c build one quotient each and read nothing
    # of Vb; the values are those of the recursion that walked every orbit
    group = _e16_relabeled()
    built, quotient = [], Group.quotient
    monkeypatch.setattr(Group, "quotient", lambda self, sub: built.append(self.n) or quotient(self, sub))
    monkeypatch.setattr(un, "_generating_set", lambda *args: pytest.fail("Vb was built"))
    monkeypatch.setattr(un, "_ORBITS", {})
    centrals = group.special_sets().central_order_two
    assert centrals == tuple(range(1, 16))
    assert [un.s_h_enumerate(group, c, GF2)[0] for c in centrals] == [1] * 15
    reports = [un.bounds_and_constructions(group, c, GF2) for c in centrals]
    assert built == [16] * 15 and len(un._ORBITS) == 15
    assert {dataclasses.astuple(r)[3:] for r in reports} == {
        (0, True, 1, 1, Fraction(1), 1, 1, True, True, True, True)}
    assert all(o.order is None and o.points.tolist() == [0] for o in un._ORBITS.values())


def test_an_order_read_completes_the_record_s_h_left(monkeypatch):
    # after S_H at every c, the order at one c walks the stored record: no
    # quotient of G itself is built again, and the result is a fresh one's
    group = _e16_relabeled()
    monkeypatch.setattr(un, "_ORBITS", {})
    for c in group.special_sets().central_order_two:
        un.s_h_enumerate(group, c, GF2)
    built, quotient = [], Group.quotient
    monkeypatch.setattr(Group, "quotient", lambda self, sub: built.append(self.n) or quotient(self, sub))
    record = un._ORBITS[(group, 6, GF2, un.DEFAULT_SEARCH_CAP)]
    result = un.unitary_order_char2(group, GF2, c=6)
    assert 16 not in built and built
    assert un._ORBITS[(group, 6, GF2, un.DEFAULT_SEARCH_CAP)] is record
    assert (record.order, record.vbar_order, record.points.tolist()) == (2 ** 15, 2 ** 7, [0])
    monkeypatch.setattr(un, "_ORBITS", {})
    assert result == un.unitary_order_char2(group, GF2, c=6)
    assert (result.order, result.subsidiary["vbar_order"], result.subsidiary["s_h_size"]) == (2 ** 15, 2 ** 7, 1)


@pytest.mark.parametrize("cap, where", [(3, "other"), (2, "other/{0,1}")])
def test_a_walk_an_s_h_read_deferred_names_the_group_that_reads_it(monkeypatch, cap, where):
    # S_H of E16 at c = g1 fits the cap, and its record is stored unwalked;
    # E16's table under the id "other" then reads the order, and the walk, at
    # E16's level (7 generators of V(F E8)) or at E8's (3 of V(F E4)), is
    # refused naming that reader
    monkeypatch.setattr(un, "_ORBITS", {})
    e16 = build("elementary_abelian:2:4")
    assert un.s_h_enumerate(e16, 1, GF2, search_cap=cap)[0] == 1
    other = validate_group(e16.table, id="other")
    with pytest.raises(SearchSpaceTooLarge) as exc:
        un.unitary_order_char2(other, GF2, c=1, search_cap=cap)
    assert str(exc.value).endswith(f"exceeds cap {cap} (S_H coset orbit over {where})")
    assert un._ORBITS[(e16, 1, GF2, cap)].order is None


def test_an_s_h_read_at_an_empty_tb_meets_only_the_listing_bound():
    # S_H of E4 at c = g1 walks no orbit, so the orbit's bound (one point
    # times V(F C2)'s one generator) is not met; the listing of its one coset
    # is. The N1/N2 report lists nothing and answers; the order still walks
    e4 = build("elementary_abelian:2:2")
    un.clear_caches()
    with pytest.raises(SearchSpaceTooLarge) as exc:
        un.s_h_enumerate(e4, 1, GF2, search_cap=0)
    assert str(exc.value) == ("search space of size 1 exceeds cap 0 "
                              "(S_H cosets over elementary_abelian:2:2)")
    report = un.bounds_and_constructions(e4, 1, GF2, search_cap=0)
    assert (report.s_h_size, report.n1_size, report.n1_inside_s_h) == (1, 1, True)
    with pytest.raises(SearchSpaceTooLarge) as exc:
        un.unitary_order_char2(e4, GF2, c=1, search_cap=0)
    assert str(exc.value) == ("search space of size 1 exceeds cap 0 "
                              "(S_H coset orbit over elementary_abelian:2:2)")
    un.clear_caches()


@pytest.mark.parametrize("index", [True, False, 1.0, "1"], ids=["true", "false", "float", "str"])
def test_an_element_index_that_is_not_an_integer_is_refused(index):
    # True == 1 and 1.0 == 1 pass a range test, and 1 is a central involution of E4
    e4 = build("elementary_abelian:2:2")
    un.clear_caches()
    message = f"element index {index!r} is not an integer"
    for call in (lambda: un.s_h_enumerate(e4, index, GF2),
                 lambda: un.unitary_order_char2(e4, GF2, c=index),
                 lambda: un.bounds_and_constructions(e4, index, GF2),
                 lambda: e4.inverse(index),
                 lambda: e4.order_of(index)):
        with pytest.raises(IndexOutOfRange) as exc:
            call()
        assert str(exc.value) == message
    assert not un._ORBITS
    assert e4.inverse(np.int64(1)) == 1 and e4.order_of(np.uint8(3)) == 2


@pytest.mark.parametrize("name, c, error, message", [
    ("dihedral:8", 4, NotCentralInvolution, "element 4 is not a central element of order two"),
    ("dihedral:8", 1, NotCentralInvolution, "element 1 is not a central element of order two"),
    ("cyclic:4", 1, NotCentralInvolution, "element 1 is not a central element of order two"),
    ("quaternion:8", 0, NotCentralInvolution, "element 0 is not a central element of order two"),
    ("quaternion:8", 8, IndexOutOfRange, "element index 8 outside [0, 8)"),
    ("cyclic:2", -1, IndexOutOfRange, "element index -1 outside [0, 2)"),
], ids=["reflection", "rotation", "central-order-4", "identity", "past-the-end", "negative"])
def test_every_entry_point_refuses_a_c_that_is_not_a_central_involution(name, c, error, message):
    group = build(name)
    un.clear_caches()
    for call in (lambda: un.unitary_order_char2(group, GF2, c=c),
                 lambda: un.s_h_enumerate(group, c, GF2),
                 lambda: un.bounds_and_constructions(group, c, GF2)):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message
    assert not un._ORBITS


def test_bounds_refuse_a_bound_before_any_orbit_work(monkeypatch):
    # |G{2}| one short makes (|G| - |G{2}| + |T_c|)/4 fractional; the refusal
    # comes from T_c, before the quotient or any orbit
    d8 = build("dihedral:8")
    special = d8.special_sets()
    monkeypatch.setattr(d8, "special_sets",
                        lambda: dataclasses.replace(special, order_two=special.order_two[:-1]))
    monkeypatch.setattr(un, "_coset_orbit", lambda *args: pytest.fail("orbit work before the bound"))
    monkeypatch.setattr(un, "_quotient", lambda *args: pytest.fail("a quotient before the bound"))
    un.clear_caches()
    with pytest.raises(InternalInconsistency) as exc:
        un.bounds_and_constructions(d8, 2, GF2)
    assert str(exc.value) == "bound exponent is not an integer (dihedral:8 over 2^1, c = g2)"


def test_a_level_converts_no_generator_of_the_level_below(monkeypatch):
    # E16 over GF(2), its lower level cached: the generators of V(F E8) are
    # multiplied from the planes their own unitarity check built, so the only
    # conversion is that of the new generators, for their check
    un.clear_caches()
    group = build("elementary_abelian:2:4")
    c = un._least_central_involution(group)
    gbar = un._quotient(group, c).gbar
    below = un._coset_orbit(gbar, un._least_central_involution(gbar), GF2, un.DEFAULT_SEARCH_CAP)
    assert np.array_equal(below.lift(gbar)[1], engine.to_planes(below.lift(gbar)[0], 1))
    converted, to_planes = [], un.to_planes
    monkeypatch.setattr(un, "to_planes", lambda X, m: converted.append(X.shape) or to_planes(X, m))
    orbit = un._coset_orbit(group, c, GF2, un.DEFAULT_SEARCH_CAP)
    assert converted == [orbit.lift(group)[0].shape]


def test_clear_caches_empties_the_memos_of_field_arithmetic():
    # the fold matrix and tau's codes are rebuilt after it; the field tables,
    # built once per process, are kept
    un.unitary_order_char2(build("quaternion:8"), GF4)
    assert finite_field.fold_matrix(GF4) is finite_field.fold_matrix(GF4)
    engine.field_tables(GF4)
    un.bounds_and_constructions(build("dihedral:8"), 2, GF4)  # T_c commutes: N2 reads tau
    assert un._tau_codes.cache_info().currsize and un._ORBITS
    un.clear_caches()
    assert finite_field.fold_matrix.cache_info().currsize == 0
    assert un._tau_codes.cache_info().currsize == 0
    assert not un._ORBITS
    assert engine.field_tables.cache_info().currsize > 0


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
    _, keys = un._oracle_set(q8, ga.canonical_star(q8), GF8, max_witnesses=un.DEFAULT_MAX_WITNESSES)
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


# rows of order <= 16 over GF(2^10) and <= 8 over GF(2^12) that the orbit bound refuses
WIDE_FIELD_REFUSALS = {10: {"quaternion:8", "abelian:2:[2,2]", "modular:16", "quaternion:16",
                            "semidihedral:16"},
                       12: {"quaternion:8"}}


@pytest.mark.parametrize("m, max_order", [(10, 16), (12, 8)])
def test_theta_over_fields_past_the_table_cap_matches_the_catalog(monkeypatch, m, max_order):
    """Characteristic two reads no field table: with every table build
    refused, GF(2^10) and GF(2^12) fill every row the orbit bound does not."""
    monkeypatch.setattr(engine, "field_tables", _refuse_tables)
    monkeypatch.setattr(un, "_ORBITS", {})
    field, refused = make_field(2, m), set()
    for entry in catalog_entries(max_order, 2):
        try:
            value = un.theta(entry.build(), field)
        except SearchSpaceTooLarge as exc:
            assert exc.context.startswith("S_H coset orbit over"), entry.name
            refused.add(entry.name)
            continue
        assert value == entry.expected_facts["theta"], (entry.name, m)
    assert refused == WIDE_FIELD_REFUSALS[m]


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
        gbar, _, _ = group.quotient(group.subgroup_generated([c]))
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
    a fresh process 10-20 ms; the N2 span's tau image is a boolean mask
    indexed by code instead. Checked in a fresh interpreter,
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
    assert orbit.points.tolist() == [0, 1, 2, 3] and orbit.quo.support.shape[0] == 1
    forged = dataclasses.replace(orbit, points=np.array(points, dtype=np.uint64))
    monkeypatch.setattr(un, "_coset_orbit", lambda *args: forged)
    rep = un.bounds_and_constructions(d8, 2, GF4)
    assert (rep.n1_inside_s_h, rep.n2_inside_s_h, rep.product_inside_s_h) == (n1_inside, n2_inside, n2_inside)


def _refuse_tables(spec):
    raise AssertionError(f"field tables of {spec} were built")


@pytest.mark.parametrize("m", range(1, 11))
def test_tau_codes_match_the_scalar_tau(m):
    # squaring through the fold matrix against finite_field.tau, a + a * a
    field = make_field(2, m)
    assert un._tau_codes(field).tolist() == [finite_field.tau(a).code for a in field.elements()]


@pytest.mark.parametrize("name, m", [("dihedral:16", 4), ("elementary_abelian:2:3", 12)])
def test_char2_routes_build_no_field_table(monkeypatch, name, m):
    """The recursion under every central c, S_H and the bound constructions
    run with the field tables refused, on GF(2^12) past the table cap too."""
    monkeypatch.setattr(engine, "field_tables", _refuse_tables)
    monkeypatch.setattr(un, "_ORBITS", {})
    group, field = build(name), make_field(2, m)
    orders = set()
    for c in group.special_sets().central_order_two:
        result = un.unitary_order_char2(group, field, c=c)
        orders.add(result.order)
        size, samples = un.s_h_enumerate(group, c, field, max_samples=8)
        assert size == result.subsidiary["s_h_size"] and len(samples) == min(size, 8)
        assert all(x.is_normalized_unit() for x in samples)
        rep = un.bounds_and_constructions(group, c, field)
        assert rep.t_c_commuting and rep.n1_inside_s_h and rep.n2_inside_s_h and rep.generator_identity_ok
        assert rep.lower_bound <= rep.s_h_size <= rep.upper_bound
    fact = next(e for e in catalog_entries(16, 2) if e.name == name).expected_facts["theta"]
    assert len(orders) == 1 and un.theta_from_order(orders.pop(), field, group) == fact


@pytest.mark.parametrize("name, m", [("cyclic:2", 10), ("cyclic:4", 4)])
def test_char2_oracle_and_certificate_build_no_field_table(monkeypatch, name, m):
    # C4 over GF(16) is not all of its normalized units, so its certificate walks
    monkeypatch.setattr(engine, "field_tables", _refuse_tables)
    group, field = build(name), make_field(2, m)
    oracle = un.unitary_enumerate_oracle(group, ga.canonical_star(group), field, max_witnesses=4)
    assert oracle.order == un.unitary_order_char2(group, field).order
    assert all(un.is_unitary(x, ga.canonical_star(group)) for x in oracle.elements)


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


@pytest.mark.parametrize("order, field, message", [
    (6, GF2, "6 is not a power of p = 2"),
    (384, GF2, "384 is not a power of p = 2"),
    (3, GF2, "3 is not a power of p = 2"),
    (12, GF4, "12 is not a power of p = 2"),
    (10, GF5, "10 is not a power of p = 5"),
    (9, GF3, "9 gives |G| = 5, not a power of p = 3"),
    (3 ** 3, GF3, "27 gives |G| = 7, not a power of p = 3"),
    (5, GF5, "5 gives |G| = 3, not a power of p = 5"),
    (3 ** 4, make_field(3, 2), "81 gives |G| = 5, not a power of p = 3"),
])
def test_recover_refuses_an_order_no_p_group_has(order, field, message):
    with pytest.raises(ValueError) as exc:
        un.recover_group_order(order, field, field.p)
    assert str(exc.value) == message


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
        un.recover_group_order(2, GF4, 2)  # no bracket [4^(n/2), 4^(n-1)] contains 2
    assert exc.value.candidates == []


def test_oracle_with_non_canonical_involution_char2():
    # conjugate-inverse g -> r g^-1 r^-1 on D8: arises from the group, differs
    # from the canonical star on reflections
    d8 = build("dihedral:8")
    sigma = [d8.mul(d8.mul(1, d8.inverse(g)), 3) for g in d8.elements()]
    inv = ga.involution_from_map(d8, sigma, name="conj-inverse")
    assert not np.array_equal(inv.sigma, ga.canonical_star(d8).sigma)
    res = un.unitary_enumerate_oracle(d8, inv, GF2, max_witnesses=None)
    one = ga.algebra_one(GF2, d8)
    for x in res.elements:
        assert x * ga.apply_involution(x, inv) == one
    assert GF2.order ** (d8.n - 1) % res.order == 0  # Lagrange inside V(FG)
