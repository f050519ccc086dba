"""FG arithmetic, involutions, inversion, and the quotient map."""

import itertools
import random

import numpy as np
import pytest

from unitary_lab import engine
from unitary_lab import group_algebra as ga
from unitary_lab import unitary as un
from unitary_lab.errors import (
    EvenCharacteristic,
    FieldMismatch,
    IndexOutOfRange,
    InternalInconsistency,
    NotAntiAutomorphism,
    NotAUnit,
    NotInvertible,
    NotNormalized,
    NotOrderTwo,
    NotPGroupOverField,
    SpecMismatch,
)
from unitary_lab.finite_field import FieldElement, FieldSpec, make_field
from unitary_lab.group_catalog import build, catalog_entries
from unitary_lab.group_core import validate_group

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)


def _random_element(rng, field, group):
    return ga.from_coeffs(field, group, [rng.randrange(field.p) for _ in range(group.n)])


def _reference_mul(x, y):
    """The convolution out[g_i g_j] += x_i y_j, one FieldElement product at a time."""
    out = [x.field.zero] * x.group.n
    for i, a in enumerate(x.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(y.coeffs):
            if not b.is_zero():
                k = x.group.mul(i, j)
                out[k] = out[k] + a * b
    return ga.from_coeffs(x.field, x.group, out)


def _reference_inverse(x):
    """chi(x)^-1 times the Neumann series sum of (-nu)^k, u = 1 + nu = x / chi(x),
    summed term by term until a term vanishes."""
    aug_inv = x.augmentation().inverse()
    one = ga.algebra_one(x.field, x.group)
    neg_nu = one - x.scale(aug_inv)
    acc = term = one
    for _ in range(x.group.n):
        term = _reference_mul(term, neg_nu)
        if term.is_zero():
            return acc.scale(aug_inv)
        acc = acc + term
    raise AssertionError(f"series did not terminate within {x.group.n} terms")


def _any_element(rng, field, group, nonzero=None):
    """Coefficients drawn from all of F; nonzero=k keeps k random positions only."""
    coeffs = [field.from_code(rng.randrange(field.order)) for _ in range(group.n)]
    if nonzero is not None:
        keep = set(rng.sample(range(group.n), nonzero))
        coeffs = [c if g in keep else field.zero for g, c in enumerate(coeffs)]
    return ga.from_coeffs(field, group, coeffs)


def _all_elements(field, group):
    for combo in itertools.product(range(field.order), repeat=group.n):
        yield ga.from_coeffs(field, group, [field.from_code(c) for c in combo])


def test_basis_multiplication_follows_table():
    d8 = build("dihedral:8")
    for g in d8.elements():
        x = ga.basis_element(GF2, d8, g)
        y = ga.basis_element(GF2, d8, d8.inverse(g))
        assert x * y == ga.algebra_one(GF2, d8)


def test_fc4_gf2_product_example():
    c4 = build("cyclic:4")
    x = ga.from_coeffs(GF2, c4, [1, 1, 1, 0])
    y = ga.from_coeffs(GF2, c4, [1, 0, 1, 1])
    assert x * y == ga.algebra_one(GF2, c4)


def test_multiply_by_zero():
    c4 = build("cyclic:4")
    x = ga.from_coeffs(GF3, c4, [1, 2, 0, 1])
    assert (x * ga.algebra_zero(GF3, c4)).is_zero()


def test_ring_axioms_exhaustive_fc2_gf2():
    c2 = build("cyclic:2")
    elems = list(_all_elements(GF2, c2))
    assert len(elems) == 4
    for x, y, z in itertools.product(elems, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


@pytest.mark.parametrize("group_name,field", [
    ("cyclic:4", GF3), ("dihedral:8", GF2), ("heisenberg:3", GF3),
])
def test_ring_axioms_sampled(group_name, field):
    group = build(group_name)
    rng = random.Random(0)
    for _ in range(1000):
        x, y, z = (_random_element(rng, field, group) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x


def test_augmentation_examples():
    c2 = build("cyclic:2")
    assert ga.basis_element(GF2, c2, 1).augmentation() == GF2.one
    x = ga.from_coeffs(GF2, c2, [1, 1])
    assert x.augmentation().is_zero()
    y = ga.from_coeffs(GF3, c2, [2, 2])
    assert y.augmentation() == GF3.one and y.is_normalized_unit()


def test_augmentation_is_multiplicative():
    q8 = build("quaternion:8")
    rng = random.Random(1)
    for _ in range(200):
        x, y = _random_element(rng, GF4, q8), _random_element(rng, GF4, q8)
        assert (x * y).augmentation() == x.augmentation() * y.augmentation()


def test_normalized_unit_count_small():
    c2 = build("cyclic:2")
    normalized = [x for x in _all_elements(GF2, c2) if x.is_normalized_unit()]
    assert len(normalized) == GF2.order ** (c2.n - 1)


def test_invert_examples():
    c4 = build("cyclic:4")
    one = ga.algebra_one(GF2, c4)
    assert one.invert() == one
    g = ga.basis_element(GF2, c4, 1)
    assert g.invert() == ga.basis_element(GF2, c4, 3)
    x = ga.from_coeffs(GF2, c4, [1, 1, 1, 0])
    assert x.invert() == ga.from_coeffs(GF2, c4, [1, 0, 1, 1])


def test_invert_refuses_augmentation_zero():
    c2 = build("cyclic:2")
    with pytest.raises(NotAUnit):
        ga.from_coeffs(GF2, c2, [1, 1]).invert()


def test_invert_refuses_non_p_group():
    c3 = build("cyclic:3")
    with pytest.raises(NotPGroupOverField):
        ga.algebra_one(GF2, c3).invert()


@pytest.mark.parametrize("group_name,field", [
    ("cyclic:9", GF3), ("dihedral:8", GF2), ("quaternion:8", GF4),
])
def test_invert_random_units(group_name, field):
    group = build(group_name)
    rng = random.Random(2)
    one = ga.algebra_one(field, group)
    count = 0
    while count < 25:
        x = _random_element(rng, field, group)
        if x.augmentation().is_zero():
            continue
        count += 1
        inv = x.invert()
        assert x * inv == one and inv * x == one


@pytest.mark.parametrize("group_name", [
    "cyclic:25", "heisenberg:3", "dihedral:8", "quaternion:8", "elementary_abelian:3:2",
])
@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2), (3, 6)])
def test_algebra_mul_matches_reference(group_name, p, m):
    field, group = make_field(p, m), build(group_name)
    rng = random.Random(6)
    for nonzero in (None, None, 1, 3):
        x = _any_element(rng, field, group, nonzero)
        y = _any_element(rng, field, group, nonzero)
        assert x * y == _reference_mul(x, y)
        assert y * x == _reference_mul(y, x)


@pytest.mark.parametrize("group_name,p,m", [
    ("cyclic:25", 5, 1), ("heisenberg:3", 3, 1), ("quaternion:8", 2, 2),
    ("heisenberg:3", 3, 2), ("cyclic:5", 5, 2), ("dihedral:8", 2, 3),
])
def test_invert_matches_neumann_series(group_name, p, m):
    field, group = make_field(p, m), build(group_name)
    rng = random.Random(7)
    count = 0
    while count < 6:
        x = _any_element(rng, field, group, nonzero=None if count % 2 else 2)
        if x.augmentation().is_zero():
            continue
        count += 1
        assert x.invert() == _reference_inverse(x)


def test_inverse_failure_names_group_field_and_element(monkeypatch):
    c9 = build("cyclic:9")
    x = ga.from_coeffs(GF3, c9, [1, 2, 0, 1, 0, 0, 0, 0, 0])
    monkeypatch.setattr(engine, "_fold_matrix",
                        lambda field: np.zeros((field.m ** 2, field.m), dtype=np.int64))
    with pytest.raises(InternalInconsistency) as exc:
        x.invert()
    assert str(exc.value) == ("inverse failed verification multiply "
                              "(cyclic:9 over 3^1, element 1*g0 + 2*g1 + 1*g3)")


@pytest.mark.parametrize("group_name,p,m", [
    ("cyclic:9", 3, 1), ("elementary_abelian:3:2", 3, 2), ("cyclic:5", 5, 2), ("quaternion:8", 2, 2),
    ("heisenberg:3", 3, 1), ("heisenberg:3", 3, 2), ("cyclic:25", 5, 1),
])
def test_cayley_matches_reference(group_name, p, m):
    """cayley(x) against (1 - x) (1 + x)^-1 formed from the scalar references alone."""
    field, group = make_field(p, m), build(group_name)
    one = ga.algebra_one(field, group)
    rng = random.Random(8)
    count = 0
    while count < 6:
        x = _any_element(rng, field, group, nonzero=None if count % 2 else 2)
        if (one + x).augmentation().is_zero():
            continue
        count += 1
        assert un.cayley(x) == _reference_mul(one - x, _reference_inverse(one + x))


def test_cayley_inverse_failure_names_one_plus_x(monkeypatch):
    c9 = build("cyclic:9")
    x = ga.from_coeffs(GF3, c9, [0, 2, 0, 1, 0, 0, 0, 0, 0])
    monkeypatch.setattr(engine, "_fold_matrix",
                        lambda field: np.zeros((field.m ** 2, field.m), dtype=np.int64))
    with pytest.raises(InternalInconsistency) as exc:
        un.cayley(x)
    assert str(exc.value) == ("inverse failed verification multiply "
                              "(cyclic:9 over 3^1, element 1*g0 + 2*g1 + 1*g3)")


def test_digit_product_takes_leading_batch_axes():
    """A stacked pair multiplies as its two members do, one call for both."""
    field, group = make_field(3, 2), build("heisenberg:3")
    rng = random.Random(11)
    x, y = (_any_element(rng, field, group).digits for _ in range(2))
    pair = np.array((x, y))
    both = engine.digit_product(field, group, pair, pair[::-1])
    assert both.shape == (2, group.n, field.m)
    assert np.array_equal(both[0], engine.digit_product(field, group, x, y))
    assert np.array_equal(both[1], engine.digit_product(field, group, y, x))


def test_inverse_scaling_memo_is_keyed_by_the_whole_field():
    """One digit array inverted over GF(9) under two moduli: the memo must
    not hand the first field's chi^-1 matrix to the second."""
    conway, other = make_field(3, 2), FieldSpec(3, 2, (1, 0, 1))  # x^2 + 2x + 2 and x^2 + 1
    assert conway.modulus == (2, 2, 1) and conway != other
    group = build("cyclic:3")
    digits = np.array([[1, 1], [0, 0], [1, 0]])  # chi = 2 + x under either modulus
    chi = (2, 1)
    un.clear_caches()
    for field in (conway, other):
        x = ga.AlgebraElement(field, group, digits)
        assert x.augmentation().coeffs == chi
        assert x.invert() == _reference_inverse(x)
    matrices = [ga._inverse_scaling(field, chi) for field in (conway, other)]
    assert ga._inverse_scaling.cache_info().currsize == 2
    assert not np.array_equal(*matrices)
    for field, matrix in zip((conway, other), matrices):
        assert not matrix.flags.writeable
        inverse = FieldElement(field, chi).inverse()
        assert np.array_equal(np.array([[1, 0]]) @ matrix % 3, [inverse.coeffs])
    un.clear_caches()
    assert ga._inverse_scaling.cache_info().currsize == 0


def test_cayley_forms_the_square_and_multiply_chain_and_one_field_inverse(monkeypatch):
    """On heisenberg:3 over GF(3), |G| - 1 = 26 = 0b11010: one transform forms
    4 squarings, 2 products with u and the two-sided check as one stacked
    call. Repeated transforms take one field inverse per (field, chi)."""
    field, group = GF3, build("heisenberg:3")
    calls, inverses = [], []
    product, inverse = engine.digit_product, FieldElement.inverse

    def counted_product(f, g, x, y):
        calls.append("check" if x.ndim == 3 else "square" if x is y else "multiply")
        return product(f, g, x, y)

    def counted_inverse(self):
        inverses.append((self.spec, self.coeffs))
        return inverse(self)

    monkeypatch.setattr(ga, "digit_product", counted_product)
    monkeypatch.setattr(FieldElement, "inverse", counted_inverse)
    un.clear_caches()
    star, rng = ga.canonical_star(group), random.Random(12)
    x = _any_element(rng, field, group)
    un.cayley(x - ga.apply_involution(x, star))
    assert sorted(calls) == ["check"] + ["multiply"] * 2 + ["square"] * 4
    for _ in range(10):
        x = _any_element(rng, field, group)
        skew = x - ga.apply_involution(x, star)
        unit = un.cayley(skew)  # chi(1 + skew) = 1
        assert un.cayley(unit) == skew  # chi(1 + unit) = 2
    assert sorted(inverses) == [(field, (1,)), (field, (2,))]


def test_inversion_and_cayley_refusals_keep_their_messages():
    c2, c3, c9 = build("cyclic:2"), build("cyclic:3"), build("cyclic:9")
    refusals = [
        (NotAUnit, lambda: ga.from_coeffs(GF2, c2, [1, 1]).invert(), "augmentation is zero"),
        (NotAUnit, lambda: ga.from_coeffs(GF3, c9, [1, 1, 1] + [0] * 6).invert(), "augmentation is zero"),
        (NotInvertible, lambda: un.cayley(ga.algebra_one(GF2, c2)), "1+x has augmentation zero"),
        (NotInvertible, lambda: un.cayley(ga.from_coeffs(GF3, c9, [1, 1] + [0] * 7)), "1+x has augmentation zero"),
        # chi(1 + x) = 0 is refused before the group is looked at
        (NotInvertible, lambda: un.cayley(ga.algebra_one(GF2, c3)), "1+x has augmentation zero"),
        (NotPGroupOverField, lambda: ga.algebra_one(GF2, c3).invert(),
         "|G|=3 for cyclic:3 is not a power of char(F)=2"),
        (NotPGroupOverField, lambda: un.cayley(ga.algebra_zero(GF2, c3)),
         "|G|=3 for cyclic:3 is not a power of char(F)=2"),
    ]
    for error, call, message in refusals:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


def _reference_is_unitary(x, inv):
    return _reference_mul(x, ga.apply_involution(x, inv)) == ga.algebra_one(x.field, x.group)


@pytest.mark.parametrize("group_name,p,m", [
    ("heisenberg:3", 3, 2), ("cyclic:9", 3, 2), ("elementary_abelian:3:2", 3, 6), ("heisenberg:3", 3, 6),
    ("cyclic:5", 5, 2), ("cyclic:25", 5, 2),
])
def test_digit_array_operations_match_coefficientwise_forms(group_name, p, m):
    """-x, x + y, x - y, scale and is_unitary run on digit arrays; each must
    equal its form built one FieldElement operation per coefficient."""
    field, group = make_field(p, m), build(group_name)
    star, rng = ga.canonical_star(group), random.Random(15)
    for nonzero in (None, None, 1, 3):
        x, y = _any_element(rng, field, group, nonzero), _any_element(rng, field, group, nonzero)
        alpha = field.from_code(rng.randrange(field.order))
        assert -x == ga.from_coeffs(field, group, [-a for a in x.coeffs])
        assert x + y == ga.from_coeffs(field, group, [a + b for a, b in zip(x.coeffs, y.coeffs)])
        assert x - y == ga.from_coeffs(field, group, [a - b for a, b in zip(x.coeffs, y.coeffs)])
        assert x.scale(alpha) == ga.from_coeffs(field, group, [alpha * a for a in x.coeffs])
        assert ga.AlgebraElement(field, group, x.digits.copy()) == x
        skew = x - ga.apply_involution(x, star)
        if not (ga.algebra_one(field, group) + skew).augmentation().is_zero():
            unit = un.cayley(skew)
            assert un.is_unitary(unit, star) and _reference_is_unitary(unit, star)
        if not x.augmentation().is_zero():
            normalized = x.scale(x.augmentation().inverse())
            assert un.is_unitary(normalized, star) == _reference_is_unitary(normalized, star)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 2)])
def test_digit_array_operations_on_the_elements_of_a_small_algebra(p, m):
    """Over C3 every element is tried: -x and is_unitary against their
    coefficientwise forms, and the NotNormalized refusal."""
    field, group = make_field(p, m), build("cyclic:3")
    star = ga.canonical_star(group)
    for x in _all_elements(field, group):
        assert -x == ga.from_coeffs(field, group, [-a for a in x.coeffs])
        if x.augmentation() == field.one:
            assert un.is_unitary(x, star) == _reference_is_unitary(x, star)
        else:
            with pytest.raises(NotNormalized):
                un.is_unitary(x, star)


def test_is_unitary_refuses_an_involution_of_another_group():
    c3, c9 = build("cyclic:3"), build("cyclic:9")
    with pytest.raises(SpecMismatch):
        un.is_unitary(ga.algebra_one(GF3, c3), ga.canonical_star(c9))


def test_cayley_and_invert_run_above_the_field_table_limit(monkeypatch):
    """GF(3^10) has q = 59049 > 512: the scalar algebra needs no table of the
    field's elements and no batch field table, so neither call may build one."""
    from unitary_lab import engine, finite_field
    field, group = make_field(3, 10), build("cyclic:3")

    def refuse(spec):
        raise AssertionError(f"a table of {spec} was built")

    monkeypatch.setattr(finite_field, "field_elements", refuse)
    monkeypatch.setattr(engine, "field_tables", refuse)
    a, b = field.element([2, 0, 1, 0, 0, 0, 0, 1, 0, 2]), field.element([1] * 10)
    skew = ga.from_coeffs(field, group, (field.zero, a, -a))
    unit = un.cayley(skew)
    assert un.is_unitary(unit, ga.canonical_star(group))
    assert un.cayley(unit) == skew
    x = ga.from_coeffs(field, group, (b, a, field.one))
    assert x.invert() == _reference_inverse(x)
    assert x * x.invert() == ga.algebra_one(field, group)


def test_equal_elements_over_a_rebuilt_table_are_equal_and_hash_equal():
    """validate_group on the same table gives a distinct but equal Group; the
    elements and their Cayley transforms over it compare and hash equal. So
    does one element built by every route to a digit array: from_coeffs,
    from_codes, a literal, arithmetic, an involution and an int32 array."""
    group = build("heisenberg:3")
    rebuilt = validate_group(group.table.copy(), id=group.id)
    assert rebuilt is not group and rebuilt == group
    x = ga.from_coeffs(GF3, group, [0, 1, 2] + [0] * 24)
    y = ga.from_coeffs(GF3, rebuilt, [0, 1, 2] + [0] * 24)
    assert x == y and hash(x) == hash(y)
    assert un.cayley(x) == un.cayley(y) and hash(un.cayley(x)) == hash(un.cayley(y))
    assert x + y == y + x and x * y == y * x
    star, int32 = ga.canonical_star(group), x.digits.astype(np.int32)
    built = [
        ga.from_coeffs(GF3, rebuilt, x.coeffs),
        ga.from_codes(GF3, group, np.array([0, 1, 2] + [0] * 24, dtype=np.uint16)),
        ga.parse_algebra_literal(GF3, rebuilt, "1*g1 + 2*g2"),
        x + y + x + y,  # 4x = x over GF(3)
        -(-y),
        y * ga.algebra_one(GF3, group),
        ga.apply_involution(ga.apply_involution(y, star), star),
        ga.AlgebraElement(GF3, rebuilt, int32),
    ]
    for z in built:
        assert z == x and hash(z) == hash(x) and z.digits.dtype == np.int64, z
    assert len({x, *built}) == 1
    assert int32.flags.writeable  # the element holds a copy; the caller's array is not frozen


def test_digits_are_read_only_and_shape_checked():
    field, group = make_field(3, 2), build("cyclic:3")
    x = ga.from_coeffs(field, group, [field.element([1, 2]), field.zero, field.one])
    assert ga.from_coeffs(field, group, x.coeffs) == x
    assert np.array_equal(x.digits, [[1, 2], [0, 0], [1, 0]])
    with pytest.raises(ValueError):
        x.digits[0, 0] = 0
    with pytest.raises(ValueError):
        ga.AlgebraElement(field, group, np.zeros((3, 1), dtype=np.int64))  # m = 2 digits a row
    with pytest.raises(ValueError):
        ga.from_codes(field, group, [0, 1])  # one code per group element


def test_digits_outside_zero_to_p_are_read_mod_p():
    # as from_coeffs reads integers: equality, hash and the literal see x alone
    group, gf9 = build("cyclic:3"), make_field(3, 2)
    x = ga.from_coeffs(GF3, group, [0, 1, 2])
    y = ga.AlgebraElement(GF3, group, [[3], [1], [-1]])
    assert y == x + ga.algebra_zero(GF3, group) and hash(y) == hash(x)
    assert ga.format_algebra_literal(y) == "1*g1 + 2*g2"
    digits = np.array([[4, -2], [0, 3], [-3, 7]], dtype=np.int64)
    z = ga.AlgebraElement(gf9, group, digits)
    assert z == ga.AlgebraElement(gf9, group, [[1, 1], [0, 0], [0, 1]]) and hash(z) == hash(z - z + z)
    assert digits.flags.writeable and digits[0, 0] == 4  # the caller's array is neither frozen nor reduced


def test_psi_and_lift_match_their_coefficientwise_forms():
    """Psi sums the coefficients over each coset and lift places them on the
    least representatives, checked one FieldElement at a time over GF(9)."""
    group, field = build("heisenberg:3"), make_field(3, 2)
    z = group.special_sets().center[1]
    ideal, psi, lift = ga.ideal_and_quotient(group, group.subgroup_generated([z]), field)
    rng = random.Random(7)
    for _ in range(20):
        x = _any_element(rng, field, group)
        expected = [field.zero] * ideal.quotient_group.n
        for g, c in enumerate(x.coeffs):
            expected[ideal.projection[g]] = expected[ideal.projection[g]] + c
        assert psi(x).coeffs == tuple(expected)
        xbar = _any_element(rng, field, ideal.quotient_group)
        lifted = [field.zero] * group.n
        for k, c in enumerate(xbar.coeffs):
            lifted[ideal.representatives[k]] = c
        assert lift(xbar).coeffs == tuple(lifted)


def test_canonical_star_abelian_is_automorphism():
    c9 = build("cyclic:9")
    star = ga.canonical_star(c9)
    for g in c9.elements():
        for h in c9.elements():
            assert star.sigma[c9.mul(g, h)] == c9.mul(star.sigma[g], star.sigma[h])


def test_canonical_star_q8_fixed_points():
    q8 = build("quaternion:8")
    assert ga.canonical_star(q8).fixed_points() == (0, 2)


def test_identity_map_on_d8_is_not_anti_automorphism():
    d8 = build("dihedral:8")
    with pytest.raises(NotAntiAutomorphism) as exc:
        ga.involution_from_map(d8, list(d8.elements()))
    assert exc.value.witness == (1, 4)  # (r, s): rs != sr


def test_identity_map_on_abelian_is_accepted():
    c4 = build("cyclic:4")
    inv = ga.involution_from_map(c4, list(c4.elements()), name="identity")
    assert inv.fixed_points() == (0, 1, 2, 3)


def test_involution_from_map_rejects_higher_order():
    c4 = build("cyclic:4")
    with pytest.raises(NotOrderTwo):
        ga.involution_from_map(c4, [0, 2, 3, 1])


def test_involution_from_map_rejects_non_permutation():
    c4 = build("cyclic:4")
    with pytest.raises(ValueError):
        ga.involution_from_map(c4, [0, 0, 1, 2])


@pytest.mark.parametrize("name, sigma, error, message, witness", [
    ("dihedral:8", [0, 0, 1, 2, 3, 4, 5, 6], ValueError,
     "sigma is not a permutation of the group indices", None),
    ("dihedral:8", [0, 1, 3, 4, 2, 5, 6, 7], NotOrderTwo, "sigma(sigma(g2)) != g2", 2),
    ("dihedral:8", [0, 3, 2, 1, 4, 5, 7, 6], NotAntiAutomorphism,
     "sigma(g1*g5) != sigma(g5)*sigma(g1)", (1, 5)),
    ("elementary_abelian:3:2", [0, 1, 2, 3, 4, 5, 6, 7, 9], ValueError,
     "sigma is not a permutation of the group indices", None),
    ("elementary_abelian:3:2", [0, 1, 2, 4, 5, 3, 6, 7, 8], NotOrderTwo,
     "sigma(sigma(g3)) != g3", 3),
    ("elementary_abelian:3:2", [0, 1, 2, 3, 4, 5, 6, 8, 7], NotAntiAutomorphism,
     "sigma(g1*g6) != sigma(g6)*sigma(g1)", (1, 6)),
    ("cyclic:3", [0, 2.9, 1], ValueError, "sigma entries must be integers", None),
    ("cyclic:3", [0, 2, 1.0], ValueError, "sigma entries must be integers", None),
    ("cyclic:3", [False, 2, True], ValueError, "sigma entries must be integers", None),
    ("cyclic:3", ["0", "2", "1"], ValueError, "sigma entries must be integers", None),
])
def test_involution_from_map_names_the_least_witness(name, sigma, error, message, witness):
    # a map that is neither of order two nor an anti-automorphism fails the
    # order first; each refusal names the least g, or the least (g, h) by rows;
    # an entry that is not an integer is refused as a table's is, not truncated
    with pytest.raises(error) as exc:
        ga.involution_from_map(build(name), sigma)
    assert type(exc.value) is error and str(exc.value) == message
    assert getattr(exc.value, "witness", None) == witness


def test_involutions_are_read_only_index_arrays():
    d8 = build("dihedral:8")
    star = ga.canonical_star(d8)
    assert np.shares_memory(star.sigma, d8.left_division())
    for inv in (star, ga.involution_from_map(d8, star.sigma.tolist())):
        assert inv.sigma.dtype == np.intp and not inv.sigma.flags.writeable
        assert inv.sigma.tolist() == [d8.inverse(g) for g in d8.elements()]


@pytest.mark.parametrize("name, field, order", [("quaternion:8", GF2, 64), ("cyclic:9", GF3, 81)])
def test_an_involution_built_by_hand_takes_a_sequence(name, field, order):
    # a tuple or a list sigma is stored as the read-only intp array that
    # canonical_star holds, a copy, and the oracle answers as with the star
    group = build(name)
    star = ga.canonical_star(group).sigma
    for sigma in (tuple(star.tolist()), star.tolist(), star.copy()):
        inv = ga.GroupInvolution(group, sigma, "*")
        assert inv.sigma.dtype == np.intp and not inv.sigma.flags.writeable
        assert np.array_equal(inv.sigma, star) and not np.shares_memory(inv.sigma, star)
        assert un.unitary_enumerate_oracle(group, inv, field).order == order
    assert np.asarray(sigma).flags.writeable  # the caller's array is not frozen


@pytest.mark.parametrize("sigma, message", [
    ([0, 3, 2], "sigma of shape (3,), not (4,)"),
    ([[0, 3], [2, 1]], "sigma of shape (2, 2), not (4,)"),
    ([0, 3, 2, -1], "sigma entry -1 outside [0, 4)"),
    ([0, 3, 2, 4], "sigma entry 4 outside [0, 4)"),
    ([0, 3, 2, 1.0], "sigma entries must be integers"),
])
def test_an_involution_built_by_hand_refuses_a_bad_sigma(sigma, message):
    with pytest.raises(ValueError) as exc:
        ga.GroupInvolution(build("cyclic:4"), sigma)
    assert str(exc.value) == message


def test_apply_involution_relabels_coefficients():
    c4 = build("cyclic:4")
    star = ga.canonical_star(c4)
    x = ga.from_coeffs(GF3, c4, [1, 2, 0, 0])      # 1 + 2g
    assert ga.apply_involution(x, star) == ga.from_coeffs(GF3, c4, [1, 0, 0, 2])


def test_apply_involution_fixes_symmetrized_basis():
    d8 = build("dihedral:8")
    star = ga.canonical_star(d8)
    g = ga.basis_element(GF2, d8, 1)
    sym = g + ga.apply_involution(g, star)
    assert ga.apply_involution(sym, star) == sym


def test_involution_reverses_products():
    q8 = build("quaternion:8")
    star = ga.canonical_star(q8)
    rng = random.Random(3)
    for _ in range(200):
        x, y = _random_element(rng, GF3, q8), _random_element(rng, GF3, q8)
        assert ga.apply_involution(x * y, star) == \
            ga.apply_involution(y, star) * ga.apply_involution(x, star)
        assert ga.apply_involution(ga.apply_involution(x, star), star) == x


def _scan_involutions():
    d8 = build("dihedral:8")
    yield ga.involution_from_map(d8, [d8.mul(d8.mul(1, d8.inverse(g)), 3) for g in d8.elements()])
    for name in ("quaternion:8", "dihedral:8", "abelian:2:[1,2]", "elementary_abelian:2:3", "cyclic:9"):
        yield ga.canonical_star(build(name))
    for name in ("cyclic:4", "cyclic:8", "elementary_abelian:2:2", "abelian:2:[1,2]", "cyclic:9"):
        group = build(name)
        yield ga.involution_from_map(group, list(group.elements()), name="identity")


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_x_times_its_involute_is_symmetric_and_squares_at_fixed_points(p, m):
    # the identities the characteristic-two oracle scan tests x x^sigma = 1 by:
    # coefficient sigma(k) equals coefficient k, and in characteristic two a
    # sigma-fixed coefficient k is (sum of x_g over g sigma(g) = k)^2
    field, rng = make_field(p, m), random.Random(14)
    for inv in _scan_involutions():
        group, sigma = inv.group, inv.sigma
        for _ in range(20):
            x = _any_element(rng, field, group)
            y = x * ga.apply_involution(x, inv)
            assert all(y.coeffs[sigma[k]] == y.coeffs[k] for k in group.elements())
            for k in (inv.fixed_points() if p == 2 else ()):
                s = field.zero
                for g in group.elements():
                    if group.mul(g, sigma[g]) == k:
                        s = s + x.coeffs[g]
                assert y.coeffs[k] == s * s, (inv, k)


def test_star_fixed_points_d8_are_involutions():
    d8 = build("dihedral:8")
    assert len(ga.canonical_star(d8).fixed_points()) == 6


def test_skew_basis_sizes():
    c3, c9, h27 = build("cyclic:3"), build("cyclic:9"), build("heisenberg:3")
    star3 = ga.canonical_star(c3)
    basis = ga.skew_symmetric_basis(c3, star3, GF3)
    assert len(basis) == 1
    assert basis[0] == ga.basis_element(GF3, c3, 1) - ga.basis_element(GF3, c3, 2)
    assert len(ga.skew_symmetric_basis(c9, ga.canonical_star(c9), GF3)) == 4
    assert len(ga.skew_symmetric_basis(h27, ga.canonical_star(h27), GF3)) == 13


def test_skew_basis_vectors_are_skew():
    c9 = build("cyclic:9")
    star = ga.canonical_star(c9)
    for b in ga.skew_symmetric_basis(c9, star, GF3):
        assert ga.apply_involution(b, star) == -b


def test_skew_basis_refuses_char2():
    c4 = build("cyclic:4")
    with pytest.raises(EvenCharacteristic):
        ga.skew_symmetric_basis(c4, ga.canonical_star(c4), GF2)


def test_ideal_and_quotient_d8():
    d8 = build("dihedral:8")
    center = d8.subgroup_generated([2])
    ideal, psi, lift = ga.ideal_and_quotient(d8, center, GF2)
    assert ideal.dimension == 4
    assert ideal.unit_coset_order() == 16
    one = ga.algebra_one(GF2, d8)
    assert psi(one) == ga.algebra_one(GF2, ideal.quotient_group)
    hat = one + ga.basis_element(GF2, d8, 2)
    assert psi(hat).is_zero()


def test_psi_is_homomorphism():
    c8 = build("cyclic:8")
    sub = c8.subgroup_generated([4])
    _, psi, _ = ga.ideal_and_quotient(c8, sub, GF4)
    rng = random.Random(4)
    for _ in range(100):
        x = _random_element(rng, GF4, c8)
        y = _random_element(rng, GF4, c8)
        assert psi(x * y) == psi(x) * psi(y)
        assert psi(x + y) == psi(x) + psi(y)


def test_psi_lift_is_identity():
    q16 = build("quaternion:16")
    sub = q16.subgroup_generated([4])
    ideal, psi, lift = ga.ideal_and_quotient(q16, sub, GF2)
    gbar = ideal.quotient_group
    rng = random.Random(5)
    for _ in range(50):
        xbar = _random_element(rng, GF2, gbar)
        assert psi(lift(xbar)) == xbar


def _check_kernel_dimension(group, sub, field):
    """dim I(H) = |G| - |G/H| by rank-nullity. Psi kills every t(1 - h), over
    the least coset representatives t and h != 1 in H (t(1 + h) in
    characteristic two); these are independent, as only t(1 - h) is supported
    on th and no th is a representative; and Psi is onto, as Psi(lift(u)) = u."""
    ideal, psi, lift = ga.ideal_and_quotient(group, sub, field)
    nbar = group.n // len(sub)
    assert ideal.quotient_group.n == nbar and ideal.dimension == group.n - nbar
    pivots = []
    for t in ideal.representatives:
        for h in sub.members:
            if h != 0:
                th = group.mul(t, h)
                assert psi(ga.basis_element(field, group, t) - ga.basis_element(field, group, th)).is_zero()
                pivots.append(th)
    assert len(set(pivots)) == len(pivots) == ideal.dimension
    assert not set(pivots) & set(ideal.representatives)
    for k in range(nbar):
        e = ga.basis_element(field, ideal.quotient_group, k)
        assert psi(lift(e)) == e


@pytest.mark.parametrize("p, name", [(p, entry.name) for p, max_order in ((2, 32), (3, 27))
                                     for entry in catalog_entries(max_order, p)])
def test_kernel_dimension_over_central_subgroups_of_order_p(p, name):
    # the central involutions for p = 2, central elements of order 3 for p = 3
    group, field = build(name), make_field(p, 1)
    centrals = [z for z in group.elements() if z != 0 and group.order_of(z) == p
                and all(group.mul(z, g) == group.mul(g, z) for g in group.elements())]
    assert centrals, name
    for z in centrals:
        _check_kernel_dimension(group, group.subgroup_generated([z]), field)


def test_kernel_dimension_for_larger_subgroup():
    c8 = build("cyclic:8")
    _check_kernel_dimension(c8, c8.subgroup_generated([2]), GF2)  # order 4


def test_equal_elements_over_equal_groups_hash_equal():
    a = ga.basis_element(GF2, build("elementary_abelian:2:3"), 3)
    b = ga.basis_element(GF2, build("abelian:2:[1,1,1]"), 3)
    assert a.group.id != b.group.id and a == b
    assert hash(a) == hash(b)


def test_spec_mismatch_between_algebras():
    c4, c2 = build("cyclic:4"), build("cyclic:2")
    x = ga.algebra_one(GF2, c4)
    y = ga.algebra_one(GF2, c2)
    with pytest.raises(SpecMismatch):
        x + y
    with pytest.raises(SpecMismatch):
        x * ga.algebra_one(GF4, c4)


@pytest.mark.parametrize("g", [-1, 9])
def test_basis_element_refuses_index_outside_group(g):
    with pytest.raises(ValueError) as exc:
        ga.basis_element(GF3, build("cyclic:9"), g)
    assert str(exc.value) == f"basis index {g} outside group of order 9"


@pytest.mark.parametrize("index", [True, False, 1.0, "1"], ids=["true", "false", "float", "str"])
def test_a_basis_or_product_index_that_is_not_an_integer_is_refused(index):
    # True == 1 and 1.0 == 1 pass a range test, numpy reads True as a mask and
    # a float digit array would be truncated
    c4 = build("cyclic:4")
    with pytest.raises(ValueError) as exc:
        ga.basis_element(GF2, c4, index)
    assert str(exc.value) == f"basis index {index!r} is not an integer"
    for call in (lambda: c4.mul(index, 1), lambda: c4.mul(1, index)):
        with pytest.raises(IndexOutOfRange) as exc:
            call()
        assert str(exc.value) == f"element index {index!r} is not an integer"
    digits = np.full((4, 1), index)
    with pytest.raises(ValueError) as exc:
        ga.AlgebraElement(GF3, c4, digits)
    assert str(exc.value) == f"digits of dtype {digits.dtype}, not integers"
    for i, j in ((-1, 1), (4, 0)):
        with pytest.raises(IndexOutOfRange) as exc:
            c4.mul(i, j)
        assert str(exc.value) == f"element index {i} outside [0, 4)"
    assert c4.mul(np.int64(1), np.uint8(3)) == 0
    assert ga.basis_element(GF2, c4, np.int64(1)).support() == (1,)


def test_from_coeffs_refuses_coefficients_from_another_field():
    c3 = build("cyclic:3")
    with pytest.raises(FieldMismatch):
        ga.from_coeffs(GF3, c3, [make_field(5, 1).from_int(4), 0, 0])
    with pytest.raises(FieldMismatch):
        ga.from_coeffs(GF3, c3, [make_field(5, 2).element([1, 1]), 0, 0])


@pytest.mark.parametrize("coefficient", ["2", True, 1.5, np.float64(2.7), np.bool_(True), None])
def test_from_coeffs_refuses_coefficients_that_are_not_integers(coefficient):
    # int() would read "2" as 2, True and 1.5 as 1, and np.float64(2.7) as 2
    with pytest.raises(ValueError, match="is neither an integer nor an element of"):
        ga.from_coeffs(GF3, build("cyclic:3"), [coefficient, 0, 0])


def test_from_coeffs_reads_integers_of_any_integer_type_mod_p():
    c3 = build("cyclic:3")
    x = ga.from_coeffs(GF3, c3, [np.int64(5), np.uint8(4), -3])
    assert x == ga.from_coeffs(GF3, c3, [GF3.from_int(2), GF3.one, GF3.zero])


def test_algebra_literals_round_trip():
    c4 = build("cyclic:4")
    x = ga.from_coeffs(GF4, c4, [GF4.one, GF4.element([0, 1]), GF4.zero, GF4.one])
    text = ga.format_algebra_literal(x)
    assert text == "10*g0 + 01*g1 + 10*g3"
    assert ga.parse_algebra_literal(GF4, c4, text) == x
    assert ga.format_algebra_literal(ga.algebra_zero(GF4, c4)) == "0"


def test_algebra_literal_refuses_coefficients_outside_the_prime_field():
    with pytest.raises(ValueError, match="bad element literal"):
        ga.parse_algebra_literal(make_field(3, 1), build("cyclic:3"), "7*g1")


def test_algebra_literals_round_trip_above_ten():
    f169 = make_field(13, 2)
    c11 = build("cyclic:11")
    x = ga.from_coeffs(f169, c11, [f169.element([5, 12]), f169.one] + [f169.zero] * 9)
    assert ga.format_algebra_literal(x) == "5.12*g0 + 1.0*g1"
    assert ga.parse_algebra_literal(f169, c11, ga.format_algebra_literal(x)) == x
    assert repr(ga.basis_element(make_field(11, 1), c11, 1)) == "AlgebraElement(11^1, cyclic:11, '1*g1')"
