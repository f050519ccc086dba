"""Field arithmetic: construction, axioms, tau, literals."""

import itertools

import pytest

from unitary_lab import finite_field as ff
from unitary_lab.errors import (
    DivisionByZero,
    FieldMismatch,
    NonPrime,
    OddCharacteristic,
)

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]


def test_make_field_prime_fields():
    f2 = ff.make_field(2, 1)
    assert f2.order == 2 and f2.modulus == (1, 1)
    f3 = ff.make_field(3, 1)
    assert f3.order == 3
    assert len(list(f3.elements())) == 3


def test_make_field_gf4_modulus_has_no_roots():
    f4 = ff.make_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1
    # exhaustive substitution over GF(2)
    for r in (0, 1):
        value = sum(c * r ** i for i, c in enumerate(f4.modulus)) % 2
        assert value != 0


def test_make_field_search_is_lexicographically_least():
    # independent oracle: enumerate monic quadratics over Z/7 by packed value
    def has_root(tail):
        poly = list(tail) + [1]
        return any(sum(c * r ** i for i, c in enumerate(poly)) % 7 == 0 for r in range(7))

    best = None
    for packed in range(49):
        tail = (packed % 7, packed // 7)
        if not has_root(tail):
            best = tail + (1,)
            break
    spec = ff.make_field(7, 2)
    assert spec.modulus == best


def test_make_field_rejects_nonprime():
    with pytest.raises(NonPrime):
        ff.make_field(4, 1)
    with pytest.raises(NonPrime):
        ff.make_field(1, 2)


def test_make_field_degree_bounds():
    with pytest.raises(ValueError):
        ff.make_field(2, 0)
    with pytest.raises(ValueError):
        ff.make_field(2, 17)


def test_char2_addition():
    f2 = ff.make_field(2, 1)
    assert (f2.one + f2.one).is_zero()


def test_gf4_multiplication_and_inverse():
    f4 = ff.make_field(2, 2)
    w = f4.element([0, 1])
    w_plus_1 = f4.element([1, 1])
    assert w * w == w_plus_1          # x^2 = x + 1 mod the modulus
    assert w.inverse() == w_plus_1
    assert w * w.inverse() == f4.one


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        ff.make_field(3, 1).zero.inverse()


def test_field_mismatch():
    a = ff.make_field(2, 1).one
    b = ff.make_field(3, 1).one
    with pytest.raises(FieldMismatch):
        a + b


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    spec = ff.make_field(p, m)
    if spec.order > 16:
        pytest.skip("exhaustive axiom sweep is specified for |F| <= 16")
    elems = list(spec.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in elems:
        assert a + spec.zero == a
        assert a * spec.one == a
        if not a.is_zero():
            assert a * a.inverse() == spec.one


@pytest.mark.parametrize("p,m", [(11, 1), (13, 1)])
def test_inverses_bigger_prime_fields(p, m):
    spec = ff.make_field(p, m)
    for a in spec.elements():
        if not a.is_zero():
            assert a * a.inverse() == spec.one


def test_tau_gf2():
    f2 = ff.make_field(2, 1)
    assert ff.tau(f2.one) == f2.zero
    image = ff.tau_image(f2)
    assert image == frozenset([f2.zero])
    assert len(image) == f2.order // 2


def test_tau_gf4():
    f4 = ff.make_field(2, 2)
    w = f4.element([0, 1])
    assert ff.tau(w) == f4.one
    image = ff.tau_image(f4)
    assert image == frozenset([f4.zero, f4.one])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_tau_additive_with_half_image(m):
    spec = ff.make_field(2, m)
    elems = list(spec.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert ff.tau(a + b) == ff.tau(a) + ff.tau(b)
    kernel = [a for a in elems if ff.tau(a).is_zero()]
    assert len(kernel) == 2
    assert len(ff.tau_image(spec)) == spec.order // 2
    assert ff.tau(spec.zero) == spec.zero
    # image is closed under addition
    image = ff.tau_image(spec)
    for a, b in itertools.product(image, repeat=2):
        assert a + b in image


def test_tau_rejects_odd_characteristic():
    f3 = ff.make_field(3, 1)
    with pytest.raises(OddCharacteristic):
        ff.tau(f3.one)
    with pytest.raises(OddCharacteristic):
        ff.tau_image(f3)


def test_field_literal_round_trip():
    spec = ff.parse_field_literal("2^2")
    assert (spec.p, spec.m) == (2, 2)
    assert spec.literal() == "2^2"
    assert ff.parse_field_literal("5").order == 5
    with pytest.raises(ValueError):
        ff.parse_field_literal("abc")


def test_element_literal_round_trip():
    f9 = ff.make_field(3, 2)
    a = ff.parse_element_literal(f9, "21")
    assert a.coeffs == (2, 1)
    assert ff.format_element_literal(a) == "21"


def test_element_literal_round_trip_above_ten():
    for spec in (ff.make_field(11, 1), ff.make_field(13, 2)):
        for a in spec.elements():
            text = ff.format_element_literal(a)
            assert "+" not in text and "*" not in text
            assert ff.parse_element_literal(spec, text) == a
    assert ff.format_element_literal(ff.make_field(13, 2).element([5, 12])) == "5.12"
    assert ff.format_element_literal(ff.make_field(11, 1).from_int(10)) == "10"


def test_element_literal_refuses_coefficients_outside_the_prime_field():
    for spec, text in ((ff.make_field(3, 1), "9"), (ff.make_field(11, 1), "25"),
                       (ff.make_field(13, 2), "5.13")):
        with pytest.raises(ValueError, match="bad element literal"):
            ff.parse_element_literal(spec, text)


def test_code_round_trip():
    spec = ff.make_field(3, 2)
    for code in range(spec.order):
        assert spec.from_code(code).code == code


def test_make_field_2_5_search_matches_brute_force():
    # outside the fixed table; oracle: first packed tail with no factor of
    # degree <= 2 over GF(2)
    def divides(d, poly):
        rem = list(poly)
        while len(rem) >= len(d):
            if rem[-1]:
                shift = len(rem) - len(d)
                for i, c in enumerate(d):
                    rem[shift + i] ^= c
            rem.pop()
        return not any(rem)

    divisors = [[0, 1], [1, 1], [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    best = None
    for packed in range(32):
        tail = [(packed >> i) & 1 for i in range(5)]
        poly = tail + [1]
        if not any(divides(d, poly) for d in divisors):
            best = tuple(poly)
            break
    spec = ff.make_field(2, 5)
    assert spec.modulus == best == (1, 0, 1, 0, 0, 1)  # x^5 + x^2 + 1
