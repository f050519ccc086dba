"""Catalog constructions: presentations, indexing conventions, sweeps."""

import numpy as np
import pytest

from unitary_lab import group_catalog as cat
from unitary_lab.errors import BadParameter, UnknownName


def test_dihedral_8():
    d8 = cat.build("dihedral:8")
    assert d8.n == 8
    assert len(d8.special_sets().order_two) == 6
    # every reflection squares to the identity
    for k in range(4):
        assert d8.mul(4 + k, 4 + k) == 0


def test_semidihedral_16_relation():
    sd = cat.build("semidihedral:16")
    assert sd.n == 16
    # s r s^-1 = r^3
    s = 8
    assert sd.mul(sd.mul(s, 1), sd.inverse(s)) == 3
    # (r^k s)^2 = r^{4k}: solutions of g^2 = 1 are k in {0,2,4,6} plus 1, r^4
    for k in range(8):
        assert sd.mul(8 + k, 8 + k) == (4 * k) % 8
    assert len(sd.special_sets().order_two) == 6


def test_modular_16_relation():
    m16 = cat.build("modular:16")
    s = 8
    assert m16.mul(m16.mul(s, 1), m16.inverse(s)) == 5
    assert len(m16.special_sets().order_two) == 4


def test_quaternion_presentation():
    q16 = cat.build("quaternion:16")
    s = 8
    assert q16.mul(s, s) == 4            # s^2 = r^{2^{n-2}}
    assert q16.mul(q16.mul(s, 1), q16.inverse(s)) == 7  # s r s^-1 = r^-1
    assert len(q16.special_sets().order_two) == 2


def test_heisenberg_3():
    h = cat.build("heisenberg:3")
    assert h.n == 27
    assert all(h.order_of(g) == 3 for g in range(1, 27))
    assert len(h.special_sets().center) == 3


def test_bad_parameters():
    for name in ("dihedral:6", "dihedral:4", "quaternion:4", "heisenberg:2",
                 "semidihedral:32", "modular:8", "cyclic:0"):
        with pytest.raises(BadParameter):
            cat.build(name)
    with pytest.raises(UnknownName):
        cat.build("frobnicate:3")


def test_sweep_order_8():
    names = {g.id for g in cat.sweep(8, 2)}
    assert names == {
        "cyclic:2", "cyclic:4", "cyclic:8",
        "elementary_abelian:2:2", "elementary_abelian:2:3", "abelian:2:[1,2]",
        "dihedral:8", "quaternion:8",
    }


def test_sweep_order_16_includes_sporadics():
    names = {g.id for g in cat.sweep(16, 2)}
    assert "semidihedral:16" in names
    assert "modular:16" in names
    assert "dihedral:16" in names and "quaternion:16" in names


def test_sweep_p3():
    names = {g.id for g in cat.sweep(27, 3)}
    assert names == {
        "cyclic:3", "cyclic:9", "cyclic:27",
        "elementary_abelian:3:2", "elementary_abelian:3:3", "abelian:3:[1,2]",
        "heisenberg:3",
    }


@pytest.mark.parametrize("p,max_order", [(2, 16), (3, 27)])
def test_swept_groups_are_p_groups(p, max_order):
    for g in cat.sweep(max_order, p):
        for x in g.elements():
            order = g.order_of(x)
            while order % p == 0:
                order //= p
            assert order == 1, (g.id, x)


def test_quaternion_unique_involution():
    q8 = cat.build("quaternion:8")
    assert q8.special_sets().order_two == (0, 2)


@pytest.mark.parametrize("n_exp", [3, 4, 5])
def test_dihedral_involution_count(n_exp):
    g = cat.build(f"dihedral:{2 ** n_exp}")
    assert len(g.special_sets().order_two) == 2 ** (n_exp - 1) + 2


def test_expected_facts_match_construction():
    for entry in cat.catalog_entries(16, 2):
        g = entry.build()
        assert g.n == entry.order
        if "order_two" in entry.expected_facts:
            assert len(g.special_sets().order_two) == entry.expected_facts["order_two"], entry.name


def test_product_of_cyclics_is_elementary_abelian():
    prod = cat.build("product:cyclic:2*cyclic:2")
    ea = cat.build("elementary_abelian:2:2")
    assert np.array_equal(prod.table, ea.table)


def test_product_dihedral_by_c2():
    g = cat.build("product:dihedral:8*cyclic:2")
    assert g.n == 16
    assert not g.is_abelian()


def test_builders_are_deterministic():
    for name in ("dihedral:16", "abelian:2:[1,2]", "heisenberg:3"):
        a, b = cat.build(name), cat.build(name)
        assert np.array_equal(a.table, b.table)


def test_abelian_indexing_little_endian():
    g = cat.build("abelian:2:[1,2]")  # C2 x C4, first factor fastest
    assert g.mul(1, 1) == 0           # the C2 generator squares away
    assert g.order_of(2) == 4         # the C4 generator sits at index 2


def _mixed_radix_abelian(p, ks):
    """C_{p^k1} x C_{p^k2} x ... by a little-endian mixed-radix encoder, the
    first factor fastest: the digits of i and j add mod each modulus, an
    encoding independent of `product`."""
    moduli = np.array([p ** k for k in ks])
    places = np.concatenate(([1], np.cumprod(moduli)[:-1]))  # weight of each digit
    n = int(np.prod(moduli))
    digits = np.arange(n)[:, None] // places % moduli         # (n, len(ks))
    return (digits[:, None, :] + digits[None, :, :]) % moduli @ places


def _abelian_types():
    """Every abelian type of order p^e: p = 2 up to 256, p = 3 up to 81, p = 5 up to 125."""
    for p, max_order in ((2, 256), (3, 81), (5, 125)):
        e = 1
        while p ** e <= max_order:
            yield from ((p, ks) for ks in cat._partitions(e))
            e += 1


def test_abelian_groups_match_the_mixed_radix_reference():
    types = list(_abelian_types())
    assert len(types) == 83
    for p, ks in types:
        name = f"abelian:{p}:[{','.join(map(str, ks))}]"
        g = cat.build(name)
        assert g.id == name
        assert g.table.dtype == np.int64 and np.array_equal(g.table, _mixed_radix_abelian(p, ks)), name


def _two_generator_loop(order, conj_exp, s_square_rot):
    """The two-generator table entry by entry: r^i at index i, r^i s at q + i."""
    q = order // 2
    table = np.zeros((order, order), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            table[a, b] = (a + b) % q
            table[a, q + b] = q + (a + b) % q
            table[q + a, b] = q + (a + conj_exp * b) % q
            table[q + a, q + b] = (a + conj_exp * b + s_square_rot) % q
    return table


def _heisenberg_loop(p):
    """Upper unitriangular (a, b, c) at a + p b + p^2 c, entry by entry."""
    n = p ** 3
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        a, b, c = i % p, i // p % p, i // (p * p)
        for j in range(n):
            a2, b2, c2 = j % p, j // p % p, j // (p * p)
            table[i, j] = (a + a2) % p + p * ((b + b2) % p) + p * p * ((c + c2 + a * b2) % p)
    return table


def _loop_references():
    for k in range(3, 9):
        yield f"dihedral:{2 ** k}", _two_generator_loop(2 ** k, -1, 0)
        yield f"quaternion:{2 ** k}", _two_generator_loop(2 ** k, -1, 2 ** (k - 2))
    yield "semidihedral:16", _two_generator_loop(16, 3, 0)
    yield "modular:16", _two_generator_loop(16, 5, 0)
    for p in (3, 5, 7):
        yield f"heisenberg:{p}", _heisenberg_loop(p)


def test_non_abelian_builders_match_the_entry_by_entry_reference():
    for name, expected in _loop_references():
        g = cat.build(name)
        assert g.id == name
        assert g.table.dtype == np.int64 and g.table.tobytes() == expected.tobytes(), name
