"""The batch kernels agree with the scalar reference implementation."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from unitary_lab import engine
from unitary_lab import group_algebra as ga
from unitary_lab.engine import (
    DEFAULT_BATCH,
    MAX_GATHER_BYTES,
    PLANE_CHUNK_ROWS,
    AlgebraContext,
    digits,
    field_tables,
    first_nonzero_row,
    from_planes,
    index_planes,
    keys_contain,
    row_index,
    row_mask,
    row_words,
    to_planes,
)
from unitary_lab.errors import SearchSpaceTooLarge
from unitary_lab.finite_field import fold_matrix, is_prime, make_field
from unitary_lab.group_catalog import build, catalog_entries
from unitary_lab.verify import _swap_inverse_involution

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


@pytest.mark.parametrize("p,m", FIELDS + [(2, 4), (5, 2), (3, 3), (7, 2), (11, 2)])
def test_field_tables_match_scalar_ops(p, m):
    spec = make_field(p, m)
    tabs = field_tables(spec)
    elems = list(spec.elements())
    for a in elems:
        assert tabs.neg[a.code] == (-a).code
        for b in elems:
            assert tabs.add[a.code, b.code] == (a + b).code
            assert tabs.mul[a.code, b.code] == (a * b).code


def _int64_field_tables(spec):
    """add, mul and neg by the same digit contraction as field_tables, in
    int64 arithmetic and in one piece."""
    q, p, m = spec.order, spec.p, spec.m
    d = digits(np.arange(q, dtype=np.uint64), p, m).astype(np.int64)
    powers = p ** np.arange(m)
    folded = np.einsum("yb,abk->ayk", d, fold_matrix(spec).reshape(m, m, m)).reshape(m, q * m)
    return ((d[:, None, :] + d) % p @ powers, (d @ folded).reshape(q, q, m) % p @ powers,
            -d % p @ powers)


@pytest.mark.parametrize("p,m", [(3, 4), (5, 2), (3, 6), (2, 8)])
def test_field_tables_equal_the_int64_construction(p, m):
    # the float64 products are exact: every entry is an integer below 2^53
    tabs = field_tables(make_field(p, m))
    for table, reference in zip((tabs.add, tabs.mul, tabs.neg), _int64_field_tables(make_field(p, m))):
        assert table.dtype == np.uint16 and not table.flags.writeable
        assert np.array_equal(table, reference), (p, m)


def _table_bytes(p, m):
    """The int64 digits of a whole (q, q) table, which field_tables counts."""
    return p ** (2 * m) * m * 8


@pytest.mark.parametrize("p,m", [(2, 11), (3, 7), (5, 5)])
def test_field_tables_at_the_size_cap(p, m):
    assert _table_bytes(p, m) <= MAX_GATHER_BYTES < _table_bytes(p, m + 1)  # the largest table for p
    spec = make_field(p, m)
    tabs = field_tables(spec)
    elems = list(spec.elements())
    for a in random.Random(p).sample(elems, 8):
        assert tabs.neg[a.code] == (-a).code
        for b in elems:
            assert tabs.add[a.code, b.code] == (a + b).code
            assert tabs.mul[a.code, b.code] == (a * b).code
    field_tables.cache_clear()  # tens of MiB each, which no later test reads


def test_field_tables_refuse_beyond_the_size_cap():
    # refused before any table is allocated: GF(3^8)'s digits alone would be 2.6 GiB
    for p, m in ((2, 12), (3, 8), (8209, 1)):
        spec = make_field(p, m)
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceTooLarge) as exc:
                field_tables(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.size, exc.value.cap) == (_table_bytes(p, m), MAX_GATHER_BYTES), p
        assert exc.value.context == "field table build"
        assert peak < 1 << 16, p


def _element(ctx, row):
    return ga.from_codes(ctx.field, ctx.group, row)


def _codes(x):
    return np.array([c.code for c in x.coeffs], dtype=np.uint16)


def _random_codes(rng, ctx, rows):
    return np.array([[rng.randrange(ctx.q) for _ in range(ctx.n)] for _ in range(rows)],
                    dtype=np.uint16)


def _plane_norm(ctx, X, sigma):
    """x x^sigma for every row x of X over GF(2^m), through bit-planes."""
    return from_planes(ctx.norm_planes(to_planes(X, ctx.field.m), sigma), X.shape[0])


def _table_product(ctx, X, Y):
    """The product of (B, n) code batches through the field tables,
    out[g_i g_j] += X[i] Y[j]: the independent reference that the batch
    product and the oracle scans are held to. Either factor may be (1, n)."""
    add_t, mul_t = ctx.tabs.add, ctx.tabs.mul
    out = np.zeros((max(X.shape[0], Y.shape[0]), ctx.n), dtype=np.uint16)
    for i in range(ctx.n):
        if X[:, i].any():  # a zero column adds nothing
            dest = ctx.gtable[i]
            out[:, dest] = add_t[out[:, dest], mul_t[X[:, i, None], Y]]
    return out


def test_batch_mul_exhaustive_fc2_gf2():
    spec, group = make_field(2, 1), build("cyclic:2")
    ctx = AlgebraContext(spec, group)
    all_rows = np.array(list(itertools.product(range(2), repeat=2)), dtype=np.uint16)
    for i in range(4):
        X = np.repeat(all_rows[i][None, :], 4, axis=0)
        got = ctx.mul(X, all_rows)
        for j in range(4):
            scalar = _element(ctx, all_rows[i]) * _element(ctx, all_rows[j])
            assert np.array_equal(got[j], _codes(scalar))


@pytest.mark.parametrize("group_name,p,m", [
    ("dihedral:8", 2, 2), ("elementary_abelian:3:2", 3, 1), ("quaternion:8", 2, 1),
    ("cyclic:9", 3, 1), ("cyclic:5", 5, 2), ("heisenberg:3", 3, 2),
])
def test_batch_mul_matches_scalar(group_name, p, m):
    spec, group = make_field(p, m), build(group_name)
    ctx = AlgebraContext(spec, group)
    rng = random.Random(0)
    X = _random_codes(rng, ctx, 50)
    Y = _random_codes(rng, ctx, 50)
    got = ctx.mul(X, Y)
    for i in range(50):
        scalar = _element(ctx, X[i]) * _element(ctx, Y[i])
        assert np.array_equal(got[i], _codes(scalar))


def test_batch_mul_fixed_right_factor():
    # a (1, n) factor on either side, in characteristic two and in odd p
    for spec, group in ((make_field(2, 2), build("dihedral:8")), (make_field(3, 2), build("heisenberg:3"))):
        ctx = AlgebraContext(spec, group)
        rng = random.Random(1)
        X = _random_codes(rng, ctx, 20)
        u = _random_codes(rng, ctx, 1)
        right, left = ctx.mul(X, u), ctx.mul(u, X)
        u_scalar = _element(ctx, u[0])
        for i in range(20):
            x = _element(ctx, X[i])
            assert np.array_equal(right[i], _codes(x * u_scalar))
            assert np.array_equal(left[i], _codes(u_scalar * x))


# every field GF(2^1..5) (GF(32) takes its modulus from the search) on groups of
# order 2 to 32, as far as q^|G| fits the packed keys
CHAR2_CASES = [
    ("cyclic:2", 5), ("cyclic:4", 4), ("quaternion:8", 3), ("dihedral:8", 5),
    ("abelian:2:[1,2]", 2), ("dihedral:16", 2), ("semidihedral:16", 1),
    ("abelian:2:[1,1,3]", 1), ("dihedral:32", 1), ("quaternion:32", 1),
]


@pytest.mark.parametrize("group_name,m", CHAR2_CASES)
def test_char2_mul_matches_table_kernel_and_scalar(group_name, m):
    spec, group = make_field(2, m), build(group_name)
    ctx = AlgebraContext(spec, group)
    rng = np.random.default_rng(m * 100 + group.n)
    for B in (1, 63, 64, 65, 1000):
        X = rng.integers(0, ctx.q, size=(B, ctx.n)).astype(np.uint16)
        Y = rng.integers(0, ctx.q, size=(B, ctx.n)).astype(np.uint16)
        X[:, B % ctx.n] = 0  # an all-zero column still takes part in every plane step
        got, fixed = ctx.mul(X, Y), ctx.mul(X, Y[:1])  # a batch, and a fixed (1, n) factor
        for out, right in ((got, Y), (fixed, Y[:1])):
            assert out.dtype == np.uint16 and out.shape == (B, ctx.n)
            assert np.array_equal(out, _table_product(ctx, X, right))
        for r in {0, B // 2, B - 1}:
            x = _element(ctx, X[r])
            assert np.array_equal(got[r], _codes(x * _element(ctx, Y[r])))
            assert np.array_equal(fixed[r], _codes(x * _element(ctx, Y[0])))


@pytest.mark.parametrize("group_name,m", [("dihedral:8", 2), ("abelian:2:[1,2]", 3)])
def test_char2_mul_across_row_and_word_chunks(group_name, m):
    # PLANE_CHUNK_ROWS + 65 rows: the conversions run two row chunks, and the
    # product two word pieces, the second one partly filled
    ctx = AlgebraContext(make_field(2, m), build(group_name))
    rng = np.random.default_rng(m)
    B = PLANE_CHUNK_ROWS + 65
    X = rng.integers(0, ctx.q, size=(B, ctx.n)).astype(np.uint16)
    Y = rng.integers(0, ctx.q, size=(B, ctx.n)).astype(np.uint16)
    assert np.array_equal(ctx.mul(X, Y), _table_product(ctx, X, Y))
    assert np.array_equal(ctx.mul(X, Y[:1]), _table_product(ctx, X, Y[:1]))


def test_odd_mul_runs_in_row_chunks_within_the_gather_cap(monkeypatch):
    # a cap of 3.5 rows' gather: 100 rows run as 34 chunks of at most 3 rows
    ctx = AlgebraContext(make_field(3, 2), build("heisenberg:3"))
    row_bytes = ctx.n * ctx.n * ctx.field.m * 8
    monkeypatch.setattr(engine, "MAX_GATHER_BYTES", row_bytes * 7 // 2)
    product, gathers = engine.digit_product, []

    def recorded(field, group, x, y):
        gathers.append(max(x.shape[0], y.shape[0]) * row_bytes)
        return product(field, group, x, y)

    monkeypatch.setattr(engine, "digit_product", recorded)
    rng = np.random.default_rng(5)
    X = rng.integers(0, ctx.q, size=(100, ctx.n)).astype(np.uint16)
    Y = rng.integers(0, ctx.q, size=(100, ctx.n)).astype(np.uint16)
    for left, right in ((X, Y), (X, Y[:1]), (Y[:1], X)):
        gathers.clear()
        assert np.array_equal(ctx.mul(left, right), _table_product(ctx, left, right))
        assert len(gathers) == 34 and max(gathers) <= engine.MAX_GATHER_BYTES
    monkeypatch.setattr(engine, "MAX_GATHER_BYTES", row_bytes - 1)
    with pytest.raises(SearchSpaceTooLarge) as exc:
        ctx.mul(X, Y)
    assert (exc.value.size, exc.value.context) == (row_bytes, "digit product")


@pytest.mark.parametrize("group_name,m", [("quaternion:8", 3), ("dihedral:16", 1), ("abelian:2:[1,2]", 2)])
def test_plane_product_of_chosen_coefficients(group_name, m):
    ctx = AlgebraContext(make_field(2, m), build(group_name))
    rng = np.random.default_rng(ctx.n)
    X = rng.integers(0, ctx.q, size=(200, ctx.n)).astype(np.uint16)
    Y = rng.integers(0, ctx.q, size=(200, ctx.n)).astype(np.uint16)
    xp, yp = to_planes(X, m), to_planes(Y, m)
    full = ctx.plane_product(xp, yp)
    for coeffs in (np.array([ctx.n - 1, 0, 2]), np.array([1]), np.arange(ctx.n)[::-1]):
        assert np.array_equal(ctx.plane_product(xp, yp, coeffs), full[coeffs])


@pytest.mark.parametrize("group_name,m", [("quaternion:8", 3), ("dihedral:16", 1), ("abelian:2:[1,2]", 2)])
def test_norm_over_a_support_matches_the_full_norm(group_name, m):
    # X zero off a support: the restricted product sums over the support only
    ctx = AlgebraContext(make_field(2, m), build(group_name))
    rng = np.random.default_rng(ctx.n + m)
    for support in (np.arange(0, ctx.n, 2), np.array([ctx.n - 1, 1]), np.arange(ctx.n)):
        X = np.zeros((130, ctx.n), dtype=np.uint16)
        X[:, support] = rng.integers(0, ctx.q, size=(130, support.size))
        xp = to_planes(X[:, support], m)
        assert np.array_equal(from_planes(ctx.norm_planes(xp, ctx.star, support), 130),
                              _table_product(ctx, X, X[:, ctx.star]))


@pytest.mark.parametrize("rows,bits", [(1, 0), (8, 3), (32, 5), (64, 6), (4096, 12), (1 << 14, 14)])
def test_index_planes_are_the_planes_of_the_row_indices(rows, bits):
    # pad rows of a short word carry their indices' bits, where to_planes pads with 0
    expected = to_planes(np.arange(max(rows, 64), dtype=np.uint64)[:, None], bits)[0]
    assert index_planes(rows, bits).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 200])
def test_row_mask_and_first_nonzero_row(rows):
    mask = row_mask(rows)
    assert mask.shape == (-(-rows // 64),)
    assert np.array_equal(np.unpackbits(mask.view(np.uint8), bitorder="little"),
                          np.arange(mask.size * 64) < rows)
    planes = np.zeros((3, 2, mask.size), dtype=np.uint64)
    assert first_nonzero_row(planes, rows) is None
    if rows:
        planes[2, 1] = ~mask  # pad rows only
        assert first_nonzero_row(planes, rows) is None
        for row in sorted({rows - 1, rows // 2}, reverse=True):
            planes[1, 0, row // 64] |= np.uint64(1 << row % 64)
            assert first_nonzero_row(planes, rows) == row


@pytest.mark.parametrize("n,m", [(8, 1), (8, 3), (16, 4), (40, 3), (64, 2), (13, 5)])
def test_row_words_sort_as_lexsort(n, m):
    # rows with repeats, over one and several words, fields across word edges
    rng = np.random.default_rng(n * m)
    X = rng.integers(0, 1 << m, size=(300, n)).astype(np.uint16)
    X[100:200] = X[:100]
    words = row_words(X, m)
    assert words.shape == (300, -(-n * m // 64))
    assert np.array_equal(X[np.lexsort(words.T)], X[np.lexsort(X.T)])
    # the words hold the row's bits in order, column i at bits m i ...
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :n * m]
    assert np.array_equal(bits.reshape(300, n, m), (X[:, :, None] >> np.arange(m)) & 1)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
@pytest.mark.parametrize("rows", [1, 65, PLANE_CHUNK_ROWS + 65])
def test_norm_matches_table_kernel(p, m, rows):
    # under the canonical star and a non-star anti-automorphism of D8
    d8 = build("dihedral:8")
    ctx = AlgebraContext(make_field(p, m), d8)
    inv = ga.involution_from_map(d8, [d8.mul(d8.mul(1, d8.inverse(g)), 3) for g in d8.elements()])
    assert ctx.star.tolist() == list(ga.canonical_star(d8).sigma) != list(inv.sigma)
    X = np.random.default_rng(rows).integers(0, ctx.q, size=(rows, ctx.n)).astype(np.uint16)
    for sigma in (ctx.star, np.array(inv.sigma, dtype=np.intp)):
        norms = _plane_norm(ctx, X, sigma) if ctx.char2 else ctx.mul(X, X[:, sigma])
        assert np.array_equal(norms, _table_product(ctx, X, X[:, sigma]))


@pytest.mark.parametrize("radix", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_digits_match_divmod(radix, count):
    # more values than PLANE_CHUNK_ROWS, so the shift path runs two chunks
    top = max(radix ** count, 1)
    values = np.random.default_rng(radix).integers(0, top, size=PLANE_CHUNK_ROWS + 3)
    got = digits(values.astype(np.uint64), radix, count)
    assert got.dtype == np.uint16 and got.shape == (values.size, count)
    for v, row in zip(values.tolist(), got.tolist()):
        expected = []
        for _ in range(count):
            v, r = divmod(v, radix)
            expected.append(r)
        assert row == expected


@pytest.mark.parametrize("group_name,m", [("quaternion:8", 3), ("dihedral:16", 1), ("cyclic:4", 2)])
def test_char2_xor_addition_matches_tables(group_name, m):
    spec, group = make_field(2, m), build(group_name)
    ctx = AlgebraContext(spec, group)
    tabs = ctx.tabs
    rng = np.random.default_rng(m)
    X = rng.integers(0, ctx.q, size=(100, ctx.n)).astype(np.uint16)
    Y = rng.integers(0, ctx.q, size=(100, ctx.n)).astype(np.uint16)
    assert np.array_equal(X ^ Y, tabs.add[X, Y])
    aug = X[:, 0].copy()
    for i in range(1, ctx.n):
        aug = tabs.add[aug, X[:, i]]
    assert np.array_equal(ctx.augmentation(X), aug)

    rows = np.concatenate(list(ctx.normalized_batches(batch=1000)))
    assert np.array_equal(rows, _reference_normalized_rows(ctx))


def _reference_normalized_rows(ctx):
    """Candidate i, index by index: i's base-q digits by % and // at indices 1..n-1,
    and the identity coefficient 1 - (their sum)."""
    tabs, total = ctx.tabs, ctx.q ** (ctx.n - 1)
    expected = np.zeros((total, ctx.n), dtype=np.uint16)
    v = np.arange(total)
    for i in range(1, ctx.n):
        expected[:, i] = v % ctx.q
        v //= ctx.q
    s = np.zeros(total, dtype=np.uint16)
    for i in range(1, ctx.n):
        s = tabs.add[s, expected[:, i]]
    expected[:, 0] = tabs.add[ctx.identity[0], tabs.neg[s]]
    return expected


def _odd_fields(max_order):
    return [(p, m) for p in range(3, max_order + 1) if is_prime(p)
            for m in range(1, max_order.bit_length()) if p ** m <= max_order]


# every odd field with q <= 243 and GF(2), GF(4), GF(8), each on the small groups with
# q^(|G|-1) <= 2^16, and the trivial group; GF(3) on C9 and GF(5) on C4 run the
# columns above the batch's range, GF(243) the one-column runs of q > batch
ENUMERATION_CELLS = [(name, p, m) for p, m in _odd_fields(243) + [(2, 1), (2, 2), (2, 3)]
                     for name in ("cyclic:2", "cyclic:3", "cyclic:4", "dihedral:8", "cyclic:9")
                     if (p ** m) ** (build(name).n - 1) <= 1 << 16] + [("cyclic:1", 3, 1), ("cyclic:1", 2, 1)]


@pytest.mark.parametrize("group_name,p,m", ENUMERATION_CELLS)
def test_normalized_batches_match_the_digit_reference(group_name, p, m):
    ctx = AlgebraContext(make_field(p, m), build(group_name))
    expected, total = _reference_normalized_rows(ctx), ctx.q ** (ctx.n - 1)
    for batch in (10, 64, 1000, DEFAULT_BATCH):
        batches = list(ctx.normalized_batches(batch))
        rows = np.concatenate(batches)
        assert rows.dtype == np.uint16 and rows.shape == expected.shape, batch
        assert rows.tobytes() == expected.tobytes(), batch
        assert all(0 < X.shape[0] <= batch for X in batches), batch
        assert len(batches) <= 2 * -(-total // batch), batch  # no runs of one-row batches
        # callers list() the generator, so no batch may reuse another's memory
        assert not any(np.shares_memory(a, b) for a, b in zip(batches, batches[1:])), batch


@pytest.mark.parametrize("p,m", _odd_fields(512))
def test_flat_gathers_match_the_two_index_gathers(p, m):
    # X q + Y reaches q^2 - 1, past uint16 from GF(257) on
    q = p ** m
    tabs = field_tables(make_field(p, m))
    rng = np.random.default_rng(q)
    X = rng.integers(0, q, size=(40, 9), dtype=np.uint16)
    Y = rng.integers(0, q, size=(40, 9), dtype=np.uint16)
    X[0], Y[0] = q - 1, q - 1
    index = row_index(X, q) + Y
    assert index.dtype == (np.uint16 if q < 256 else np.uint32)
    for table in (tabs.mul, tabs.add):
        assert table.ravel()[index].tobytes() == table[X, Y].tobytes()
        assert table.ravel()[row_index(X[:, 0], q) + Y[:, 0]].tobytes() == table[X[:, 0], Y[:, 0]].tobytes()


def test_involute_and_augmentation_match_scalar():
    spec, group = make_field(3, 1), build("cyclic:9")
    ctx = AlgebraContext(spec, group)
    star = ga.canonical_star(group)
    sigma = np.array(star.sigma, dtype=np.intp)
    rng = random.Random(2)
    X = _random_codes(rng, ctx, 30)
    st = X[:, sigma]
    aug = ctx.augmentation(X)
    for i in range(30):
        x = _element(ctx, X[i])
        assert np.array_equal(st[i], _codes(ga.apply_involution(x, star)))
        assert aug[i] == x.augmentation().code


# every catalog 2-group with q^(|G|-1) <= 2^24 over GF(2) to GF(32), and the trivial group
SCAN_CELLS = [(entry.name, m) for m, max_order in ((1, 16), (2, 8), (3, 8), (4, 4), (5, 4))
              for entry in catalog_entries(max_order, 2)] + [("cyclic:1", 1), ("cyclic:1", 3)]


def _reference_unitary_keys(ctx, sigma):
    parts = []
    for X in ctx.normalized_batches():
        mask = ctx.is_one(_table_product(ctx, X, X[:, sigma]))
        parts.append(ctx.pack(X[mask]))
    return np.sort(np.concatenate(parts))


def _assert_scan_matches_reference(ctx, sigma, batches):
    expected = _reference_unitary_keys(ctx, sigma)
    for batch in batches:
        got = ctx.unitary_keys(sigma, batch=batch)
        assert got.dtype == np.uint64 and got.tobytes() == expected.tobytes(), batch


def _scan_batches(ctx):
    # 2^21 candidates are 2^15 batches of 64, so only the smaller cells take small batches
    return (64, 128, DEFAULT_BATCH) if ctx.q ** (ctx.n - 1) <= 1 << 15 else (DEFAULT_BATCH,)


@pytest.mark.parametrize("group_name,m", SCAN_CELLS)
def test_char2_unitary_keys_match_table_kernel_scan(group_name, m):
    # batches of 64 and 128 cross word and batch boundaries; cyclic:1, cyclic:2 and
    # cyclic:4 over GF(2) have 1, 2 and 8 candidates, so most of their one word is pad
    ctx = AlgebraContext(make_field(2, m), build(group_name))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    _assert_scan_matches_reference(ctx, sigma, _scan_batches(ctx))


def test_char2_unitary_keys_under_a_non_canonical_involution():
    d8 = build("dihedral:8")
    inv = ga.involution_from_map(d8, [d8.mul(d8.mul(1, d8.inverse(g)), 3) for g in d8.elements()])
    assert not np.array_equal(inv.sigma, ga.canonical_star(d8).sigma)
    sigma = np.array(inv.sigma, dtype=np.intp)
    for m in (1, 2, 3):
        ctx = AlgebraContext(make_field(2, m), d8)
        _assert_scan_matches_reference(ctx, sigma, _scan_batches(ctx))


# abelian 2-groups under the identity involution, over GF(2), GF(4) and GF(8): every
# coefficient is sigma-fixed (g sigma(g) = g^2), so the scan tests only the k that
# some but not every square is, each formed as a moved one is; q^(|G|-1) is at most
# 2^21 on each
FIXED_SCAN_CELLS = [(name, m) for name in ("cyclic:4", "cyclic:8", "elementary_abelian:2:2", "abelian:2:[1,2]")
                    for m in (1, 2, 3)]


def _identity_involution(group):
    return np.array(ga.involution_from_map(group, list(group.elements())).sigma, dtype=np.intp)


@pytest.mark.parametrize("group_name,m", FIXED_SCAN_CELLS)
def test_char2_unitary_keys_when_every_coefficient_is_fixed(group_name, m):
    ctx = AlgebraContext(make_field(2, m), build(group_name))
    _assert_scan_matches_reference(ctx, _identity_involution(ctx.group), _scan_batches(ctx))


@pytest.mark.parametrize("batch", [64, 128])
def test_char2_all_hit_scan_stops_at_the_last_candidate(batch):
    # E4 over GF(2) under its star: every one of the 8 candidates is unitary, and
    # 56 rows of the one word are pad, which must not become keys, whatever the batch
    ctx = AlgebraContext(make_field(2, 1), build("elementary_abelian:2:2"))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    got = ctx.unitary_keys(sigma, batch=batch)
    expected = ctx.pack(np.concatenate(list(ctx.normalized_batches())))
    assert got.size == 8 and got.tobytes() == np.sort(expected).tobytes()


@pytest.mark.parametrize("group_name,m", [("elementary_abelian:2:4", 1), ("dihedral:8", 2),
                                          ("dihedral:16", 1)])
def test_char2_unitary_keys_in_batches_of_several_words(group_name, m):
    # batches of 3 and 5 words, which divide no power of two: a batch's words
    # straddle the index's higher bits anywhere, and the last batch is short
    ctx = AlgebraContext(make_field(2, m), build(group_name))
    assert ctx.q ** (ctx.n - 1) <= 1 << 15
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    _assert_scan_matches_reference(ctx, sigma, (192, 320))


def test_char2_fixed_coefficient_sums_drop_candidates():
    # augmentation 1 implies the sigma-fixed coefficients of x x^sigma on E4 under the
    # identity, but not on C8: a scan that skipped them would keep every candidate there
    ctx = AlgebraContext(make_field(2, 2), build("cyclic:8"))
    assert _reference_unitary_keys(ctx, _identity_involution(ctx.group)).size < ctx.q ** (ctx.n - 1)


def _spy_tested_coefficients(monkeypatch, stop=False):
    # the coeffs of every plane_product call, each a list; with stop, the first
    # call raises StopIteration, so a scan too large to run names its tests alone
    calls, product = [], AlgebraContext.plane_product

    def spy(self, xp, yp, coeffs=None, support=None):
        calls.append(coeffs.tolist())
        if stop:
            raise StopIteration
        return product(self, xp, yp, coeffs, support)

    monkeypatch.setattr(AlgebraContext, "plane_product", spy)
    return calls


@pytest.mark.parametrize("group_name,involution,tested", [
    ("quaternion:8", "star", [1, 4, 5]),
    ("abelian:2:[1,2]", "star", [2, 3]),
    ("dihedral:8", "star", [1]),
    ("dihedral:8", "non-canonical", [0, 1, 2, 4, 5]),
    ("cyclic:4", "identity", [0, 2]),
])
def test_char2_scan_tests_these_coefficients(monkeypatch, group_name, involution, tested):
    # u u^sigma and v v^sigma are formed at the tested k alone: of each moved pair
    # the lesser, and each fixed k that some but not every g sigma(g) reaches
    group = build(group_name)
    if involution == "star":
        sigma = ga.canonical_star(group).sigma
    elif involution == "identity":
        sigma = _identity_involution(group)
    else:  # g -> g1 g^-1 g3, as in test_char2_unitary_keys_under_a_non_canonical_involution
        sigma = ga.involution_from_map(group, [group.mul(group.mul(1, group.inverse(g)), 3)
                                               for g in group.elements()]).sigma
    ctx = AlgebraContext(make_field(2, 1), group)
    calls = _spy_tested_coefficients(monkeypatch)
    ctx.unitary_keys(np.array(sigma, dtype=np.intp))
    assert calls and all(coeffs == tested for coeffs in calls)


def test_char2_scan_under_the_star_tests_each_lesser_of_k_and_its_inverse(monkeypatch):
    # under the star every g sigma(g) is 1, so no fixed k is tested, and the tests
    # are the k < k^-1, as in a scan that tested moved coefficients alone
    calls = _spy_tested_coefficients(monkeypatch, stop=True)
    for entry in catalog_entries(64, 2):
        ctx = AlgebraContext(make_field(2, 1), build(entry.name))
        with pytest.raises(StopIteration):
            ctx.unitary_keys(ctx.star)
        assert calls.pop() == np.flatnonzero(np.arange(ctx.n) < ctx.star).tolist(), entry.name


def test_char2_unitary_keys_when_q_exceeds_the_batch():
    # GF(2^7) in batches of 64: no pattern column fits, so the pattern is the
    # identity alone and every run is one candidate, 2^21 of them
    ctx = AlgebraContext(make_field(2, 7), build("cyclic:4"))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    assert ctx.q > 64
    _assert_scan_matches_reference(ctx, sigma, (64,))


@pytest.mark.parametrize("group_name,hits", [("quaternion:8", 16384), ("abelian:2:[1,2]", 65536)])
def test_char2_scan_memory_stays_within_its_tables(group_name, hits):
    # 2^21 candidates over GF(8) under the star, in batches of 65,536: the scan
    # keeps the pattern's planes and XOR tables over 4-bit chunks of the run
    # digits, a few hundred KiB; C4 x C2's keys alone take 512 KiB
    ctx = AlgebraContext(make_field(2, 3), build(group_name))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    tracemalloc.start()
    try:
        keys = ctx.unitary_keys(sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.size == hits
    assert peak < 1.5 * (1 << 20)


# every odd catalog p-group with q^(|G|-1) <= 2^19 over GF(3), GF(5), GF(7), GF(9),
# GF(25), GF(27) and GF(81), and the trivial group (order p^3 is past 2^19 for every
# q); 2^19 takes in C5 over GF(25), the benchmark's largest odd oracle cell
ODD_SCAN_CELLS = [(entry.name, p, m) for p, m in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4))
                  for entry in catalog_entries(p ** 2, p)
                  if (p ** m) ** (entry.order - 1) <= 1 << 19] + [("cyclic:1", 3, 1), ("cyclic:1", 5, 2)]


@pytest.mark.parametrize("group_name,p,m", ODD_SCAN_CELLS)
def test_odd_unitary_keys_match_table_kernel_scan(group_name, p, m):
    # the scan drops a row at its first coefficient that differs from 1's;
    # batches of 64 and 128 cross batch boundaries inside the smaller cells
    ctx = AlgebraContext(make_field(p, m), build(group_name))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    _assert_scan_matches_reference(ctx, sigma, _scan_batches(ctx))


@pytest.mark.parametrize("group_name", ["cyclic:9", "elementary_abelian:3:2"])
def test_odd_unitary_keys_under_the_identity_involution(group_name):
    # on an abelian group the identity map is an anti-automorphism of order two
    group = build(group_name)
    sigma = np.array(ga.involution_from_map(group, list(group.elements())).sigma, dtype=np.intp)
    assert sigma.tolist() != list(ga.canonical_star(group).sigma)
    _assert_scan_matches_reference(AlgebraContext(make_field(3, 1), group), sigma, (64, 128, DEFAULT_BATCH))


def test_odd_unitary_keys_when_q_exceeds_the_batch():
    # GF(243), the largest odd q the scan meets: each batch of 64 is one range of
    # column 1 under a constant column 2
    ctx = AlgebraContext(make_field(3, 5), build("cyclic:3"))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    _assert_scan_matches_reference(ctx, sigma, (64, DEFAULT_BATCH))


def test_odd_unitary_keys_under_the_swap_inverse_involution():
    group = build("elementary_abelian:3:2")
    sigma = np.array(_swap_inverse_involution(group).sigma, dtype=np.intp)
    assert sigma.tolist() != list(ga.canonical_star(group).sigma)
    _assert_scan_matches_reference(AlgebraContext(make_field(3, 1), group), sigma, (64, 128, DEFAULT_BATCH))


def test_odd_scan_coefficient_zero_alone_admits_more_rows():
    # a scan that stopped after coefficient 0 would keep these extra rows
    ctx = AlgebraContext(make_field(3, 1), build("cyclic:9"))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    X = np.concatenate(list(ctx.normalized_batches()))
    Y = _table_product(ctx, X, X[:, sigma])
    assert (Y[:, 0] == ctx.identity[0]).sum() > ctx.is_one(Y).sum() == ctx.unitary_keys(sigma).size


def test_odd_scan_memory_stays_within_its_grid():
    # C5 over GF(25) under its star, 390,625 candidates in batches of 65,536: the
    # scan forms coefficient 0 on each batch's (runs, pattern) grid and builds
    # candidate rows only for the one in q that pass it
    ctx = AlgebraContext(make_field(5, 2), build("cyclic:5"))
    sigma = np.array(ga.canonical_star(ctx.group).sigma, dtype=np.intp)
    tracemalloc.start()
    try:
        keys = ctx.unitary_keys(sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.size == 625
    assert peak < 1.5 * (1 << 20)


@pytest.mark.parametrize("group_name,p,m", [("quaternion:8", 2, 2), ("cyclic:4", 2, 3)])
def test_candidate_keys_are_the_keys_of_the_enumeration(group_name, p, m):
    ctx = AlgebraContext(make_field(p, m), build(group_name))
    index = np.arange(ctx.q ** (ctx.n - 1), dtype=np.uint64)
    expected = ctx.pack(np.concatenate(list(ctx.normalized_batches())))
    assert ctx.candidate_keys(index).tobytes() == expected.tobytes()


def test_unitary_keys_batch_is_whole_words():
    ctx = AlgebraContext(make_field(2, 1), build("cyclic:4"))
    with pytest.raises(ValueError, match="multiple of 64"):
        ctx.unitary_keys(np.arange(4), batch=100)


@pytest.mark.parametrize("method", ["unitary_keys", "normalized_batches", "span_batches"])
@pytest.mark.parametrize("name, p", [("cyclic:9", 3), ("cyclic:4", 2)])
@pytest.mark.parametrize("batch", [0, -1, -64])
def test_nonpositive_batch_is_refused(method, name, p, batch):
    # a negative step would yield no batch at all, and so an empty key set
    group = build(name)
    ctx = AlgebraContext(make_field(p, 1), group)
    sigma = np.array(ga.canonical_star(group).sigma, dtype=np.intp)
    calls = {"unitary_keys": lambda: ctx.unitary_keys(sigma, batch=batch),
             "normalized_batches": lambda: list(ctx.normalized_batches(batch)),
             "span_batches": lambda: list(ctx.span_batches(ctx.identity[None, :], batch=batch))}
    with pytest.raises(ValueError, match=f"batch {batch} is not a positive"):
        calls[method]()


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (5, 2)])
def test_pack_unpack_round_trip(p, m):
    spec, group = make_field(p, m), build("quaternion:8")
    ctx = AlgebraContext(spec, group)
    rng = random.Random(3)
    X = _random_codes(rng, ctx, 100)
    assert np.array_equal(ctx.unpack(ctx.pack(X)), X)


@pytest.mark.parametrize("group_name,p,m", [
    ("cyclic:1", 3, 1), ("cyclic:1", 2, 2), ("dihedral:8", 2, 3),
    ("elementary_abelian:3:2", 3, 1), ("quaternion:8", 5, 1),
])
def test_pack_and_is_one_match_axis_reductions(group_name, p, m):
    ctx = AlgebraContext(make_field(p, m), build(group_name))
    rng = np.random.default_rng(4)
    X = rng.integers(0, ctx.q, size=(2000, ctx.n), dtype=np.uint16)
    X[::5] = ctx.identity          # the identity itself
    X[1::5, 0] = ctx.identity[0]   # identity coefficient one, the rest random
    keys = ctx.pack(X)
    assert keys.dtype == np.uint64
    powers = np.array([ctx.q ** i for i in range(ctx.n)], dtype=np.uint64)
    assert np.array_equal(keys, (X.astype(np.uint64) * powers[None, :]).sum(axis=1))
    ones = (X[:, 0] == ctx.identity[0]) & ~X[:, 1:].any(axis=1)
    assert ones.any() and np.array_equal(ctx.is_one(X), ones)


def test_pack_refuses_more_than_2_63_elements_but_the_context_builds():
    # 2^64 elements of F D64: the arithmetic runs, only the keys would wrap
    ctx = AlgebraContext(make_field(2, 1), build("dihedral:64"))
    assert ctx.is_one(_plane_norm(ctx, ctx.identity[None, :], ctx.star)).all()
    with pytest.raises(SearchSpaceTooLarge) as exc:
        ctx.pack(ctx.identity[None, :])
    assert (exc.value.size, exc.value.cap) == (1 << 64, 1 << 63)
    assert exc.value.context == "uint64 key packing"


def test_plane_product_refuses_a_gather_past_its_byte_cap():
    # 2048 rows are 32 words; Y[left_div] over D2048 would be 2048^2 * 32 words, 1 GiB
    ctx = AlgebraContext(make_field(2, 1), build("dihedral:2048"))
    with pytest.raises(SearchSpaceTooLarge) as exc:
        _plane_norm(ctx, np.zeros((2048, ctx.n), dtype=np.uint16), ctx.star)
    assert (exc.value.size, exc.value.cap) == (2048 * 2048 * 32 * 8, MAX_GATHER_BYTES)
    assert exc.value.context == "bit-plane product"
    one_word = _plane_norm(ctx, np.zeros((64, ctx.n), dtype=np.uint16), ctx.star)  # 32 MiB
    assert not one_word.any()


def test_normalized_batches_enumerate_augmentation_one():
    spec, group = make_field(3, 1), build("cyclic:4")
    ctx = AlgebraContext(spec, group)
    rows = np.concatenate(list(ctx.normalized_batches(batch=10)), axis=0)
    assert rows.shape == (27, 4)
    assert (ctx.augmentation(rows) == spec.one.code).all()
    assert len(np.unique(ctx.pack(rows))) == 27
    # matches the scalar filter
    scalar_count = sum(
        1 for combo in itertools.product(range(3), repeat=4)
        if ga.from_coeffs(spec, group, list(combo)).is_normalized_unit()
    )
    assert scalar_count == 27


def test_normalized_batches_trivial_group():
    spec, group = make_field(2, 1), build("cyclic:1")
    ctx = AlgebraContext(spec, group)
    rows = np.concatenate(list(ctx.normalized_batches()), axis=0)
    assert rows.shape == (1, 1)
    assert rows[0, 0] == spec.one.code


def test_span_batches_counts():
    spec, group = make_field(2, 2), build("cyclic:4")
    ctx = AlgebraContext(spec, group)
    basis = np.array([[0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.uint16)
    rows = np.concatenate(list(ctx.span_batches(basis, batch=7)), axis=0)
    assert rows.shape[0] == 16
    assert len(np.unique(ctx.pack(rows))) == 16


@pytest.mark.parametrize("group_name, p, m", [("cyclic:4", 2, 12), ("cyclic:5", 5, 2)])
def test_span_batches_read_no_field_table(monkeypatch, group_name, p, m):
    # GF(2^12) is past the field tables' byte cap; each row is still the sum of
    # the basis rows scaled by the combination's base-q digits
    field, group = make_field(p, m), build(group_name)
    ctx = AlgebraContext(field, group)

    def refuse(spec):
        raise AssertionError("span_batches read a field table")

    monkeypatch.setattr(engine, "field_tables", refuse)
    basis = np.random.default_rng(m).integers(0, ctx.q, size=(2, ctx.n)).astype(np.uint16)
    rows = next(ctx.span_batches(basis, batch=1 << 16))
    assert rows.shape == (min(1 << 16, ctx.q ** 2), ctx.n)
    picked = range(rows.shape[0]) if rows.shape[0] <= 1024 else \
        np.random.default_rng(0).choice(rows.shape[0], 256, replace=False).tolist()
    terms = [ga.from_codes(field, group, row) for row in basis]
    for i in picked:
        expected = ga.algebra_zero(field, group)
        for j, term in enumerate(terms):
            expected = expected + term.scale(field.from_code(i // ctx.q ** j % ctx.q))
        assert rows[i].tolist() == [a.code for a in expected.coeffs], i


def test_keys_contain():
    keys = np.array([2, 5, 9], dtype=np.uint64)
    queries = np.array([1, 2, 5, 9, 10], dtype=np.uint64)
    assert keys_contain(keys, queries).tolist() == [False, True, True, True, False]
