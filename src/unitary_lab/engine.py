"""Vectorized batch kernels for enumerating group-algebra elements.

Internal plumbing shared by the brute-force oracle and its subgroup
certificate, the characteristic-two recursion and the scalar algebra. A
batch is a (B, |G|) uint16 array of field codes (little-endian base-p
packing of each coefficient vector); a whole element packs into a uint64
key for set membership work.

In odd characteristic one function multiplies: `digit_product`, on
(..., |G|, m) arrays of base-p digits. AlgebraElement runs it on one
element, unit inversion on a stacked pair, and `AlgebraContext.mul` on a
batch, whose codes become digits by `digits` and come back by powers of p.
The odd oracle scan, its candidates, odd sums and span_batches read (q, q)
tables instead, built once per field, up to q = MAX_TABLE_FIELD_ORDER, from
the codes' base-p digits: addition and negation digit by digit mod p,
multiplication by contracting the digits' outer product with the field's
fold matrix (`finite_field.fold_matrix`, which `digit_product` reduces by
too). A context builds them on first read (`AlgebraContext.tabs`); no
product and no characteristic-two route reads them, so characteristic two
reaches every field up to GF(2^16). The tests check every table entry
against FieldElement's polynomial arithmetic.

In characteristic two a code's bit a is the coefficient of x^a, so addition
is XOR and products run bitsliced: a batch becomes bit-planes, one bit per
row in uint64 words, and a GF(2^m) product is m^2 plane ANDs and XORs plus
the reduction by the field's modulus. Most batch products are a few rows,
where numpy's cost per call outweighs the work, so each step runs across
the whole group: `to_planes` shifts out all m bits in one broadcast, and
`plane_product` gathers the Y[j] that each X[i] meets once, then takes m
steps of an AND and an XOR-reduction over i, over the indices i where X can
be nonzero. The tests hold the bitsliced product, and both oracle scans,
to a product through the field tables that they keep as their reference.
A norm x x^sigma stays in planes (`norm_planes`): X^sigma's planes are X's
permuted by sigma. The characteristic-two recursion keeps each orbit round
in planes and reads its checks off them: `row_mask` is the plane of a
constant 1 over a batch's rows, and `first_nonzero_row` finds the first row
a check fails on, for its witness.
Its Schreier generators deduplicate by `row_words`, each row's bits packed
into uint64 words that sort as the rows' columns do.

The oracle's scan (`AlgebraContext.unitary_keys`) tests x x^sigma = 1 one
coefficient at a time in odd characteristic: coefficient k is one gather
from the multiplication table and an addition chain over the rows still in
play, and a row leaves at its first coefficient that differs from 1's, so
after coefficient 0 about one row in q is left. Its candidates come from
`normalized_batches` without a division per candidate: one pattern of the
low digit columns, built once per scan, repeats in whole runs, and one
digit expansion of a batch's run indices fills the columns above. The scan
reads each batch column by column, and every gather, from the raveled
(q^2,) tables, takes one flat index X q + Y (`row_index`). It stays in
bit-planes in characteristic two: it builds each batch's planes from the
candidate indices, tests x x^sigma = 1 word by word on one coefficient per
sigma-orbit, and keys the hits from their indices alone
(`AlgebraContext.candidate_keys`). x x^sigma is sigma-symmetric, so of each
moved pair {k, sigma(k)} only k is formed, by the bitsliced product of the
planes and their permutation by sigma. A sigma-fixed coefficient is the
square of the sum of the x_g with g sigma(g) = k, so it is tested linearly,
by an XOR of planes. A test that every candidate passes by construction is
not run. When none is left (sigma fixes every index and g sigma(g) = 1
throughout, as for an elementary abelian group under its star) every
candidate is a hit; the oracle does not scan then, but proves the whole
space unitary through its generators and keys its witnesses alone.

Keys are uint64 and below 2^63, so `pack` refuses a group algebra with more
than 2^63 elements when it is first called; a context is built for any size,
and the characteristic-two recursion, which keys in its own coordinates,
never packs. A bit-plane product is refused before its gathered temporary
would pass MAX_GATHER_BYTES, judged as if X were nonzero at every index. An
odd batch product runs in row chunks whose gathered temporary stays within
it, and is refused when one row's would pass it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import SearchSpaceTooLarge
from .finite_field import FieldSpec, fold_matrix
from .group_core import Group

MAX_TABLE_FIELD_ORDER = 512
DEFAULT_BATCH = 1 << 16
WORD_BITS = 64
PLANE_CHUNK_ROWS = 1 << 14  # rows converted or multiplied at a time: whole words, a transpose
                            # that stays in cache, a bounded gather in plane_product
MAX_GATHER_BYTES = 1 << 29  # the largest temporary one piece of a batch product may gather
MAX_KEY_SPACE = 1 << 63     # uint64 keys, kept below 2^63
# bit b of word k is bit k of b: bits 0..5 of the indices of 64 consecutive rows
LOW_BIT_PATTERNS = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                    0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)


@dataclass(frozen=True, eq=False)
class FieldTables:
    add: np.ndarray   # (q, q)
    mul: np.ndarray   # (q, q)
    neg: np.ndarray   # (q,)


@functools.lru_cache(maxsize=None)
def field_tables(spec: FieldSpec) -> FieldTables:
    """add, mul and neg on codes, from the codes' base-p digits d.

    add and neg work digit by digit mod p. mul contracts the outer product of
    the digits with the fold matrix, mul[x, y] = sum over a, b of d[x, a]
    d[y, b] fold[a m + b] mod p, in one einsum that never forms the (q, q, m, m)
    outer product. Each result is packed back into codes by powers of p."""
    q, p, m = spec.order, spec.p, spec.m
    if q > MAX_TABLE_FIELD_ORDER:
        raise SearchSpaceTooLarge(q, MAX_TABLE_FIELD_ORDER, context="field table build")
    d = digits(np.arange(q, dtype=np.uint64), p, m).astype(np.int64)
    powers = p ** np.arange(m)
    add = (d[:, None, :] + d[None, :, :]) % p @ powers
    neg = -d % p @ powers
    fold = fold_matrix(spec).reshape(m, m, m)
    mul = np.einsum("xa,yb,abk->xyk", d, d, fold, optimize=True) % p @ powers
    tabs = FieldTables(*(t.astype(np.uint16) for t in (add, mul, neg)))
    for arr in (tabs.add, tabs.mul, tabs.neg):
        arr.setflags(write=False)
    return tabs


def digits(values: np.ndarray, radix: int, count: int) -> np.ndarray:
    """(size, count) uint16 base-radix digits of uint64 values, least
    significant first. A power-of-two radix shifts every digit out in one
    broadcast, (count, rows) so that the inner loop runs along the values,
    and masks into the transposed output; PLANE_CHUNK_ROWS values at a time
    bound the uint64 temporary. Radix 1 (width 0) gives zeros. Any other
    radix divides digit by digit."""
    out = np.empty((values.size, count), dtype=np.uint16)
    if radix & (radix - 1) == 0:
        shifts = np.arange(count, dtype=np.uint64)[:, None] * np.uint64(radix.bit_length() - 1)
        mask = np.uint64(radix - 1)
        for start in range(0, values.size, PLANE_CHUNK_ROWS):
            chunk = values[start:start + PLANE_CHUNK_ROWS] >> shifts
            np.bitwise_and(chunk, mask, out=out[start:start + PLANE_CHUNK_ROWS].T, casting="unsafe")
        return out
    v, r = values.copy(), np.uint64(radix)
    for i in range(count):
        out[:, i] = v % r
        v //= r
    return out


# digit_product looks the fold up under this module name at every call, so a
# fold replaced here (a test injects a fault this way) reaches every odd
# product. group_algebra's memoized scaling matrices read fold_matrix itself:
# a replaced fold never enters the memo, where it would outlive the replacement.
_fold_matrix = fold_matrix


def digit_product(field: FieldSpec, group: Group, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product xy on (..., n, m) digit arrays, over any leading batch
    axes that broadcast: out[k] = sum over i of x_i y_j with g_i g_j = g_k.

    One product with the fold matrix turns each x_i into its (m, m) matrix of
    multiplication, whose row b holds the digits of x_i x^b: reducing modulo
    the field's modulus is linear, so the fold reduces x^a x^b before any sum.
    One gather along left_division_t lines up y_j under each (k, i), an
    (..., n, n m) int64 temporary, and one matrix product sums y_j's digits
    against those rows over every (i, b); one mod p ends it. Every entry
    stays below n m^2 p^3, far inside int64."""
    n, m = group.n, field.m
    folded = (x @ _fold_matrix(field).reshape(m, m * m)).reshape(x.shape[:-2] + (n * m, m))  # (i b, c)
    gathered = y.take(group.left_division_t(), axis=-2).reshape(y.shape[:-2] + (n, n * m))  # (k, i b)
    return gathered @ folded % field.p


def row_index(X: np.ndarray, q: int) -> np.ndarray:
    """X q, where row X of a raveled (q, q) table starts: entry [X, Y] is
    at X q + Y. The dtype holds q^2 - 1, so it is uint16 up to q = 256 and
    uint32 above, where a uint16 index would wrap."""
    dtype = np.uint16 if q * q <= 1 << 16 else np.uint32
    return X.astype(dtype, copy=False) * dtype(q)


# --- characteristic-two bit-planes ----------------------------------------------

def to_planes(X: np.ndarray, m: int) -> np.ndarray:
    """(B, n) codes over GF(2^m) as (n, m, ceil(B/64)) uint64 bit-planes.

    Plane a of column i holds bit a of its codes, the coefficient of x^a;
    row r is bit r % 64 of word r // 64, and the pad rows of the last word
    are zero. Each chunk of rows takes one broadcast shift of its transpose
    by 0, ..., m - 1, a mask to the low bit, and one packbits."""
    B, n = X.shape
    planes = np.empty((n, m, -(-B // WORD_BITS)), dtype=np.uint64)
    shifts = np.arange(m, dtype=np.uint16)[:, None]
    for start in range(0, B, PLANE_CHUNK_ROWS):
        Xt = np.ascontiguousarray(X[start:start + PLANE_CHUNK_ROWS].T)
        rows = Xt.shape[1]
        words = -(-rows // WORD_BITS)
        bits = np.zeros((n, m, words * WORD_BITS), dtype=np.uint8)
        # the wrap to uint8 keeps bit 0, the only bit the mask keeps
        np.right_shift(Xt[:, None, :], shifts, out=bits[:, :, :rows], casting="unsafe")
        bits &= 1
        first = start // WORD_BITS
        planes[:, :, first:first + words] = (
            np.packbits(bits, axis=-1, bitorder="little").view(np.uint64))
    return planes


def constant_planes(row: np.ndarray, m: int) -> np.ndarray:
    """One (n,) code row as (n, m, 1) planes of constant words, 0 or ~0: the
    same element in every row of a batch, without B copies of it."""
    bits = (row[:, None] >> np.arange(m)) & 1
    return np.where(bits == 1, ~np.uint64(0), np.uint64(0))[:, :, None]


def from_planes(P: np.ndarray, B: int) -> np.ndarray:
    """The first B rows of (n, m, words) bit-planes as (B, n) uint16 codes.

    Plane a is shifted in plane by plane: an OR per plane is cheaper than one
    broadcast shift and an OR-reduction over the (n, m, rows) bits, at every
    batch size."""
    n, m, _ = P.shape
    out = np.empty((B, n), dtype=np.uint16)
    for start in range(0, B, PLANE_CHUNK_ROWS):
        stop = min(B, start + PLANE_CHUNK_ROWS)
        chunk = P[:, :, start // WORD_BITS:-(-stop // WORD_BITS)]
        bits = np.unpackbits(chunk.view(np.uint8), axis=-1, count=stop - start,
                             bitorder="little")
        codes = bits[:, 0].astype(np.uint16)
        for a in range(1, m):
            codes |= bits[:, a].astype(np.uint16) << a
        out[start:stop] = codes.T
    return out


def row_bits(words: np.ndarray, rows: int) -> np.ndarray:
    """Bits 0, ..., rows - 1 of (words,) uint64 plane words as a bool mask,
    row r at bit r % 64 of word r // 64; the pad rows past rows are dropped."""
    return np.unpackbits(words.view(np.uint8), count=rows, bitorder="little").view(bool)


def row_mask(rows: int) -> np.ndarray:
    """(ceil(rows / 64),) uint64 plane words with bits 0, ..., rows - 1 set:
    the plane of a constant 1 over a batch of rows rows, 0 on its pad rows."""
    whole, rest = divmod(rows, WORD_BITS)
    return np.array([(1 << WORD_BITS) - 1] * whole + ([(1 << rest) - 1] if rest else []), dtype=np.uint64)


def first_nonzero_row(planes: np.ndarray, rows: int) -> int | None:
    """The least row r < rows at which some plane of (..., words) planes has
    bit r set, or None."""
    if planes.any():
        nonzero = row_bits(np.bitwise_or.reduce(planes.reshape(-1, planes.shape[-1])), rows)
        if nonzero.any():
            return int(np.argmax(nonzero))
    return None


def row_words(X: np.ndarray, m: int) -> np.ndarray:
    """(B, n) codes of m bits as (B, ceil(n m / 64)) uint64 words holding each
    row's n m bits in order, column i at bits m i, ..., m i + m - 1. A row
    read as a number, its last word most significant, orders rows as
    np.lexsort(X.T) does, column n - 1 first; np.lexsort(words.T) sorts
    them so. Bit a of every code is shifted out at once, one step per a: a
    broadcast over an m-long inner axis is several times slower."""
    B, n = X.shape
    bits = np.empty((B, n, m), dtype=np.uint8)
    for a in range(m):
        np.bitwise_and(X >> a, 1, out=bits[:, :, a], casting="unsafe")
    packed = np.zeros((B, -(-n * m // WORD_BITS) * 8), dtype=np.uint8)
    packed[:, :-(-n * m // 8)] = np.packbits(bits.reshape(B, n * m), axis=1, bitorder="little")
    return packed.view(np.uint64)


def require_key_space(size: int, context: str) -> None:
    """Refuse size distinct keys when uint64 keys below 2^63 cannot name them all."""
    if size > MAX_KEY_SPACE:
        raise SearchSpaceTooLarge(size, MAX_KEY_SPACE, context=context)


def keys_contain(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership mask of queries against a sorted uint64 key array."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, queries)
    clipped = np.minimum(pos, sorted_keys.size - 1)
    return (pos < sorted_keys.size) & (sorted_keys[clipped] == queries)


class AlgebraContext:
    """Batch arithmetic for one (field, group) pair.

    Characteristic two multiplies bitsliced and adds by XOR; odd
    characteristic multiplies digit arrays (`digit_product`) and adds
    through the field tables."""

    def __init__(self, field: FieldSpec, group: Group):
        self.field = field
        self.group = group
        self.n = group.n
        self.q = field.order
        self.gtable = np.asarray(group.table, dtype=np.intp)
        self.char2 = field.p == 2
        # left_div[i, k] = j with g_i g_j = g_k
        self.left_div = group.left_division()
        self.star = self.left_div[:, 0]  # g^-1 g_0 = g^-1, the canonical star
        if self.char2:
            # taps: x^m = sum of x^t over them
            self.taps = [t for t in range(field.m) if field.modulus[t]]
        self.identity = np.zeros(self.n, dtype=np.uint16)
        self.identity[0] = field.one.code  # so the key of 1 is identity[0]

    @functools.cached_property
    def tabs(self) -> FieldTables:
        """The field tables, built on first read: only the odd oracle scan
        and its candidates, odd add and augmentation, and span_batches read
        them, so no product and no characteristic-two route has a field-size
        ceiling from them."""
        return field_tables(self.field)

    # --- conversions ---------------------------------------------------------

    def pack(self, X: np.ndarray) -> np.ndarray:
        # one matrix-vector product with the powers q^i: numpy's sum over the
        # short second axis is slow, and a loop over the columns is slow on small
        # batches; every key is below q^n <= 2^63, so uint64 arithmetic is exact
        require_key_space(self.q ** self.n, "uint64 key packing")
        return X.astype(np.uint64) @ (np.uint64(self.q) ** np.arange(self.n, dtype=np.uint64))

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        return digits(np.asarray(keys, dtype=np.uint64), self.q, self.n)

    # --- arithmetic ----------------------------------------------------------

    def add(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        if self.char2:
            return X ^ Y
        return self.tabs.add[X, Y]

    def mul(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Convolution product of (B, n) code batches, out[g_i g_j] += X[i] Y[j];
        either factor may be (1, n), a fixed factor of every row of the other.

        Characteristic two multiplies over bit-planes (`plane_product`). Odd
        characteristic turns the codes into base-p digits, multiplies them by
        `digit_product`, the kernel AlgebraElement runs, and packs the result
        back by powers of p. It takes as many rows at a time as keep the
        kernel's gathered (rows, n, n m) int64 temporary within
        MAX_GATHER_BYTES, and refuses a product one row of which would pass it."""
        B, p, m = max(X.shape[0], Y.shape[0]), self.field.p, self.field.m
        if self.char2:
            xp, yp = (constant_planes(Z[0], m) if Z.shape[0] == 1 else to_planes(Z, m)
                      for Z in (X, Y))
            return from_planes(self.plane_product(xp, yp), B)
        row_bytes = self.n * self.n * m * np.dtype(np.int64).itemsize
        if row_bytes > MAX_GATHER_BYTES:
            raise SearchSpaceTooLarge(row_bytes, MAX_GATHER_BYTES, context="digit product")
        step, powers = MAX_GATHER_BYTES // row_bytes, p ** np.arange(m)
        out = np.empty((B, self.n), dtype=np.uint16)
        for start in range(0, B, step):
            x, y = (Z if Z.shape[0] == 1 else Z[start:start + step] for Z in (X, Y))
            x, y = (digits(Z.astype(np.uint64).ravel(), p, m).reshape(-1, self.n, m).astype(np.int64)
                    for Z in (x, y))
            out[start:start + step] = digit_product(self.field, self.group, x, y) @ powers
        return out

    def plane_product(self, xp: np.ndarray, yp: np.ndarray, coeffs: np.ndarray | None = None,
                      support: np.ndarray | None = None) -> np.ndarray:
        """The product of two (n, m, words) bit-plane batches, as planes; a
        one-word operand of constant words is a fixed factor. coeffs lists
        the coefficients k to form, in the order they come out; the default
        is all n. support lists the indices i of G that xp's rows hold, in
        order, when X is 0 at every other index; the default is all n. A
        term X[i] Y[j] with X[i] = 0 is 0, so only those i are summed.

        out[g_k] = XOR over i of X[i] Y[j], g_i g_j = g_k. Each coefficient
        product is schoolbook: plane a of X[i] ANDed with plane b of Y[j]
        lands in plane a + b of an unreduced product of 2m - 1 planes. Y is
        gathered once as Y[left_div], (n, K, m, words) with row i holding the
        Y[j] that X[i] meets, so each plane a of X is one AND against it and
        one XOR-reduction over i: m vector steps, not n m. The words run in
        pieces of PLANE_CHUNK_ROWS rows, and a piece whose gathered temporary
        would pass MAX_GATHER_BYTES is refused before it is allocated; the
        temporary is counted over all n indices i, whatever support is, so
        a product is refused exactly when the unrestricted one would be.
        The reduction by the modulus is linear, so it runs once on the sum."""
        m = self.field.m
        left_div = self.left_div if support is None else self.left_div[support]
        left_div = left_div if coeffs is None else left_div[:, coeffs]
        words = max(xp.shape[2], yp.shape[2])
        step = PLANE_CHUNK_ROWS // WORD_BITS
        gathered = self.n * left_div.shape[1] * m * min(words, step) * np.dtype(np.uint64).itemsize
        if gathered > MAX_GATHER_BYTES:
            raise SearchSpaceTooLarge(gathered, MAX_GATHER_BYTES, context="bit-plane product")
        out = np.zeros((left_div.shape[1], 2 * m - 1, words), dtype=np.uint64)
        for start in range(0, words, step):
            piece = slice(start, start + step)
            x = xp if xp.shape[2] == 1 else xp[:, :, piece]
            y_over = (yp if yp.shape[2] == 1 else yp[:, :, piece])[left_div]
            # y_over broadcast against X's plane words: either may be one constant word
            term = np.empty(y_over.shape[:3] + (max(y_over.shape[3], x.shape[2]),), dtype=np.uint64)
            for a in range(m):
                np.bitwise_and(x[:, a, None, None], y_over, out=term)
                out[:, a:a + m, piece] ^= np.bitwise_xor.reduce(term, axis=0)
        for k in range(2 * m - 2, m - 1, -1):
            for t in self.taps:
                out[:, k - m + t] ^= out[:, k]
        return out[:, :m]

    def norm(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """x x^sigma for every row x of X. In characteristic two X becomes
        bit-planes once (see norm_planes)."""
        if not self.char2:
            return self.mul(X, X[:, sigma])
        return from_planes(self.norm_planes(to_planes(X, self.field.m), sigma), X.shape[0])

    def norm_planes(self, xp: np.ndarray, sigma: np.ndarray,
                    support: np.ndarray | None = None) -> np.ndarray:
        """x x^sigma over bit-planes, as (n, m, words) planes. xp holds X's
        planes at the indices support of G (all n by default) and X is 0
        elsewhere; the planes of X^sigma are X's permuted by sigma, so
        nothing is converted, and only X's support is summed over."""
        if support is None:
            return self.plane_product(xp, xp[sigma])
        full = np.zeros((self.n,) + xp.shape[1:], dtype=np.uint64)
        full[support] = xp
        return self.plane_product(xp, full[sigma], support=support)

    def augmentation(self, X: np.ndarray) -> np.ndarray:
        """The sum of each row's codes; 0 for rows of no columns."""
        s = np.zeros(X.shape[0], dtype=np.uint16)
        for column in X.T:
            s = self.add(s, column)
        return s

    def is_one(self, Y: np.ndarray) -> np.ndarray:
        return (Y == self.identity).all(axis=1)

    # --- the oracle scan -------------------------------------------------------

    def unitary_keys(self, sigma: np.ndarray, batch: int = DEFAULT_BATCH) -> np.ndarray:
        """Sorted keys of the normalized x with x x^sigma = 1, scanning
        batch candidates (a positive multiple of 64) at a time.

        Candidate i carries i's base-q digits at indices 1..n-1 and the
        dependent identity coefficient, so its key is q i + (its column 0),
        and the keys come out in order.

        In odd characteristic coefficient k of x x^sigma is the sum over i of
        x_i x_sigma(j), g_i g_j = g_k: one gather from the multiplication
        table over the rows still in play, then an addition chain. A row is
        dropped at its first coefficient that differs from 1's, and only the
        rows that pass all n are packed. The batch is read as its (n, rows)
        transpose, so each column's codes are contiguous, and both tables
        are gathered raveled, entry [X, Y] at the flat index X q + Y.

        In characteristic two a batch never leaves bit-planes: they are built
        from i, and x x^sigma = 1 is tested 64 rows to a word on one
        coefficient per sigma-orbit, by two facts:
        - (x x^sigma)^sigma = (x^sigma)^sigma x^sigma = x x^sigma, so
          coefficient sigma(k) equals coefficient k, in any characteristic.
          Of each moved pair {k, sigma(k)} only k < sigma(k) is formed, by
          `plane_product` on X and X^sigma, whose planes are X's permuted.
        - Let sigma(k) = k. The term x_g x_h, g != h, lands on g sigma(h) = k,
          and then x_h x_g lands on h sigma(g) = sigma(g sigma(h)) = k too, so
          in characteristic two the two cancel: (x x^sigma)_k is the sum of
          x_g^2 over g sigma(g) = k, that is (sum of x_g over them)^2.
          Squaring is a bijection of GF(2^m) fixing 0 and 1, so the test is
          sum of x_g over g sigma(g) = k equal to 1 at k = 1 and 0 elsewhere:
          an XOR of planes. Every g sigma(g) is sigma-fixed, since
          sigma(g sigma(g)) = g sigma(g), and a fixed k that no g sigma(g)
          reaches is 0 in every x x^sigma, so it needs no test.
        One fixed test is decided by construction. At g = 1, g sigma(g) is
        sigma(1) = 1, as sigma is an anti-automorphism, so when the roots
        g with g sigma(g) = k are all of G, k = 1 and the test is augmentation
        1, which every candidate has; it is skipped. No test is left exactly
        when no index moves and every g sigma(g) is 1, that is sigma is the
        identity map and the star (G elementary abelian); every candidate is
        then a hit.

        The hits' keys come from their indices alone, never from the planes
        (`candidate_keys`), in order."""
        if batch < 1 or batch % WORD_BITS:
            raise ValueError(f"batch {batch} is not a positive multiple of {WORD_BITS}")
        if not self.char2:
            # partner[k, i] = sigma(left_div[i, k]), the column x_i meets in coefficient k
            partner = np.ascontiguousarray(sigma[self.left_div].T)
            q, mul, add = self.q, self.tabs.mul.ravel(), self.tabs.add.ravel()
            parts = []
            for X in self.normalized_batches(batch):
                X = X.T  # (n, rows): each column's codes contiguous
                for k in range(self.n):
                    terms = mul[row_index(X, q) + X[partner[k]]]
                    coeff = terms[0]
                    for term in terms[1:]:
                        coeff = add[row_index(coeff, q) + term]
                    X = X[:, coeff == self.identity[k]]
                    if not X.shape[1]:
                        break
                else:
                    parts.append(self.pack(X.T))
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
        total = self.q ** (self.n - 1)
        squares = self.gtable[np.arange(self.n), sigma]  # g sigma(g), which sigma fixes
        linear = [(k, roots) for k in sorted(set(squares.tolist()))
                  if (roots := np.flatnonzero(squares == k)).size < self.n]
        moved = np.flatnonzero(np.arange(self.n) < sigma)  # where 1's coefficient is 0
        identity = constant_planes(self.identity, self.field.m)
        parts = []
        for start in range(0, total, batch):
            rows = min(batch, total - start)
            P = self._candidate_planes(start, rows)
            differs = np.zeros(P.shape[2], dtype=np.uint64)
            for k, roots in linear:
                differs |= np.bitwise_or.reduce(np.bitwise_xor.reduce(P[roots]) ^ identity[k])
            if moved.size:
                product = self.plane_product(P, P[sigma], moved)
                differs |= np.bitwise_or.reduce(product.reshape(-1, P.shape[2]))
            hits = np.flatnonzero(row_bits(~differs, rows)).astype(np.uint64)
            parts.append(self.candidate_keys(hits + np.uint64(start)))
        return np.concatenate(parts)

    def candidate_keys(self, index: np.ndarray) -> np.ndarray:
        """The keys of the normalized candidates with the given uint64
        indices, in characteristic two. Candidate i carries i's m-bit digits
        at indices 1..n-1 and, at index 0, 1's code XOR the XOR of those
        digits, so its key is (i << m) | (1's code ^ XOR of i's digits):
        after XOR-shifts by m, 2m, 4m, ... bits, digit 0 of i is that XOR."""
        m, folded = self.field.m, index.copy()
        for s in range(max(self.n - 2, 0).bit_length()):
            folded ^= folded >> np.uint64(m << s)
        low = (folded & np.uint64(self.q - 1)) ^ np.uint64(self.identity[0])
        return (index << np.uint64(m)) | low

    def _candidate_planes(self, start: int, rows: int) -> np.ndarray:
        """Bit-planes of the normalized candidates start, ..., start + rows - 1,
        in characteristic two, for start a multiple of 64.

        Bit a of column j >= 1 is bit k = m(j - 1) + a of the index. For
        k < 6 that is bit k of the row's place in its word, a fixed pattern;
        above it is bit k - 6 of the word's index, so the word is 0 or ~0.
        Column 0 is the XOR of the others and of the identity's bits, which
        gives every candidate augmentation 1."""
        m, words = self.field.m, -(-rows // WORD_BITS)
        P = np.empty((self.n, m, words), dtype=np.uint64)
        first = start // WORD_BITS
        word_index = np.arange(first, first + words, dtype=np.uint64)
        index_bits = P[1:].reshape(-1, words)  # row k: bit k of the index
        low = min(len(LOW_BIT_PATTERNS), index_bits.shape[0])
        index_bits[:low] = np.array(LOW_BIT_PATTERNS[:low], dtype=np.uint64)[:, None]
        shifts = np.arange(index_bits.shape[0] - low, dtype=np.uint64)[:, None]
        np.negative((word_index >> shifts) & np.uint64(1), out=index_bits[low:])
        P[0] = np.bitwise_xor.reduce(P[1:], axis=0) ^ constant_planes(self.identity[:1], m)[0]
        return P

    # --- enumerators ----------------------------------------------------------

    def normalized_batches(self, batch: int = DEFAULT_BATCH) -> Iterator[np.ndarray]:
        """All elements with augmentation 1, exactly once each, at most batch
        rows at a time: candidate i carries i's base-q digits at indices
        1..n-1, in order of i, and the dependent identity coefficient.

        No digit is divided out per candidate. Columns 1..low, as many as keep
        q^low <= batch, repeat one pattern of q^low rows, built once per call
        with its sum. Candidate i is then row i mod q^low of run i // q^low,
        and the run's digits fill the columns above low. A batch is up to
        batch // q^low whole runs, their digits from one `digits` call. Column
        0 is 1 - (low sum + run sum), and the run sum is constant along a run,
        so it takes one gather from the flat add table: (1 - low sum) - run sum.

        Each batch is the transpose of a fresh (n, rows) array, so one
        column's codes are contiguous."""
        if batch < 1:
            raise ValueError(f"batch {batch} is not a positive number of rows")
        q, n, tabs = self.q, self.n, self.tabs
        low = 0
        while low < n - 1 and q ** (low + 1) <= batch:
            low += 1
        run, high = q ** low, n - 1 - low
        pattern = digits(np.arange(run, dtype=np.uint64), q, low)
        one_minus_low = tabs.add[self.identity[0], tabs.neg[self.augmentation(pattern)]]
        add, runs, step = tabs.add.ravel(), q ** high, batch // run
        for start in range(0, runs, step):
            D = digits(np.arange(start, min(start + step, runs), dtype=np.uint64), q, high)
            X = np.empty((n, D.shape[0], run), dtype=np.uint16)
            X[1:low + 1] = pattern.T[:, None, :]
            X[low + 1:] = D.T[:, :, None]
            minus_rest = row_index(tabs.neg[self.augmentation(D)], q)
            X[0] = add[minus_rest[:, None] + one_minus_low]
            yield X.reshape(n, -1).T

    def span_batches(self, basis: np.ndarray, batch: int = DEFAULT_BATCH,
                     coefficient_codes: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """All linear combinations of the given (k, n) basis rows.

        coefficient_codes restricts every coefficient to a sublist of field
        codes (used for the im(tau) construction); defaults to the full field."""
        if batch < 1:
            raise ValueError(f"batch {batch} is not a positive number of rows")
        k = basis.shape[0]
        coeffs = coefficient_codes if coefficient_codes is not None else np.arange(self.q, dtype=np.uint16)
        radix = coeffs.size
        total = radix ** k
        for start in range(0, total, batch):
            stop = min(start + batch, total)
            X = np.zeros((stop - start, self.n), dtype=np.uint16)
            D = coeffs[digits(np.arange(start, stop, dtype=np.uint64), radix, k)]
            for j in range(k):
                scaled = self.tabs.mul[D[:, j, None], basis[j][None, :]]
                X = self.add(X, scaled)
            yield X
