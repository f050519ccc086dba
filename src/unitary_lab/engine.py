"""Vectorized batch kernels for enumerating group-algebra elements.

Internal plumbing shared by the brute-force oracle, the S_H enumeration,
and the subgroup certificates. A batch is a (B, |G|) uint16 array of field
codes (little-endian base-p packing of each coefficient vector); a whole
element packs into a uint64 key for set membership work.

Odd characteristic is table-driven. The (q, q) tables are built once per
field from the codes' base-p digits: addition and negation digit by digit
mod p, multiplication by contracting the digits' outer product with the
field's fold matrix (`finite_field.fold_matrix`, which the scalar algebra
product reduces by too). The tests check every table entry against
FieldElement's polynomial arithmetic.

In characteristic two a code's bit a is the coefficient of x^a, so addition
is XOR and products run bitsliced: a batch becomes bit-planes, one bit per
row in uint64 words, and a GF(2^m) product is m^2 plane ANDs and XORs plus
the reduction by the field's modulus. Most batch products are a few rows,
where numpy's cost per call outweighs the work, so each step runs across
the whole group: `to_planes` shifts out all m bits in one broadcast, and
`plane_product` gathers the Y[j] that each X[i] meets once, then takes m
steps of an AND and an XOR-reduction over i. The table kernel stays the
reference the tests hold the bitsliced one to. A norm x x^sigma converts X
once (`AlgebraContext.norm`): X^sigma's planes are X's permuted by sigma.

The oracle's scan (`AlgebraContext.unitary_keys`) tests x x^sigma = 1 one
coefficient at a time in odd characteristic: coefficient k is one gather
from the multiplication table and an addition chain over the rows still in
play, and a row leaves at its first coefficient that differs from 1's, so
after coefficient 0 about one row in q is left. Its candidates come from
`normalized_batches` without a division: whole runs of the low digit
columns, built once per scan, a contiguous range of the next column and
constant columns above. The scan reads each batch column by column, and
every gather, from the raveled (q^2,) tables, takes one flat index X q + Y
(`row_index`). It stays in bit-planes in
characteristic two: it builds each batch's planes from the candidate
indices, tests x x^sigma = 1 word by word on one coefficient per
sigma-orbit, and reads the hits' keys from two small tables, one entry per
word of 64 candidates and one per row within a word, XORed. x x^sigma is
sigma-symmetric, so of each moved pair {k, sigma(k)} only k is formed, by the
bitsliced product of the planes and their permutation by sigma. A
sigma-fixed coefficient is the square of the sum of the x_g with
g sigma(g) = k, so it is tested linearly, by an XOR of planes. A test that
every candidate passes by construction is not run, and when no test is left
(sigma fixes every index and g sigma(g) = 1 throughout, as for an elementary
abelian group under its star) no planes are built: every candidate is a hit.
The certificate's involution check stays in key space there: a key is n
fields of m bits, so a permutation of G's indices only moves the fields
(`AlgebraContext.involute_keys`).

Keys are uint64 and below 2^63, so `pack` refuses a group algebra with more
than 2^63 elements when it is first called; a context is built for any size,
and the characteristic-two recursion, which keys in its own coordinates,
never packs. A bit-plane product is refused before its gathered temporary
would pass MAX_GATHER_BYTES.
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
MAX_GATHER_BYTES = 1 << 29  # the largest temporary one piece of plane_product may gather
MAX_KEY_SPACE = 1 << 63     # uint64 keys, kept below 2^63
# bit b of word k is bit k of b: bits 0..5 of the indices of 64 consecutive rows
LOW_BIT_PATTERNS = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                    0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)


@dataclass(frozen=True, eq=False)
class FieldTables:
    add: np.ndarray   # (q, q)
    mul: np.ndarray   # (q, q)
    neg: np.ndarray   # (q,)
    one: int


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
    tabs = FieldTables(*(t.astype(np.uint16) for t in (add, mul, neg)), one=spec.one.code)
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


def row_index(X: np.ndarray, q: int) -> np.ndarray:
    """X q, where row X of a raveled (q, q) table starts: entry [X, Y] is
    at X q + Y. The dtype holds q^2 - 1, so it is uint16 up to q = 256 and
    uint32 above, where a uint16 index would wrap."""
    dtype = np.uint16 if q * q <= 1 << 16 else np.uint32
    return X.astype(dtype, copy=False) * dtype(q)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values), found by a sort and a scan for adjacent repeats;
    np.unique without return_counts hashes instead, many times slower."""
    values = np.sort(values)
    if values.size < 2:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    characteristic gathers from the field tables."""

    def __init__(self, field: FieldSpec, group: Group):
        self.field = field
        self.group = group
        self.tabs = field_tables(field)
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
        self.identity[0] = self.tabs.one  # so the key of 1 is tabs.one

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
        """Convolution product of batches; Y may be (1, n) for a fixed factor."""
        if self.char2:
            return self.mul_planes(X, Y)
        return self.mul_table(X, Y)

    def mul_table(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """mul through the field tables: out[g_i g_j] += X[i] Y[j]."""
        add_t, mul_t = self.tabs.add, self.tabs.mul
        B = max(X.shape[0], Y.shape[0])
        out = np.zeros((B, self.n), dtype=np.uint16)
        for i in range(self.n):
            xi = X[:, i]
            if not xi.any():
                continue
            prod = mul_t[xi[:, None], Y]
            dest = self.gtable[i]
            out[:, dest] = add_t[out[:, dest], prod]
        return out

    def mul_planes(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """mul in characteristic two over bit-planes."""
        m = self.field.m
        B = max(X.shape[0], Y.shape[0])
        xp, yp = (constant_planes(Z[0], m) if Z.shape[0] == 1 else to_planes(Z, m)
                  for Z in (X, Y))
        return from_planes(self.plane_product(xp, yp), B)

    def plane_product(self, xp: np.ndarray, yp: np.ndarray,
                      coeffs: np.ndarray | None = None) -> np.ndarray:
        """The product of two (n, m, words) bit-plane batches, as planes; a
        one-word operand of constant words is a fixed factor. coeffs lists
        the coefficients k to form, in the order they come out; the default
        is all n.

        out[g_k] = XOR over i of X[i] Y[j], g_i g_j = g_k. Each coefficient
        product is schoolbook: plane a of X[i] ANDed with plane b of Y[j]
        lands in plane a + b of an unreduced product of 2m - 1 planes. Y is
        gathered once as Y[left_div], (n, K, m, words) with row i holding the
        Y[j] that X[i] meets, so each plane a of X is one AND against it and
        one XOR-reduction over i: m vector steps, not n m. The words run in
        pieces of PLANE_CHUNK_ROWS rows, and a piece whose gathered temporary
        would pass MAX_GATHER_BYTES is refused before it is allocated.
        The reduction by the modulus is linear, so it runs once on the sum."""
        m = self.field.m
        left_div = self.left_div if coeffs is None else self.left_div[:, coeffs]
        words = max(xp.shape[2], yp.shape[2])
        step = PLANE_CHUNK_ROWS // WORD_BITS
        gathered = left_div.size * m * min(words, step) * np.dtype(np.uint64).itemsize
        if gathered > MAX_GATHER_BYTES:
            raise SearchSpaceTooLarge(gathered, MAX_GATHER_BYTES, context="bit-plane product")
        out = np.zeros((left_div.shape[1], 2 * m - 1, words), dtype=np.uint64)
        for start in range(0, words, step):
            piece = slice(start, start + step)
            x = xp if xp.shape[2] == 1 else xp[:, :, piece]
            y_over = (yp if yp.shape[2] == 1 else yp[:, :, piece])[left_div]
            term = np.empty(np.broadcast_shapes(y_over.shape, x[:, :1, None].shape),
                            dtype=np.uint64)
            for a in range(m):
                np.bitwise_and(x[:, a, None, None], y_over, out=term)
                out[:, a:a + m, piece] ^= np.bitwise_xor.reduce(term, axis=0)
        for k in range(2 * m - 2, m - 1, -1):
            for t in self.taps:
                out[:, k - m + t] ^= out[:, k]
        return out[:, :m]

    def norm(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """x x^sigma for every row x of X. In characteristic two X becomes
        bit-planes once, as the planes of X^sigma are X's permuted by sigma."""
        if not self.char2:
            return self.mul(X, X[:, sigma])
        xp = to_planes(X, self.field.m)
        return from_planes(self.plane_product(xp, xp[sigma]), X.shape[0])

    def involute_keys(self, keys: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """pack(unpack(keys)[:, sigma]) for any permutation sigma of G's
        indices, batch by batch so that no temporary grows with the key count.

        In characteristic two the batch never leaves key space: a key is n
        fields of m bits, field i holding column i's code, and sigma only
        moves fields, field sigma[i] to field i, a shift by m (i - sigma[i]).
        The fields that share a shift move under one mask, so the keys are
        masked, shifted and ORed once per distinct shift. Odd characteristic
        unpacks, permutes and packs."""
        out = np.empty(keys.shape, dtype=np.uint64)
        if not self.char2:
            for start in range(0, keys.size, DEFAULT_BATCH):
                rows = self.unpack(keys[start:start + DEFAULT_BATCH])
                out[start:start + rows.shape[0]] = self.pack(rows[:, sigma])
            return out
        m, masks = self.field.m, {}
        for i, j in enumerate(sigma.tolist()):
            masks[m * (i - j)] = masks.get(m * (i - j), 0) | ((self.q - 1) << (m * j))
        for start in range(0, keys.size, DEFAULT_BATCH):
            batch, star = keys[start:start + DEFAULT_BATCH], out[start:start + DEFAULT_BATCH]
            star[:] = 0
            moved = np.empty_like(batch)
            for shift, mask in masks.items():
                np.bitwise_and(batch, np.uint64(mask), out=moved)
                if shift > 0:
                    moved <<= np.uint64(shift)
                elif shift < 0:
                    moved >>= np.uint64(-shift)
                star |= moved
        return out

    def augmentation(self, X: np.ndarray) -> np.ndarray:
        s = X[:, 0].copy()
        for i in range(1, X.shape[1]):
            s = self.add(s, X[:, i])
        return s

    def is_one(self, Y: np.ndarray) -> np.ndarray:
        return (Y == self.identity).all(axis=1)

    # --- the oracle scan -------------------------------------------------------

    def unitary_keys(self, sigma: np.ndarray, batch: int = DEFAULT_BATCH) -> np.ndarray:
        """Sorted keys of the normalized x with x x^sigma = 1, scanning
        batch candidates (a positive multiple of 64) at a time, unless
        there is nothing to test.

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
        identity map and the star (G elementary abelian), and then no planes
        are built and no batches are made: the answer is the keys of every
        candidate, one broadcast over the whole scan.

        Keys come from the indices alone, never from the planes: q = 2^m, so
        the key of i is (i << m) | column 0's code, which is the identity's
        code XOR the XOR of i's n - 1 m-bit digits (`fold_keys`). Both parts
        are XOR-linear in i, and a batch starts on a multiple of 64, so
        candidate 64 w + r, r < 64, has key word_key[w] ^ bit_key[r]: one
        table of the batch's words, and one of the 64 rows of a word with the
        identity's code folded in, built once per scan. A batch's keys are
        one broadcast XOR of the two, in order, and the hits are picked out of
        them by their bits."""
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
        m, total = self.field.m, self.q ** (self.n - 1)
        squares = self.gtable[np.arange(self.n), sigma]  # g sigma(g), which sigma fixes
        linear = [(k, roots) for k in sorted(set(squares.tolist()))
                  if (roots := np.flatnonzero(squares == k)).size < self.n]
        moved = np.flatnonzero(np.arange(self.n) < sigma)  # where 1's coefficient is 0
        identity = constant_planes(self.identity, m)
        # digit 0 of i after the XOR-shifts by m, 2m, 4m, ... is the XOR of i's digits
        folds = [np.uint64(m << s) for s in range(max(self.n - 2, 0).bit_length())]

        def fold_keys(index):  # (i << m) | the XOR of i's digits
            keys = index << np.uint64(m)
            for shift in folds:
                index ^= index >> shift
            return keys | (index & np.uint64(self.q - 1))

        bit_key = fold_keys(np.arange(WORD_BITS, dtype=np.uint64)) ^ np.uint64(self.tabs.one)

        def candidate_keys(start, rows):
            word_key = fold_keys(np.arange(start, start + rows, WORD_BITS, dtype=np.uint64))
            return (word_key[:, None] ^ bit_key).ravel()[:rows]

        if not (linear or moved.size):
            return candidate_keys(0, total)
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
            hits = np.unpackbits((~differs).view(np.uint8), count=rows, bitorder="little")
            parts.append(candidate_keys(start, rows)[hits.view(bool)])
        return np.concatenate(parts)

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
        with its sum. A batch is whole runs of the pattern, one per value of
        a contiguous range of column low + 1, and the columns above that are
        constant across it. Column 0 is 1 - (low sum + the rest), and the rest
        is constant along each run, so it takes one gather from the flat add
        table: (1 - low sum) - rest.

        Each batch is the transpose of a fresh (n, rows) array, so one
        column's codes are contiguous."""
        if batch < 1:
            raise ValueError(f"batch {batch} is not a positive number of rows")
        q, n, tabs = self.q, self.n, self.tabs
        low = 0
        while low < n - 1 and q ** (low + 1) <= batch:
            low += 1
        run = q ** low
        pattern = digits(np.arange(run, dtype=np.uint64), q, low)
        low_sum = self.augmentation(pattern) if low else np.zeros(run, dtype=np.uint16)
        one_minus_low = tabs.add[tabs.one, tabs.neg[low_sum]]
        if low == n - 1:
            X = np.empty((n, run), dtype=np.uint16)
            X[0], X[1:] = one_minus_low, pattern.T
            yield X.T
            return
        add, step = tabs.add.ravel(), batch // run  # values of column low + 1 per batch, < q
        for high in range(q ** (n - 2 - low)):
            high_digits = digits(np.array([high], dtype=np.uint64), q, n - 2 - low)[0]
            high_sum = self.augmentation(high_digits[None, :])[0] if low < n - 2 else 0
            for start in range(0, q, step):
                values = np.arange(start, min(start + step, q), dtype=np.uint16)
                X = np.empty((n, values.size, run), dtype=np.uint16)
                X[1:low + 1] = pattern.T[:, None, :]
                X[low + 1] = values[:, None]
                X[low + 2:] = high_digits[:, None, None]
                minus_rest = tabs.neg[tabs.add[values, high_sum]]
                X[0] = add[row_index(minus_rest, q)[:, None] + one_minus_low]
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
