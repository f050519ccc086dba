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
The odd oracle scan (`_odd_unitary_keys`), its candidates
(`normalized_grid`) and their sums (`augmentation`) read (q, q) tables
instead, and nothing else does. They are built once per field from the
codes' base-p digits, for any field whose q^2 m int64 digits fit in
MAX_GATHER_BYTES (GF(3^7), GF(5^5) and GF(2^11) are the largest of their
characteristics; any prime field up to GF(8191)): addition and negation
digit by digit mod p, multiplication by contracting the digits' outer
product with the field's fold matrix (`finite_field.fold_matrix`, which
`digit_product` and `span_batches` reduce by too). A context builds them on
first read (`AlgebraContext.tabs`); no product and no characteristic-two
route reads them, so characteristic two reaches every field up to
GF(2^16). The tests check every table entry against FieldElement's
polynomial arithmetic.

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
coefficient at a time in odd characteristic. Its candidates are one
factored enumeration (`normalized_grid`): a pattern of the low digit
columns, built once per scan, repeats in whole runs, and the run digits
above it and column 0 come per batch, on a (runs, pattern) grid.
Coefficient 0, the sum of x_i x_pi(i) over an involution pi of the
indices, is split by where i and pi(i) sit: the terms inside the pattern
are summed once per scan, those inside the run digits once per run, and
only x_0^2 and the terms across the two are formed per row, broadcast
over the grid. About one row in q passes it; only those become rows, and
each further coefficient is one gather from the multiplication table and
an addition chain over the rows still in play, a row leaving at its first
coefficient that differs from 1's. Every gather is a take from a raveled
(q^2,) table at one flat index X q + Y (`row_index`).

In characteristic two the scan stays in bit-planes and tests x x^sigma = 1
at one coefficient per sigma-orbit, each tested coefficient formed the same
way. Of each moved pair {k, sigma(k)} only k is tested, as x x^sigma is
sigma-symmetric. A sigma-fixed k is tested when some but not every
g sigma(g) is k: at any other fixed k every candidate passes by
construction. The scan's candidates are factored too: each is x = u + v,
u the pattern's digits and 1 plus their sum at index 0, v one run's digits
and their sum at index 0. Then x x^sigma is u u^sigma +
v v^sigma + the cross term u v^sigma + v u^sigma, which is GF(2)-linear in
the run's digit bits, with values on the pattern's rows. So u u^sigma is
formed once per scan, over the pattern's planes (`index_planes`); the cross
term is read per run from XOR tables over 4-bit chunks of the run's number,
built once per scan (the "Method of Four Russians" of Albrecht, Bard and
Hart, ACM TOMS 2010), one gather per chunk; and v v^sigma is one bitsliced
product over up to a batch of runs, 64 to a word. Only the plane words with
a hit are unpacked, and the hits are keyed from their indices alone
(`AlgebraContext.candidate_keys`). When no test is left (sigma fixes every
index and g sigma(g) = 1 throughout, as for an elementary abelian group
under its star) every candidate is a hit; the oracle does not scan then,
but proves the whole space unitary through its generators and keys its
witnesses alone.

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

DEFAULT_BATCH = 1 << 16
WORD_BITS = 64
PLANE_CHUNK_ROWS = 1 << 14  # rows converted or multiplied at a time: whole words, a transpose
                            # that stays in cache, a bounded gather in plane_product
MAX_GATHER_BYTES = 1 << 29  # the largest temporary one piece of a batch product may gather
MAX_KEY_SPACE = 1 << 63     # uint64 keys, kept below 2^63


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
    d[y, b] fold[a m + b] mod p: the (q, m, m) contraction of each y with the
    fold comes first, then one matrix product per piece of rows x, so the
    (q, q, m, m) outer product is never formed. Each result is packed back
    into codes by powers of p.

    The build's 8-byte digits of a whole table, q^2 m of them, are counted
    against MAX_GATHER_BYTES, and a field past it is refused before anything
    is allocated. The rows x run in pieces whose 8-byte digits take no more
    bytes than one finished uint16 table, so the build's peak stays near the
    size of the tables it returns."""
    q, p, m = spec.order, spec.p, spec.m
    table_bytes = q * q * m * np.dtype(np.int64).itemsize
    if table_bytes > MAX_GATHER_BYTES:
        raise SearchSpaceTooLarge(table_bytes, MAX_GATHER_BYTES, context="field table build")
    # The digits are float64, so that the matrix products run in BLAS. Each
    # is exact, as every entry is an integer below 2^53: a digit of x^a y is
    # below m (p-1)^2, of a product below m (p-1) times that, a digit sum
    # below 2p and a packed code below q. For an integer y with y + p below
    # 2^53, y / p rounds to an integer only if it is one, so the remainder
    # y - p floor(y / p) is exact too.
    assert max(m * m * (p - 1) ** 3 + p, q) < 1 << 53
    d = digits(np.arange(q, dtype=np.uint64), p, m).astype(np.float64)
    powers = float(p) ** np.arange(m)
    # folded[a, y k] = sum over b of d[y, b] fold[a m + b, k]: the digits of x^a y
    fold = fold_matrix(spec).astype(np.float64).reshape(m, m, m)
    folded = np.einsum("yb,abk->ayk", d, fold).reshape(m, q * m)
    add, mul = np.empty((q, q), dtype=np.uint16), np.empty((q, q), dtype=np.uint16)
    step = max(1, q * np.dtype(np.uint16).itemsize // (m * np.dtype(np.int64).itemsize))
    for start in range(0, q, step):
        x = d[start:start + step]
        sums = x[:, None, :] + d
        sums -= p * (sums >= p)
        add[start:start + step] = sums @ powers
        products = (x @ folded).reshape(-1, q, m)
        products -= p * np.floor(products / p)
        mul[start:start + step] = products @ powers
    tabs = FieldTables(add, mul, (-d % p @ powers).astype(np.uint16))
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


def index_planes(rows: int, bits: int) -> np.ndarray:
    """(bits, ceil(rows / 64)) uint64 planes of bits 0, ..., bits - 1 of the
    row indices 0, ..., rows - 1; pad rows past rows carry their indices'
    bits too. Bit k < 6 of a row is bit k of its place in its word, the same
    word throughout: (2^64 - 1) / (2^s + 1), s = 2^k, is s ones then s zeros
    repeated, so shifted up by s it has bit p set exactly when bit k of p
    is. Bit k >= 6 is bit k - 6 of the word's index, so each such word is
    0 or ~0."""
    words, low = -(-rows // WORD_BITS), min(bits, 6)
    P = np.empty((bits, words), dtype=np.uint64)
    span = np.uint64(1) << np.arange(low, dtype=np.uint64)
    P[:low] = (~np.uint64(0) // ((np.uint64(1) << span) + np.uint64(1)) << span)[:, None]
    shifts = np.arange(bits - low, dtype=np.uint64)[:, None]
    np.negative((np.arange(words, dtype=np.uint64) >> shifts) & np.uint64(1), out=P[low:])
    return P


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
    characteristic multiplies digit arrays (`digit_product`)."""

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
        """The field tables, built on first read: only `_odd_unitary_keys`,
        `normalized_grid` and `augmentation` read them, so no product, no
        span and no characteristic-two route has a field-size ceiling from
        them."""
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

    def norm_planes(self, xp: np.ndarray, sigma: np.ndarray, support: np.ndarray | None = None,
                    coeffs: np.ndarray | None = None) -> np.ndarray:
        """x x^sigma over bit-planes, as (n, m, words) planes, or its
        coefficients coeffs alone, in that order. xp holds X's planes at the
        indices support of G (all n by default) and X is 0 elsewhere; the
        planes of X^sigma are X's permuted by sigma, so nothing is converted,
        and only X's support is summed over."""
        if support is None:
            return self.plane_product(xp, xp[sigma], coeffs)
        full = np.zeros((self.n,) + xp.shape[1:], dtype=np.uint64)
        full[support] = xp
        return self.plane_product(xp, full[sigma], coeffs, support)

    def augmentation(self, X: np.ndarray) -> np.ndarray:
        """The sum of each row's codes, through the add table; 0 for rows of
        no columns."""
        add, s = self.tabs.add.ravel(), np.zeros(X.shape[0], dtype=np.uint16)
        for column in X.T:
            s = add.take(row_index(s, self.q) + column)
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
        x_i x_sigma(j), g_i g_j = g_k, and the candidates come factored
        (`normalized_grid`): columns 1..low are a pattern that every run
        repeats, the columns above are one run's digits, and column 0 is
        given on a batch's (runs, pattern) grid. Coefficient 0 is
        x_0^2 + the sum of x_i x_pi(i) over i >= 1, pi(i) = sigma(g_i^-1), an
        involution that fixes 0 alone, and its terms are formed only as
        often as they can change:
        - both indices in the pattern: once per scan, over the pattern;
        - both among the run digits: once per run;
        - across the two: per row, broadcast over the grid, a pair
          {i, pi(i)} as the one term 2 x_i x_pi(i);
        - x_0^2: per row, one gather from the squares.
        A row passes when x_0^2 is 1 minus the rest. About one in q does,
        and only those become (n, rows) rows, each column's codes
        contiguous. Each further coefficient k is one gather from the
        multiplication table over the rows still in play, then an addition
        chain, and a row is dropped at its first coefficient that differs
        from 1's; the rows that pass all n are packed. The rows stay in
        candidate order. Every gather is a take from a raveled table, entry
        [X, Y] at the flat index X q + Y.

        In characteristic two x x^sigma = 1 is tested in bit-planes, 64 rows
        to a word, at one coefficient per sigma-orbit, by two facts:
        - (x x^sigma)^sigma = (x^sigma)^sigma x^sigma = x x^sigma, so
          coefficient sigma(k) equals coefficient k, in any characteristic.
          Of each moved pair {k, sigma(k)} only k < sigma(k) is tested: it
          must be 0.
        - Let sigma(k) = k. The term x_g x_h, g != h, lands on g sigma(h) = k,
          and then x_h x_g lands on h sigma(g) = sigma(g sigma(h)) = k too, so
          in characteristic two the two cancel: (x x^sigma)_k is the sum of
          x_g^2 over g sigma(g) = k, that is (sum of x_g over them)^2. Every
          g sigma(g) is sigma-fixed, since sigma(g sigma(g)) = g sigma(g).
          A fixed k that no g sigma(g) reaches is 0 in every x x^sigma. When
          every g sigma(g) is k, k is the identity, as 1 sigma(1) = 1 (sigma
          is an anti-automorphism), and the coefficient is the augmentation
          squared, 1 in every candidate. Neither is tested; every other
          fixed k is, against 1's coefficient, as a moved k is.
        No test is left exactly when no index moves and every g sigma(g) is
        1, that is sigma is the identity map and the star (G elementary
        abelian); every candidate is then a hit.

        The candidates are factored as in odd characteristic, in bit-planes.
        Columns 1..low form a pattern of run = q^low rows, the most with
        q^low <= min(batch, PLANE_CHUNK_ROWS), or all n - 1 columns when the
        whole scan fits one batch, as one run of number 0; candidate i is row
        i mod run of run number i // run, whose m-bit fields are the digits
        at low + 1..n - 1. Write x = u + v: u holds the row's digits and, at
        index 0, 1 plus their sum; v holds the run's digits and, at index 0,
        their sum. Then x has augmentation 1, and as the product is bilinear,
            x x^sigma = u u^sigma + v v^sigma + (u v^sigma + v u^sigma)
        at every coefficient k, moved or fixed.
        Coefficient k of x y^sigma is the sum over i of x_i y_pi_k(i), where
        pi_k(i) = sigma(left_div[i, k]): g_i g_j = g_k fixes j, and
        (y^sigma)_j = y_sigma(j). pi_k permutes the indices, so coefficient k
        of the cross term is the sum over b of v_b (u_pi_k^-1(b) + u_pi_k(b)),
        b over v's indices 0 and low + 1..n - 1. v_0 is the sum of the run
        digits d_j at b_j = low + 1 + j, so it is the sum over j of d_j w_kj,
        w_kj = u_pi_k^-1(b_j) + u_pi_k(b_j) + u_pi_k^-1(0) + u_pi_k(0), and
        d_j is the sum of x^c over its bits c. The cross term is therefore
        GF(2)-linear in the high m bits of the run's number, bit j m + c
        adding x^c w_kj, a value on the pattern's rows.

        Once per scan: u's planes over the pattern's rows (`index_planes`);
        each test at u, u u^sigma at the tested k less 1's coefficient there,
        by `plane_product` over u's indices; the planes of every bit's term;
        and XOR tables over 4-bit chunks of the run's number, at least one:
        entry j of chunk c is the XOR of the terms of the bits that j sets,
        and chunk 0, which every run reads once, carries the tests at u. A
        scan of one run has no bits, and its one chunk holds the tests at u
        alone. Per step of batch // run runs: one gather per chunk by the
        runs' 4-bit fields gives each run's tests at u plus its cross term,
        and v v^sigma, a constant along the run, flips the tests where it is
        1; a row passes when every plane of every test is 0 there. v v^sigma
        comes from one `plane_product` over the planes of up to batch runs,
        64 to a word, whole steps of them. A hit's offset is run number times
        q^low plus the row, so the hits come out in candidate order. At
        low = 0 the pattern is the identity alone, each run is one
        candidate, and v v^sigma is the whole product, as in a scan without
        the split.

        The hits' keys come from their indices alone, never from the planes
        (`candidate_keys`), in order."""
        if batch < 1 or batch % WORD_BITS:
            raise ValueError(f"batch {batch} is not a positive multiple of {WORD_BITS}")
        if not self.char2:
            return self._odd_unitary_keys(sigma, batch)
        return self._char2_unitary_keys(sigma, batch)

    def candidate_keys(self, index: np.ndarray) -> np.ndarray:
        """The keys of the normalized candidates with the given uint64
        indices, in characteristic two only. Candidate i carries i's base-q
        digits, its m-bit fields, at indices 1..n-1 and, at index 0, 1 plus
        their XOR, so its key is (i << m) | (1's code ^ XOR of i's digits):
        after XOR-shifts by m, 2m, 4m, ... bits, digit 0 of i is that XOR."""
        m, folded = self.field.m, index.copy()
        for s in range(max(self.n - 2, 0).bit_length()):
            folded ^= folded >> np.uint64(m << s)
        low = (folded & np.uint64(self.q - 1)) ^ np.uint64(self.identity[0])
        return (index << np.uint64(m)) | low

    def _char2_unitary_keys(self, sigma: np.ndarray, batch: int) -> np.ndarray:
        """unitary_keys in characteristic two, on the candidates' (runs,
        pattern) grid: every test at u once per scan, the cross term of each
        run from XOR tables over 4-bit chunks of the run's number, and
        v v^sigma by one product over up to batch runs."""
        q, n, m = self.q, self.n, self.field.m
        # one run when the whole scan fits a batch, its one chunk of tables the tests at u;
        # else runs of the q^low <= min(batch, PLANE_CHUNK_ROWS) rows
        limit = batch if q ** (n - 1) <= batch else min(batch, PLANE_CHUNK_ROWS)
        low = min(n - 1, (limit.bit_length() - 1) // m)
        run, high = q ** low, n - 1 - low
        words = -(-run // WORD_BITS)
        # the tested k: k < sigma(k), and each k that some but not every g sigma(g) equals
        reached = np.bincount(self.gtable[np.arange(n), sigma], minlength=n)
        tested = np.flatnonzero((np.arange(n) < sigma) | ((reached > 0) & (reached < n)))
        support = np.concatenate(([0], np.arange(low + 1, n)))  # v's indices

        # u over the pattern's rows: the rows' digits at 1..low, 1 plus their sum at 0
        identity = constant_planes(self.identity, m)
        U = np.zeros((n, m, words), dtype=np.uint64)
        U[1:low + 1] = index_planes(run, low * m).reshape(low, m, words)
        U[0] = np.bitwise_xor.reduce(U[1:low + 1], axis=0) ^ identity[0]
        # each test at u, less 1's coefficient: (tests, m, words) planes
        base = self.plane_product(U[:low + 1], U[sigma], tested, np.arange(low + 1)) ^ identity[tested]
        # ell[j m + c, t]: what bit c of run digit j adds to test t, so bit j m + c of
        # the run's number; rows past high m are 0, to whole chunks of 4, at least one
        chunks = max(1, -(-high * m // 4))
        ell = np.zeros((4 * chunks, tested.size, m, words), dtype=np.uint64)
        by_bit = ell[:high * m].reshape(high, m, tested.size, m, words)
        # v_b meets u_pi_k^-1(b) + u_pi_k(b), and v_0 is the sum of the digits
        partner = sigma[self.left_div[:, tested]].T  # row k: pi_k
        meets = U[np.argsort(partner, axis=1)[:, support]] ^ U[partner[:, support]]
        w = (meets[:, 1:] ^ meets[:, :1]).transpose(1, 0, 2, 3)  # (high, tests, m, words)
        for c in range(m):
            by_bit[:, c] = w
            shifted = np.zeros_like(w)  # x w
            shifted[:, :, 1:] = w[:, :, :-1]
            for t in self.taps:
                shifted[:, :, t] ^= w[:, :, m - 1]
            w = shifted
        # tables[c, j]: the XOR of the ell rows of chunk c that j's bits pick;
        # every run picks one entry of chunk 0, which carries the base
        bits = ell.reshape(chunks, 4, -1)
        tables = np.zeros((chunks, 16, bits.shape[2]), dtype=np.uint64)
        for b in range(4):
            tables[:, 1 << b:2 << b] = tables[:, :1 << b] ^ bits[:, b, None]
        tables[0] ^= base.reshape(-1)
        step, runs, parts = batch // run, q ** high, []
        block = batch // step * step  # runs whose v v^sigma one product forms: whole steps, <= batch
        stride = min(run, WORD_BITS)  # rows to a word: a run of fewer than 64 pads its word
        pad = row_mask(stride)
        for first in range(0, runs, step):
            r = np.arange(first, min(first + step, runs), dtype=np.uint64)
            differs = tables[0].take(r & np.uint64(15), axis=0)
            for c in range(1, chunks):
                differs ^= tables[c].take((r >> np.uint64(4 * c)) & np.uint64(15), axis=0)
            differs = differs.reshape(r.size, tested.size, m, words)
            at = first % block  # the step's first run, in its block
            if not at:
                v_runs = np.arange(first, min(first + block, runs), dtype=np.uint64)
                V = np.empty((high + 1, m, -(-v_runs.size // WORD_BITS)), dtype=np.uint64)
                V[1:] = to_planes(v_runs[:, None], high * m).reshape(V[1:].shape)
                V[0] = np.bitwise_xor.reduce(V[1:], axis=0)
                vv = self.norm_planes(V, sigma, support, tested)
            piece = vv[:, :, at // WORD_BITS:-(-(at + r.size) // WORD_BITS)]
            per_run = np.unpackbits(piece.view(np.uint8), axis=-1, bitorder="little")
            per_run = per_run[:, :, at % WORD_BITS:at % WORD_BITS + r.size]
            differs ^= np.negative(per_run.transpose(2, 0, 1)[..., None], dtype=np.uint64)
            # word i holds the rows from i stride on; only the words with a hit are unpacked
            passes = ~np.bitwise_or.reduce(differs.reshape(r.size, tested.size * m, words), axis=1).ravel() & pad
            nonzero = np.flatnonzero(passes)
            bit = np.flatnonzero(np.unpackbits(passes[nonzero].view(np.uint8), bitorder="little").view(bool))
            hits = nonzero[bit >> 6] * stride + (bit & 63) + first * run
            parts.append(self.candidate_keys(hits.astype(np.uint64)))
        return np.concatenate(parts)

    def _odd_unitary_keys(self, sigma: np.ndarray, batch: int) -> np.ndarray:
        """unitary_keys in odd characteristic, on the factored candidates of
        `normalized_grid`: coefficient 0 on their (runs, pattern) grid, the
        other coefficients on the rows that pass it. Every gather is a take
        from a raveled table."""
        q, n, tabs = self.q, self.n, self.tabs
        mul, add, neg = tabs.mul.ravel(), tabs.add.ravel(), tabs.neg
        # partner[k, i] = sigma(left_div[i, k]), the column x_i meets in coefficient k
        partner = np.ascontiguousarray(sigma[self.left_div].T)
        pattern, grid = self.normalized_grid(batch)
        low, run = pattern.shape

        def product(X, Y):
            return mul.take(row_index(X, q) + Y)

        def total(terms, size):
            out = np.zeros(size, dtype=np.uint16)
            for term in terms:
                out = add.take(row_index(out, q) + term)
            return out

        # coefficient 0 is x_0^2 plus x_i x_pi(i) over i >= 1, where pi =
        # partner[0] is an involution fixing 0 alone. Index i is pattern row
        # i - 1 up to low and run digit i - low - 1 above. The terms inside
        # the pattern are summed once. A pair {i, pi(i)} across the two is
        # one term 2 x_i x_pi(i), subtracted as -2 x_i, formed once over the
        # pattern, times the run digit x_pi(i)
        pi = partner[0]
        inside = [product(pattern[i - 1], pattern[pi[i] - 1]) for i in range(1, low + 1) if pi[i] <= low]
        one_minus_inside = add.take(row_index(neg.take(total(inside, run)), q) + self.identity[0])
        across = [(pi[i] - low - 1, neg.take(add.take(row_index(pattern[i - 1], q) + pattern[i - 1])))
                  for i in range(1, low + 1) if pi[i] > low]
        runs_only = [(i - low - 1, pi[i] - low - 1) for i in range(low + 1, n) if pi[i] > low]
        squares = np.ascontiguousarray(tabs.mul.diagonal())
        parts = []
        for D, column0 in grid:
            # a row passes when x_0^2 equals rest, 1 minus every other term
            minus_runs = neg.take(total([product(D[i], D[j]) for i, j in runs_only], D.shape[1]))
            rest = add.take(row_index(minus_runs, q)[:, None] + one_minus_inside)
            for j, minus_twice in across:
                rest = add.take(row_index(rest, q) + mul.take(row_index(D[j], q)[:, None] + minus_twice))
            hits = np.flatnonzero(squares.take(column0) == rest)
            s, r = np.divmod(hits, run)
            X = np.empty((n, hits.size), dtype=np.uint16)
            X[0] = column0.take(hits)
            X[1:low + 1] = pattern.take(r, axis=1)
            X[low + 1:] = D.take(s, axis=1)
            for k in range(1, n):
                if not X.shape[1]:
                    break
                terms = product(X, X[partner[k]])
                coeff = terms[0]
                for term in terms[1:]:
                    coeff = add.take(row_index(coeff, q) + term)
                X = X.compress(coeff == self.identity[k], axis=1)
            else:
                parts.append(self.pack(X.T))
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)

    # --- enumerators ----------------------------------------------------------

    def normalized_grid(self, batch: int = DEFAULT_BATCH
                        ) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
        """All elements with augmentation 1, exactly once each, factored: the
        (low, q^low) codes of columns 1..low, and an iterator over batches of
        at most batch candidates, each a (high, runs) array of the codes of
        columns low + 1..n - 1 and the (runs, q^low) codes of column 0.
        Candidate i carries i's base-q digits at indices 1..n-1, in order of
        i, and the dependent identity coefficient.

        No digit is divided out per candidate. Columns 1..low, as many as keep
        q^low <= batch, repeat one pattern of q^low rows, counted out by
        np.indices once per call, with its sum. Candidate i is then row
        i mod q^low of run i // q^low, and the run's digits fill the columns
        above low. A batch is up to batch // q^low whole runs, their digits
        from one `digits` call. Column 0 is 1 - (low sum + run sum), and the
        run sum is constant along a run, so it takes one gather from the flat
        add table: (1 - low sum) - run sum. Every array is fresh."""
        if batch < 1:
            raise ValueError(f"batch {batch} is not a positive number of rows")
        q, n, tabs = self.q, self.n, self.tabs
        low = 0
        while low < n - 1 and q ** (low + 1) <= batch:
            low += 1
        run, high = q ** low, n - 1 - low
        # row j is digit j of 0, ..., run - 1: np.indices counts with the last axis fastest
        pattern = np.indices((q,) * low, dtype=np.uint16).reshape(low, run)[::-1]
        one_minus_low = tabs.add[self.identity[0], tabs.neg[self.augmentation(pattern.T)]]

        def runs():
            add, total, step = tabs.add.ravel(), q ** high, batch // run
            for start in range(0, total, step):
                D = digits(np.arange(start, min(start + step, total), dtype=np.uint64), q, high)
                minus_rest = row_index(tabs.neg.take(self.augmentation(D)), q)
                yield D.T.copy(), add.take(minus_rest[:, None] + one_minus_low)

        return pattern, runs()

    def normalized_batches(self, batch: int = DEFAULT_BATCH) -> Iterator[np.ndarray]:
        """The candidates of `normalized_grid`, at most batch rows at a time,
        in order. Each batch is the transpose of a fresh (n, rows) array, so
        one column's codes are contiguous."""
        pattern, grid = self.normalized_grid(batch)
        low = pattern.shape[0]
        for D, column0 in grid:
            X = np.empty((self.n,) + column0.shape, dtype=np.uint16)
            X[0] = column0
            X[1:low + 1] = pattern[:, None, :]
            X[low + 1:] = D[:, :, None]
            yield X.reshape(self.n, -1).T

    def span_batches(self, basis: np.ndarray, batch: int = DEFAULT_BATCH) -> Iterator[np.ndarray]:
        """All linear combinations of the given (k, n) basis rows, with every
        coefficient over the whole field, combination i taking i's base-q
        digit j as the coefficient of row j.

        Digit a of coefficient j is i's base-p digit j m + a, and the fold
        matrix gives the digits of x^a times each basis row once, as a
        (k m, n m) matrix; each batch of combinations is then one product of
        its digits with it, mod p, packed back by powers of p. No field table
        is read."""
        if batch < 1:
            raise ValueError(f"batch {batch} is not a positive number of rows")
        (k, n), p, m = basis.shape, self.field.p, self.field.m
        rows = digits(basis.astype(np.uint64).ravel(), p, m).reshape(k, n, m).astype(np.int64)
        # scaled[j a, i c] = digit c of x^a times basis[j, i]
        scaled = np.einsum("jib,abc->jaic", rows, fold_matrix(self.field).reshape(m, m, m))
        scaled, powers, total = scaled.reshape(k * m, n * m), p ** np.arange(m), self.q ** k
        for start in range(0, total, batch):
            D = digits(np.arange(start, min(start + batch, total), dtype=np.uint64), p, k * m)
            yield ((D.astype(np.int64) @ scaled % p).reshape(-1, n, m) @ powers).astype(np.uint16)
