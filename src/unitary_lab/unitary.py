"""Orders and element sets of the unitary subgroups of FG.

Three routes to |V(FG)| under an involution arising from G:

* odd characteristic: the closed formula |F|^((|G|-|G_sigma|)/2), with the
  Cayley transform realizing the bijection behind it;
* characteristic two: the recursion |V(FG)| = |F|^(|G|/2) * |V(F[G/H])| / |S_H|
  over H generated by a central involution, down to order 1. Schreier's
  orbit algorithm on the cosets of S_H counts each level from generators
  of V over the level below. A level's generators are lifted, and checked
  unitary, when the level above first reads them, so the top level lifts
  none, and no unitary group is listed. Where no g has g^2 = c, S_H is
  read off G/H without the orbit (see _CosetOrbit);
* any characteristic: the exhaustive oracle over all normalized units, which
  certifies its output is a subgroup, or proves them all unitary through
  their generators where the scan would test nothing.

Theta is the exact quotient |V(FG)| / |F|^((|G|+|G{2}|)/2 - 1) in
characteristic two; the bound constructions N1, N2 bracket |S_H|.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import (
    DEFAULT_BATCH,
    AlgebraContext,
    digit_product,
    digits,
    first_nonzero_row,
    from_planes,
    keys_contain,
    require_key_space,
    row_mask,
    row_words,
    to_planes,
)
from .errors import (
    EvenCharacteristic,
    InternalInconsistency,
    NoCentralInvolution,
    NotInvertible,
    NotNormalized,
    OddCharacteristic,
    SearchSpaceTooLarge,
    Ambiguous,
)
from .finite_field import FieldSpec, fold_matrix, is_power_of
from .group_algebra import (
    AlgebraElement,
    GroupInvolution,
    format_algebra_literal,
    from_codes,
    require_p_group,
    _augmentation_digits,
    _identity_digits,
    _inverse_scaling,
    _invert_digits,
)
from .group_core import Group, SubgroupHandle, _magma_generators

DEFAULT_SEARCH_CAP = 1 << 24
DEFAULT_MAX_WITNESSES = 64


def theta_exponent(group: Group, field: FieldSpec) -> int:
    """(|G| + |G{2}|)/2 - 1; integral because G{2} includes the identity."""
    g2 = len(group.special_sets().order_two)
    if (group.n + g2) % 2:
        raise _inconsistency(group, field, "|G|+|G{2}| is odd")
    return (group.n + g2) // 2 - 1


def theta_from_order(order: int, field: FieldSpec, group: Group) -> Fraction:
    return Fraction(order, field.order ** theta_exponent(group, field))


@dataclass(frozen=True)
class UnitaryResult:
    """One computed unitary subgroup: its order, theta, and provenance."""

    group_id: str
    field: FieldSpec
    involution: str
    method: str
    order: int
    theta: Fraction
    elements: tuple[AlgebraElement, ...] | None = None
    subsidiary: dict | None = dataclasses.field(default=None, hash=False)  # a dict: compared, not hashed

    def to_dict(self) -> dict:
        out = {
            "group": self.group_id,
            "field": self.field.literal(),
            "involution": self.involution,
            "method": self.method,
            "order": str(self.order),
            "theta": str(self.theta),
        }
        if self.subsidiary is not None:
            out["subsidiary"] = {
                k: (v if isinstance(v, bool) or v is None else
                    str(v) if isinstance(v, (int, Fraction)) else v)
                for k, v in sorted(self.subsidiary.items())
            }
        if self.elements is not None:
            out["witnesses"] = [format_algebra_literal(x) for x in self.elements]
        return out


def clear_caches():
    """Empty the characteristic-two memo of orbits, the memoized chi^-1
    scaling matrices, and the field arithmetic memoized per field: the fold
    matrix and tau's codes. So a computation after it does the same field
    arithmetic as the first. The field tables (engine.field_tables) are
    kept; they are built once per process. An oracle call keeps nothing, so
    it has none to empty."""
    _ORBITS.clear()
    _inverse_scaling.cache_clear()
    fold_matrix.cache_clear()
    _tau_codes.cache_clear()


# --- pointwise operations ------------------------------------------------------

def is_unitary(x: AlgebraElement, inv: GroupInvolution) -> bool:
    """True iff x * x^inv = 1; requires augmentation 1. Runs on the digits
    of x: x^inv permutes its rows, and the product is compared with the
    identity's digits."""
    field, group, one = x.field, x.group, _identity_digits(x.field, x.group)
    if not np.array_equal(_augmentation_digits(field, x.digits), one[0]):
        raise NotNormalized("element has augmentation != 1")
    inv.require_group(group)
    return np.array_equal(digit_product(field, group, x.digits, x.digits.take(inv.sigma, axis=0)), one)


def cayley(x: AlgebraElement) -> AlgebraElement:
    """(1-x)(1+x)^-1; swaps skew-symmetric elements and unitary units.

    No closing product is needed: 1 - x = 2 - (1+x) and 2 is central, so
    (1-x)(1+x)^-1 = 2(1+x)^-1 - (1+x)(1+x)^-1 = 2(1+x)^-1 - 1. In
    characteristic two both sides are 1. The transform runs on digit arrays:
    1 + x, its inverse (by the digit core of AlgebraElement.invert, checked
    from both sides, from the chi(1 + x) that the invertibility check forms)
    and 2 (1+x)^-1 - 1, digitwise mod p."""
    field, group, one = x.field, x.group, _identity_digits(x.field, x.group)
    plus = (one + x.digits) % field.p
    chi = _augmentation_digits(field, plus)
    if not chi.any():
        raise NotInvertible("1+x has augmentation zero")
    require_p_group(group, field)
    inverse = _invert_digits(field, group, plus, chi)
    return AlgebraElement(field, group, 2 * inverse - one)


# --- odd characteristic ---------------------------------------------------------

def unitary_order_odd(group: Group, inv: GroupInvolution, field: FieldSpec) -> int:
    """|F|^((|G| - |G_sigma|)/2), exact."""
    if field.p == 2:
        raise EvenCharacteristic("odd-characteristic formula requested over characteristic 2")
    require_p_group(group, field)
    inv.require_group(group)
    fixed = len(inv.fixed_points())
    if (group.n - fixed) % 2:
        raise _inconsistency(group, field, "|G| - |G_sigma| must be even")
    return field.order ** ((group.n - fixed) // 2)


# --- oracle ----------------------------------------------------------------------

def _inconsistency(group: Group, field: FieldSpec, what: str, row: np.ndarray | None = None,
                   c: int | None = None) -> InternalInconsistency:
    """A failed proved identity, naming the group, the field, c and the element
    at fault (a row of field codes)."""
    where = f"{group.id} over {field.literal()}"
    if c is not None:
        where += f", c = g{c}"
    if row is not None:
        where += f", element {format_algebra_literal(from_codes(field, group, row))}"
    return InternalInconsistency(f"{what} ({where})")


def _subgroup_certificate(ctx: AlgebraContext, uset_keys: np.ndarray, sigma: np.ndarray):
    """Prove the sorted, repeat-free key set S is a subgroup of the unitary
    group: it holds 1, it is closed under multiplication and every member x
    has x x^sigma = 1.

    Multiplicative closure is certified by Dimino's coset walk: the set must
    equal the subgroup generated by greedily chosen members, and every product
    the walk forms is checked for membership. Each new generator g, the least
    member not yet reached, extends the subgroup H reached so far by whole
    right cosets: H g first, then H (r s) for every coset representative r and
    generator s with r s not yet reached, r s becoming a representative. H is
    a group by induction. A reached r s lies in a reached coset H r', so
    H (r s) = H r'; the union of the reached cosets is therefore closed under
    right multiplication by every generator, and being finite and containing 1
    it is <H, g>. So the walk forms about one product per element. A coset H x
    is marked by searching S for its keys sorted, which keeps each binary
    search near the last; the products r s, whose order decides the
    representatives, are searched in product order. Only when a product
    escapes is a coset searched again in product order, so the message names
    the first escaping product the walk formed.

    Once the walk has run, S = <gens>, and the x with x x^sigma = 1 form a
    group: sigma is an anti-automorphism of order two, so (x y)(x y)^sigma =
    x (y y^sigma) x^sigma = 1 for two of them, and the inverse of one is
    x^sigma, a one-sided inverse being two-sided in the finite ring FG, with
    x^sigma (x^sigma)^sigma = x^sigma x = 1. So S is unitary exactly when
    every generator is, and one batched digit_product checks g g^sigma = 1
    on all of them, at most log_p |S|, naming the first that fails."""
    S, group, field = uset_keys, ctx.group, ctx.field
    if not keys_contain(S, ctx.identity[:1].astype(np.uint64))[0]:
        raise _inconsistency(group, field, "unitary set misses the identity", ctx.identity)

    def positions(products: np.ndarray, in_order: bool = False) -> np.ndarray:
        # the positions in S of the products' keys, ascending unless in_order
        keys = ctx.pack(products)
        queries = keys if in_order else np.sort(keys)
        pos = np.minimum(np.searchsorted(S, queries), S.size - 1)
        if not np.array_equal(S[pos], queries):
            escaped = np.flatnonzero(~keys_contain(S, keys))[0]
            raise _inconsistency(group, field, "product of two claimed unitary elements escapes the set",
                                 products[escaped])
        return pos

    known = np.zeros(S.size, dtype=bool)
    known[int(np.searchsorted(S, np.uint64(ctx.identity[0])))] = True
    gens = np.empty((0, ctx.n), dtype=np.uint16)
    while not known.all():
        gpos = int(np.argmin(known))
        H = ctx.unpack(S[known])
        gens = np.concatenate([gens, ctx.unpack(S[gpos:gpos + 1])])
        known[positions(ctx.mul(H, gens[-1:]))] = True
        reps = [gens[-1]]
        for r in reps:  # grows while it is walked
            products = ctx.mul(r[None, :], gens)
            for x, pos in zip(products, positions(products, in_order=True)):
                if not known[pos]:
                    known[positions(ctx.mul(H, x[None, :]))] = True
                    reps.append(x)
    d = digits(gens.astype(np.uint64).ravel(), field.p, field.m).reshape(-1, ctx.n, field.m)
    _require_unitary(ctx, d, sigma, "a generator of the unitary set is not unitary")


def _require_unitary(ctx: AlgebraContext, d: np.ndarray, sigma: np.ndarray, what: str):
    """Check x x^sigma = 1 on every (n, m) digit array x of d in one batched
    digit_product, and refuse the first that fails, naming it."""
    field, group = ctx.field, ctx.group
    norms = digit_product(field, group, d, d[:, sigma])
    failed = np.flatnonzero((norms != _identity_digits(field, group)).any(axis=(1, 2)))
    if failed.size:
        raise _inconsistency(group, field, what, d[failed[0]] @ field.p ** np.arange(field.m))


def _delta_power_basis(group: Group, p: int) -> tuple[np.ndarray, np.ndarray]:
    """An F_p-basis of the augmentation ideal Delta of F_p G adapted to its
    powers Delta > Delta^2 > ..., as (|G| - 1, |G|) int64 coefficient rows
    over F_p, with each row's weight: the k with the row in Delta^k but not
    in Delta^(k+1). The rows of weight at least k are a basis of Delta^k,
    and they come out by weight.

    Dropping the coefficient at 1 is injective on Delta, so each power is
    eliminated on the other n - 1 columns: one reduced echelon form mod p
    per power, Delta's being the g - 1 themselves. The g - 1 over
    generators g of G generate Delta as a right ideal, since
    gh - 1 = (g - 1) h + (h - 1) and g^-1 - 1 = -(g - 1) g^-1. So
    Delta^(k+1) = Delta Delta^k is spanned by the (g - 1) b over those g
    and the rows b of Delta^k's form. Nested spaces have nested pivot
    columns, so the rows of Delta^k's form whose pivot is not a pivot of
    Delta^(k+1)'s are independent modulo Delta^(k+1) and complete its basis
    to one of Delta^k. For a p-group the powers reach 0."""
    n = group.n
    left_div = group.left_division()[_magma_generators(group.table)]
    form, pivots = np.eye(n - 1, dtype=np.int64), list(range(n - 1))
    basis, weights, k = [np.empty((0, n), dtype=np.int64)], [], 1
    while pivots:
        full = np.concatenate([-form.sum(axis=1, keepdims=True) % p, form], axis=1)
        products = full[:, left_div] - full[:, None, :]  # (g - 1) b, as g b is b[left_div[g]]
        form, next_pivots = _echelon_mod_p(products.reshape(-1, n)[:, 1:], p)
        kept = [i for i, col in enumerate(pivots) if col not in next_pivots]
        basis.append(full[kept])
        weights += [k] * len(kept)
        pivots, k = next_pivots, k + 1
    return np.concatenate(basis), np.array(weights, dtype=np.intp)


def _echelon_mod_p(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form of M over F_p, and
    their pivot columns, ascending. Each step takes the first column that
    is nonzero below the rows done, so a zero column costs no step."""
    M, pivots = M % p, []
    for r in range(min(M.shape)):
        columns = M[r:].any(axis=0)
        col = int(columns.argmax())
        if not columns[col]:
            break
        i = r + int(M[r:, col].nonzero()[0][0])
        row = M[i] * pow(int(M[i, col]), -1, p) % p
        M[i] = M[r]
        M = (M - M[:, col, None] * row) % p
        M[r] = row
        pivots.append(col)
    return M[:len(pivots)], pivots


def _normalized_unit_generators(field: FieldSpec, group: Group) -> np.ndarray:
    """The m(|G| - 1) generators 1 + x^a b_j of the normalized units of FG,
    b_j over _delta_power_basis and a < m, as (m(|G| - 1), |G|, m) digit
    arrays, 1 + x^a b_j at row j m + a.

    The normalized units are the group 1 + Delta, Delta the augmentation
    ideal. Let b_1, ..., b_(n-1) be an F_p-basis of Delta(F_p G) adapted to
    its powers (`_delta_power_basis`). The products of k elements g - 1 span
    Delta^k(F_p G) over F_p and Delta^k(FG) over F, so the b_j of weight k
    span Delta^k(FG) over F modulo Delta^(k+1)(FG). Then the 1 + x^a b_j
    generate 1 + Delta. Let u lie in Delta^k. Modulo Delta^(k+1), u is a sum
    of c_(j,a) x^a b_j over the b_j of weight k, with c_(j,a) in F_p, and the
    product P of the (1 + x^a b_j)^(c_(j,a)) is 1 + u, since a product of
    two elements of Delta^k lies in Delta^(2k). So
    P^-1 (1 + u) = 1 + P^-1 (1 + u - P) lies in 1 + Delta^(k+1), and
    Delta^k is 0 for k large, G being a p-group: 1 + u is a product of the
    generators. As the x with x x^sigma = 1 form a group (see
    _subgroup_certificate), 1 + Delta is unitary exactly when every one of
    them is."""
    n, m = group.n, field.m
    basis, _ = _delta_power_basis(group, field.p)
    d = np.zeros((basis.shape[0], m, n, m), dtype=np.int64)
    d[:, np.arange(m), :, np.arange(m)] = basis  # x^a b_j at [j, a]
    d[:, :, 0, 0] += 1
    return d.reshape(-1, n, m) % field.p


def oracle_search_space(group: Group, field: FieldSpec) -> int:
    """q^(|G|-1): the normalized units of FG, every one of which the oracle scans."""
    return field.order ** (group.n - 1)


def _oracle_set(group: Group, inv: GroupInvolution, field: FieldSpec,
                search_cap: int = DEFAULT_SEARCH_CAP,
                max_witnesses: int | None = None) -> tuple[int, np.ndarray]:
    """|V(FG)| and the sorted keys of its first max_witnesses members (all
    by default), scanned and certified afresh on every call; nothing of them
    is kept once the caller drops them.

    In characteristic two, when sigma fixes every index and every g sigma(g)
    is 1 (G elementary abelian under its star), the scan would test nothing:
    x x^sigma is the square of x's augmentation, 1. Then V is all q^(|G|-1)
    normalized units, proved by their generators, and keys are built for the
    witnesses alone: candidates 0, 1, ..., whose keys are the least."""
    require_p_group(group, field)
    inv.require_group(group)
    space = oracle_search_space(group, field)
    if space > search_cap:
        raise SearchSpaceTooLarge(space, search_cap, context=f"oracle over {group.id}")
    require_key_space(field.order ** group.n, "uint64 key packing")
    ctx, sigma = AlgebraContext(field, group), inv.sigma
    if ctx.char2 and np.array_equal(sigma, np.arange(ctx.n)) and not ctx.gtable.diagonal().any():
        _require_unitary(ctx, _normalized_unit_generators(field, group), sigma,
                         "a generator of the normalized units is not unitary")
        shown = space if max_witnesses is None else min(max_witnesses, space)
        return space, ctx.candidate_keys(np.arange(shown, dtype=np.uint64))
    keys = ctx.unitary_keys(sigma)
    _subgroup_certificate(ctx, keys, sigma)
    return int(keys.size), keys[:max_witnesses]


def unitary_enumerate_oracle(group: Group, inv: GroupInvolution, field: FieldSpec, *,
                             search_cap: int = DEFAULT_SEARCH_CAP,
                             max_witnesses: int | None = DEFAULT_MAX_WITNESSES) -> UnitaryResult:
    """Filter every normalized unit by x * x^inv = 1 and certify the result."""
    if max_witnesses is not None and max_witnesses < 0:
        raise ValueError(f"max_witnesses {max_witnesses} is negative")
    order, keys = _oracle_set(group, inv, field, search_cap, max_witnesses)
    space = oracle_search_space(group, field)
    if order > space:
        raise _inconsistency(group, field, "unitary order exceeds the normalized unit count")
    # a key's base-p digits, m to a coefficient, are the element's digit array
    witnesses = tuple(AlgebraElement(field, group, d) for d in
                      digits(keys, field.p, group.n * field.m).reshape(-1, group.n, field.m))
    subsidiary = {
        "search_space": space,
        "witnesses_truncated": max_witnesses is not None and order > max_witnesses,
    }
    return UnitaryResult(group.id, field, inv.name, "oracle", order,
                         theta_from_order(order, field, group), witnesses, subsidiary)


# --- characteristic two: S_H and the recursion -----------------------------------

def _least_central_involution(group: Group) -> int:
    centrals = group.special_sets().central_order_two
    if not centrals:
        raise NoCentralInvolution(f"{group.id} has no central element of order two")
    return centrals[0]


@dataclass(frozen=True, eq=False)
class _Quotient:
    """Gb = G/H for H = <c> and the coordinates of _coset_orbit on it."""

    gbar: Group              # Gb
    reps: np.ndarray         # the least member of each coset {g, gc}, indexed by Gb
    reps_c: np.ndarray       # reps times c
    pairs: np.ndarray        # one h of each pair h != h^-1 of Gb, the lesser
    t_bar: np.ndarray        # Tb, the images of T_c
    over_g2: np.ndarray      # the images of G{2}
    gamma_cols: np.ndarray   # the columns of gamma: pairs, then Tb
    support: np.ndarray      # (k, 4) indices of G under each S_H key field: the pairs, then Tb


def _quotient(group: Group, c: int) -> _Quotient:
    """Gb = G/<c> and the coordinates of _coset_orbit on it. Gb is the one
    Group.quotient of G by {1, c}, whose representatives are the lift's
    section."""
    gbar, _, reps = group.quotient(SubgroupHandle(group, (0, c)))
    table, bstar = np.asarray(group.table, dtype=np.intp), gbar.left_division()[:, 0]
    reps_c, squares = table[reps, c], table[reps, reps]
    pairs = np.flatnonzero(np.arange(gbar.n) < bstar)
    t_bar, over_g2 = np.flatnonzero(squares == c), np.flatnonzero(squares == 0)
    gamma_cols = np.concatenate([pairs, t_bar])
    lifts = np.stack([reps, reps_c, reps[bstar], reps_c[bstar]], axis=1)  # of h and h^-1
    lifts = lifts[gamma_cols]
    lifts.setflags(write=False)  # the orbit hands it out
    return _Quotient(gbar, reps, reps_c, pairs, t_bar, over_g2, gamma_cols, lifts)


@dataclass(eq=False)
class _CosetOrbit:
    """The recursion step over H = <c> for one (G, c, F); the proof is in
    _coset_orbit, and how a record is completed is told here alone.

    `_coset_orbit` stores the record with the quotient, W and the points,
    and walks it at once (`_walk_orbit`) where Tb is not empty, as the
    points are then the orbit's. Where Tb is empty, the one point is 0 and
    S_H = W, so a reader of S_H alone uses the record as stored, and
    neither the orbit of Vb nor the levels below are computed. Each reader
    of the order or the generators calls `_walk_orbit`, which walks the
    record once, filling in the fields from order to schreier_gamma, and
    returns a walked record as it is. `lift` forms the generators of
    V_*(FG) when the level above first reads them. The walk and the lift
    run for the first reader that needs them, so their refusals name that
    reader, not the group that stored the record."""

    ctx: AlgebraContext      # batch arithmetic of FG, shared with the level above
    c: int                   # H = <c>; a refusal of the walk or the lift names it
    quo: _Quotient           # Gb and the coordinates on it
    search_cap: int          # the cap of the record's key, which the walk applies
    points: np.ndarray       # sorted keys of gamma on Tb, one per coset of W in S_H; W is 0
    w_size: int              # |W| = q^(pairs h != h^-1 of Gb)
    order: int | None = None               # |V_*(FG)|, once walked
    vbar_order: int | None = None          # |V_*(F[Gb])|, once walked
    bctx: AlgebraContext | None = None     # that of F[Gb], in which the lift multiplies, once walked
    schreier: np.ndarray | None = None        # the nontrivial Schreier generators S, from the walk until lifted
    schreier_gamma: np.ndarray | None = None  # gamma of their L L* on the pairs and on Tb, likewise
    lifted: tuple[np.ndarray, np.ndarray] | None = None  # the generators and their planes, once lifted

    @property
    def s_h_size(self) -> int:
        """|S_H| = index |W|."""
        return self.points.size * self.w_size

    def lift(self, group: Group) -> tuple[np.ndarray, np.ndarray]:
        """Code rows generating V_*(FG) and their bit-planes: the lifted
        Schreier generators x = L + (1+c) lift(b0 u), then the generators
        1 + (1+c) lift(x^a k) of K (see _coset_orbit). They are formed and
        checked unitary on the first call, which then drops S and gamma; a
        generator that is not unitary is refused naming group, the reader,
        as the record is shared by every group with G's table. The record
        is walked first (see _CosetOrbit)."""
        if self.lifted is None:
            _walk_orbit(self, group)
            ctx, bctx, quo, S = self.ctx, self.bctx, self.quo, self.schreier
            field, nbar = ctx.field, quo.gbar.n
            b0 = np.zeros((S.shape[0], nbar), dtype=np.uint16)
            b0[:, quo.pairs] = self.schreier_gamma[:, :quo.pairs.size]
            eye = np.eye(nbar, dtype=np.uint16)
            sym_basis = (eye | eye[bctx.star])[np.arange(nbar) <= bctx.star]  # g + g^-1 over g <= g^-1
            powers_of_x = np.array([1 << a for a in range(field.m)], dtype=np.uint16)
            k_parts = (powers_of_x[:, None, None] * sym_basis[None, :, :]).reshape(-1, nbar)
            U = np.concatenate([S, np.repeat(bctx.identity[None, :], k_parts.shape[0], axis=0)])
            A = np.concatenate([bctx.mul(b0, S) if b0.any() else b0, k_parts])  # b0 = 0 when Gb has no pairs
            X = np.empty((U.shape[0], ctx.n), dtype=np.uint16)
            X[:, quo.reps] = U ^ A  # U + A: the route is characteristic two
            X[:, quo.reps_c] = A
            Xp = to_planes(X, field.m)
            Xp.setflags(write=False)  # kept for the level above
            differs = ctx.norm_planes(Xp, ctx.star)
            differs[0, 0] ^= row_mask(X.shape[0])  # x x* - 1
            row = first_nonzero_row(differs, X.shape[0])
            if row is not None:
                raise _inconsistency(group, field, "a generator is not unitary", X[row], self.c)
            self.lifted, self.schreier, self.schreier_gamma = (X, Xp), None, None
        return self.lifted

    def elements(self, keys: np.ndarray) -> np.ndarray:
        """The code rows 1 + (1+c) lift(beta) of S_H keys (see _fiber_scan)."""
        support = self.quo.support
        rows = np.zeros((keys.size, self.ctx.n), dtype=np.uint16)
        rows[:, support] = digits(keys, self.ctx.q, support.shape[0])[:, :, None]
        rows[:, 0] = self.ctx.identity[0]
        return rows


# one record per (G's table, c, F, search cap), stored by the first reader;
# when it is walked and lifted is told in _CosetOrbit
_ORBITS: dict[tuple, _CosetOrbit] = {}


def _generating_set(group: Group, field: FieldSpec, search_cap: int
                    ) -> tuple[int, np.ndarray, np.ndarray, AlgebraContext]:
    """|V_*(FG)|, code rows generating it in characteristic two and their
    bit-planes, by the recursion over the least central involution down to
    order 1, and the batch arithmetic of FG that the recursion built."""
    if group.n == 1:
        generators = np.empty((0, 1), dtype=np.uint16)
        return 1, generators, to_planes(generators, field.m), AlgebraContext(field, group)
    orbit = _walk_orbit(_coset_orbit(group, _least_central_involution(group), field, search_cap), group)
    return (orbit.order, *orbit.lift(group), orbit.ctx)


def _coset_orbit(group: Group, c: int, field: FieldSpec, search_cap: int) -> _CosetOrbit:
    """The record of |V_*(FG)|, a generating set of it, and the cosets
    making up S_H, from the orbit of Psi(V) under Vb = V_*(F[Gb]),
    Gb = G/H, H = <c>, where Psi: FG -> F[Gb] and V = V_*(FG). The record
    is walked where Tb is not empty; see _CosetOrbit.

    Proof. Let char F = 2, lift the section supported on the least coset
    representatives, and L = lift(u) for u in Vb. The kernel of Psi is
    (1+c)FG, and (1+c)z depends only on Psi(z), so as u is a unit every x
    over u is x = L + (1+c) lift(b u) for a unique b in F[Gb]. Since c is
    central, (1+c)* = 1+c and (1+c)^2 = 0, while Psi commutes with * and
    u u* = 1; hence

        x x* = L L* + (1+c) lift(u (b u)* + b u u*) = L L* + (1+c) lift(b + b*).

    * Psi(L L*) = u u* = 1, so L L* = 1 + (1+c) lift(gamma) with gamma_h the
      coefficient of L L* at lift(h) c. gamma is symmetric, as L L* is and
      (1+c)g = (1+c)gc. gamma is 0 at every h whose lift lies in G{2}, h = 1
      included: lift(h) c is then in G{2} and not 1, and the coefficient of
      such a g in any y y* is the sum over k of y_gk y_k, whose terms cancel
      in pairs under k -> gk.
    * The fiber over u maps onto the coset L L* + W of
      W = (1+c) lift{b + b*}: the (1+c) lift(beta) with beta symmetric, 0 on
      Gb{2} and free on one h of each pair h != h^-1 of Gb, so |W| is q to
      the number of pairs. Gb{2} is the images of G{2} and Tb, the |T_c|/2
      images of T_c, so the coset is named by gamma on Tb, its point, and
      W itself is point 0. S_H, the union of these cosets, is the
      1 + (1+c) lift(beta) with beta on Tb a point and beta on the pairs
      free: the points times W.
    * x is unitary iff L L* lies in 1 + W, that is the point is 0. Then
      gamma = b0 + b0* for b0 = sum of gamma_g g over g < g^-1, and the
      solutions are b = b0 + k over the symmetric k in F[Gb]. The unitary
      elements over u = 1 form the kernel K of Psi on V, the elementary
      abelian group of the 1 + (1+c) lift(k), |K| = q^((|Gb| + |Gb{2}|)/2).
    * x x* = x' x'* iff x' in x V, so u and u' give one point iff u' in
      u Psi(V). Thus the point of u names the left coset u Psi(V), Vb acts
      on the points by left multiplication, and the orbit of point 0 under
      generators of Vb has index = [Vb : Psi(V)] points.
      Hence |S_H| = index |W| and |V| = |K| |Vb| / index.
    * Where Tb is empty, gamma on Tb has no entries: every u has point 0,
      the orbit is that one point, of index 1, and S_H = W, whose size
      q^((|G| - |G{2}|)/4) meets the paper's bound. So S_H needs no element
      of Vb, and the orbit is walked only for the order and the generators.
    * By Schreier's lemma the t_k* g t_j, for g t_j in t_k Psi(V), generate
      Psi(V) (a unitary element's inverse is its involute). Each lifts to
      the unitary x = L + (1+c) lift(b0 u), and these with the generators
      1 + (1+c) lift(x^a k) of K, over a < m and a basis of the symmetric
      k, generate V. Only the level above reads them, so they are lifted,
      and checked unitary, when it first does (`_CosetOrbit.lift`); the
      orbit keeps the Schreier generators and their gamma until then.

    Psi(L L*) = 1, gamma symmetric and gamma 0 on the images of G{2} are
    checked on every orbit product and every Schreier generator, with L as
    the witness. Every element of S_H is such an L L* (or 1) plus an element
    of W, and W has all three properties, so the checks cover all of S_H."""
    # The table, not the id: an orbit's contents are read for arithmetic, never
    # for a message, and quotients of different groups often have equal tables
    # (26 of 167 calls in a seed-7 char2_recursion pass are served so). Messages
    # name the caller's group: the miss raises its refusals before the store,
    # and the walk and the lift name their reader (see _CosetOrbit).
    cache_key = (group, c, field, search_cap)
    orbit = _ORBITS.get(cache_key)
    if orbit is None:
        group.square_roots(c)  # refuses a c that is not a central involution
        quo = _quotient(group, c)
        w_size = field.order ** quo.pairs.size
        orbit = _CosetOrbit(AlgebraContext(field, group), c, quo, search_cap,
                            np.zeros(1, dtype=np.uint64), w_size)
        if quo.t_bar.size:  # the points are the orbit's
            _walk_orbit(orbit, group)
        _ORBITS[cache_key] = orbit
    return orbit


def _walk_orbit(orbit: _CosetOrbit, group: Group) -> _CosetOrbit:
    """The record, completed: walk the orbit of point 0 under generators of
    Vb, computed by the recursion below, and fill in the points, the orders
    and the Schreier generators (see _coset_orbit). A walked record is
    returned as it is (see _CosetOrbit). Refusals name group, the reader,
    and below it group's quotient, as the record is shared by every group
    with G's table.

    Each round stays in bit-planes. The products P = g t of generators and
    frontier elements come out as planes; L's planes are P's at reps, and
    L L* is formed over L's support alone (`norm_planes`). The three checks
    are XOR/OR reductions over its planes, read on the batch's rows only,
    and only gamma, on the pairs and on Tb, leaves planes. The Schreier
    products t* P reuse P's planes. Construction decides some products, and
    they are not formed:
    - while the frontier is point 0 alone, its element is 1, so P is the
      generators of Vb;
    - a row whose point is 0 has t = 1, so it is its own Schreier generator,
      with the gamma its round computed; a row that became its point's
      transversal element has t* P = t* t = 1, which generates nothing. A
      batch of such rows only, as on every level of index 1, forms no
      Schreier product and no second L L*; any other batch is multiplied
      whole, in one product and one L L*;
    - b0 S is 0 where b0 is, as when Gb has no pairs.
    No check is lost. A row of point 0 was checked as an orbit product, and
    its point, 0, makes it solvable; 1 passes every check. Every other
    Schreier generator is checked in its round, carries the gamma of its
    L L* from there, and its point is tested for 0 at the end.
    A point is gamma on Tb in m-bit fields, m |T_c|/2 bits; one wider than
    63 bits is refused. Each point costs one product per generator of Vb;
    the paper's bound |S_H| <= q^((|G| - |G{2}| + |T_c|)/4) bounds the
    points by q^(|T_c|/2), as |Gb{2}| = (|G{2}| + |T_c|)/2, and that
    product is refused beyond search_cap before any arithmetic here."""
    if orbit.order is not None:
        return orbit
    ctx, c, quo, search_cap = orbit.ctx, orbit.c, orbit.quo, orbit.search_cap
    field, gbar = ctx.field, quo.gbar
    if group.id != ctx.group.id:
        gbar = copy.copy(gbar)  # shares the table and its memos, under the reader's name
        gbar.id = f"{group.id}/{{0,{c}}}"
    vbar_order, vbar_gens, vbar_planes, bctx = _generating_set(gbar, field, search_cap)
    reps, reps_c, pairs, gamma_cols = quo.reps, quo.reps_c, quo.pairs, quo.gamma_cols
    work = field.order ** quo.t_bar.size * vbar_gens.shape[0]
    if work > search_cap:
        raise SearchSpaceTooLarge(work, search_cap, context=f"S_H coset orbit over {group.id}")
    require_key_space(field.order ** quo.t_bar.size, f"S_H coset keys over {group.id}")

    q, m, n, nbar = field.order, field.m, group.n, quo.gbar.n
    powers = np.uint64(q) ** np.arange(quo.t_bar.size, dtype=np.uint64)  # a point holds gamma in m-bit fields
    checks = ("Psi(L L*) is not 1", "gamma of L L* is not symmetric",
              "gamma of L L* is not 0 on the image of G{2}")

    def lift(u):  # the witness L of a row u
        L = np.zeros(n, dtype=np.uint16)
        L[reps] = u
        return L

    def point_of(gamma):  # gamma's columns are pairs, then Tb
        return gamma[:, pairs.size:].astype(np.uint64) @ powers

    def point_keys(Up, U):
        """The points of L L* over the rows u of U, whose planes are Up, and
        gamma on the pairs and on Tb. L's planes are Up at reps, and the
        checks read L L*'s planes, over U's rows only: all three at once,
        one by one only when one fails, for its message and witness."""
        Yp = ctx.norm_planes(Up, ctx.star, reps)
        gp = Yp[reps_c]
        differs = (Yp[reps] ^ gp, gp ^ gp[bctx.star], gp[quo.over_g2])
        differs[0][0, 0] ^= row_mask(U.shape[0])  # 1 on U's rows: 1's code is 1, and reps[0] = 0
        if np.concatenate(differs).any():
            for what, planes in zip(checks, differs):
                row = first_nonzero_row(planes, U.shape[0])
                if row is not None:
                    raise _inconsistency(group, field, what, lift(U[row]), c)
        gamma = from_planes(gp[gamma_cols], U.shape[0])
        return point_of(gamma), gamma

    # Schreier's orbit algorithm: one product batch per round over every
    # (generator, frontier point) pair, in bit-planes. The points stay sorted,
    # each with its row of the transversal, and new ones are merged in; the
    # frontier is the rows a round added. The Schreier generators stay sorted
    # by their bits (row_words: as np.lexsort, column nbar - 1 leads) and
    # repeat-free, each with gamma of its L L* on the pairs and on Tb.
    transversal = bctx.identity[None, :]
    points = np.zeros(1, dtype=np.uint64)
    point_rows = np.zeros(1, dtype=np.intp)  # the transversal row of each point
    frontier = np.zeros(1, dtype=np.intp)
    schreier = np.empty((0, nbar), dtype=np.uint16)
    schreier_gamma = np.empty((0, gamma_cols.size), dtype=np.uint16)
    schreier_words = np.empty((0, -(-nbar * m // 64)), dtype=np.uint64)  # see row_words
    chunk = max(1, DEFAULT_BATCH // max(1, vbar_gens.shape[0]))
    while frontier.size:
        grown = transversal.shape[0]
        for start in range(0, frontier.size, chunk):
            if grown == 1:  # the frontier is point 0, so P is the generators
                P, Pp = vbar_gens, vbar_planes
            else:
                T = transversal[frontier[start:start + chunk]]
                Pp = bctx.plane_product(to_planes(np.repeat(vbar_gens, T.shape[0], axis=0), m),
                                        to_planes(np.tile(T, (vbar_gens.shape[0], 1)), m))
                P = from_planes(Pp, T.shape[0] * vbar_gens.shape[0])
            keys, gamma = point_keys(Pp, P)
            # the Schreier generator t* P of each row, t its point's transversal
            # element: P where t = 1, and 1 where P became t. Unless some row
            # needs the product, R is P without the latter.
            R, R_gamma = P, gamma
            if keys.any():
                distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
                new = ~keys_contain(points, distinct)
                if new.any():
                    rows = np.arange(transversal.shape[0], transversal.shape[0] + int(new.sum()))
                    transversal = np.concatenate([transversal, P[first[new]]])
                    points = np.concatenate([points, distinct[new]])
                    point_rows = np.concatenate([point_rows, rows])
                    by_key = np.argsort(points)
                    points, point_rows = points[by_key], point_rows[by_key]
                owner = point_rows[np.searchsorted(points, distinct)][inverse]
                kept = np.ones(P.shape[0], dtype=bool)
                kept[first[new]] = False
                if owner[kept].any():
                    Rp = bctx.plane_product(to_planes(transversal[owner][:, bctx.star], m), Pp)
                    R = from_planes(Rp, P.shape[0])
                    R_gamma = point_keys(Rp, R)[1]
                else:
                    R, R_gamma = P[kept], gamma[kept]
            W = np.concatenate([schreier_words, row_words(R, m)])
            order = np.lexsort(W.T)
            W = W[order]
            first_of_run = np.ones(W.shape[0], dtype=bool)
            first_of_run[1:] = (W[1:] != W[:-1]).any(axis=1)
            order = order[first_of_run]
            schreier_words = W[first_of_run]
            schreier = np.concatenate([schreier, R])[order]
            schreier_gamma = np.concatenate([schreier_gamma, R_gamma])[order]
        frontier = np.arange(grown, transversal.shape[0])
    index = points.size
    if vbar_order % index:
        raise _inconsistency(group, field, f"the orbit's {index} points do not divide "
                                           f"|Vb| = {vbar_order}", c=c)

    # the nontrivial Schreier generators, each solvable; the orbit lifts them
    # when the level above reads its generators
    nontrivial = ~bctx.is_one(schreier)
    S, gamma = schreier[nontrivial], schreier_gamma[nontrivial]
    bad = np.flatnonzero(point_of(gamma))
    if bad.size:
        raise _inconsistency(group, field, "a Schreier generator is not solvable", lift(S[bad[0]]), c)

    orbit.points, orbit.vbar_order, orbit.bctx = points, vbar_order, bctx
    orbit.schreier, orbit.schreier_gamma = S, gamma
    orbit.order = q ** (nbar - pairs.size) * vbar_order // index
    return orbit


def _fiber_scan(group: Group, c: int, field: FieldSpec, *,
                search_cap: int) -> tuple[_CosetOrbit, np.ndarray]:
    """S_H for H = <c>, the points of the orbit times W (see _coset_orbit);
    where Tb is empty, W itself, and no orbit is walked.

    Returns (the orbit, the sorted S_H keys). The key of
    1 + (1+c) lift(beta) holds beta in m-bit fields: on one h of each pair
    h != h^-1 of Gb, then on Tb, where it is the point. So the keys of S_H
    are each point's key above every key of W, listed in order with no
    arithmetic; orbit.elements turns them into code rows. A key wider than
    63 bits is refused, as is a listing longer than search_cap."""
    orbit = _coset_orbit(group, c, field, search_cap)
    require_key_space(field.order ** orbit.quo.support.shape[0], f"S_H keys over {group.id}")
    if orbit.s_h_size > search_cap:
        raise SearchSpaceTooLarge(orbit.s_h_size, search_cap, context=f"S_H cosets over {group.id}")
    w_keys = np.arange(orbit.w_size, dtype=np.uint64)
    return orbit, (orbit.points[:, None] * np.uint64(orbit.w_size) | w_keys).ravel()


def s_h_enumerate(group: Group, c: int, field: FieldSpec, *,
                  search_cap: int = DEFAULT_SEARCH_CAP,
                  max_samples: int = DEFAULT_MAX_WITNESSES) -> tuple[int, list[AlgebraElement]]:
    """|S_H| for H = <c>, plus sample elements of S_H, the first ones in the
    order of their keys (see _fiber_scan)."""
    if max_samples < 0:
        raise ValueError(f"max_samples {max_samples} is negative")
    if field.p != 2:
        raise OddCharacteristic("S_H enumeration requires characteristic 2")
    require_p_group(group, field)
    orbit, s_h_keys = _fiber_scan(group, c, field, search_cap=search_cap)
    rows = orbit.elements(s_h_keys[:max_samples]).astype(np.uint64)
    samples = [AlgebraElement(field, group, d) for d in
               digits(rows.ravel(), field.p, field.m).reshape(-1, group.n, field.m)]
    return int(s_h_keys.size), samples


def _s_h_bounds(group: Group, c: int, field: FieldSpec
                ) -> tuple[tuple[int, ...], bool, int, Fraction | None]:
    """The paper's bracket of |S_H| for H = <c>: T_c, whether T_c commutes,
    the upper bound q^((|G| - |G{2}| + |T_c|)/4), and the lower bound
    upper / 2^(|T_c|/2), which is proved only when T_c commutes (else None)."""
    t_c = group.square_roots(c)
    commuting = group.is_pairwise_commuting(t_c)
    num = group.n - len(group.special_sets().order_two) + len(t_c)
    if num % 4:
        raise _inconsistency(group, field, "bound exponent is not an integer", c=c)
    upper = field.order ** (num // 4)
    return t_c, commuting, upper, Fraction(upper, 2 ** (len(t_c) // 2)) if commuting else None


def unitary_order_char2(group: Group, field: FieldSpec, *, c: int | None = None,
                        search_cap: int = DEFAULT_SEARCH_CAP) -> UnitaryResult:
    """|V_*(FG)| by the quotient recursion over H = <c>, down to order 1.

    c defaults to the least central involution; choosing another is how
    choice-independence is exercised. Theta is asserted integral here."""
    if field.p != 2:
        raise OddCharacteristic("characteristic-two recursion over an odd field")
    require_p_group(group, field)
    if c is None:
        if group.n == 1:
            return UnitaryResult(group.id, field, "*", "recursive", 1,
                                 theta_from_order(1, field, group))
        c = _least_central_involution(group)
    orbit = _walk_orbit(_coset_orbit(group, c, field, search_cap), group)
    t_c, commuting, upper, lower = _s_h_bounds(group, c, field)
    subsidiary = {
        "c": c,
        "t_c_size": len(t_c),
        "t_c_commuting": commuting,
        "s_h_size": orbit.s_h_size,
        "vbar_order": orbit.vbar_order,
        "s_h_upper_bound": upper,
        "s_h_lower_bound": lower,
    }
    value = theta_from_order(orbit.order, field, group)
    if value.denominator != 1:
        raise _inconsistency(group, field, f"non-integer theta {value}", c=c)
    return UnitaryResult(group.id, field, "*", "recursive", orbit.order, value, subsidiary=subsidiary)


def theta(group: Group, field: FieldSpec, *,
          search_cap: int = DEFAULT_SEARCH_CAP) -> Fraction:
    """|V_*(FG)| / |F|^((|G|+|G{2}|)/2 - 1), asserted integral by unitary_order_char2."""
    return unitary_order_char2(group, field, search_cap=search_cap).theta


# --- N1 / N2 constructions ---------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Measured |S_H| against the proved bracket, with the witness subgroups."""

    group_id: str
    field: FieldSpec
    c: int                   # H = <c>; a lift's refusal names it
    t_c_size: int
    t_c_commuting: bool
    s_h_size: int
    upper_bound: int
    lower_bound: Fraction | None
    n1_size: int
    n2_size: int | None
    n1_inside_s_h: bool
    n2_inside_s_h: bool | None
    product_inside_s_h: bool | None
    generator_identity_ok: bool | None


def _n1_orbits(group: Group, c: int, field: FieldSpec) -> np.ndarray:
    """The orbits {g, g^-1, gc, g^-1 c} over g with g^2 not in <c>, one sorted
    row each, in order of their least member."""
    table = np.asarray(group.table, dtype=np.intp)
    inverse = group.left_division()[:, 0]  # g g^-1 = g_0
    g = np.flatnonzero((table.diagonal() != 0) & (table.diagonal() != c))
    orbits = np.sort(np.stack([g, inverse[g], table[g, c], table[inverse[g], c]], axis=1), axis=1)
    bad = np.flatnonzero((orbits[:, 1:] == orbits[:, :-1]).any(axis=1))
    if bad.size:
        raise _inconsistency(group, field, "orbit of size != 4 outside G{2} and T_c",
                             np.eye(group.n, dtype=np.uint16)[g[bad[0]]], c)
    return orbits[orbits[:, 0] == g]  # each orbit once, from its least member


def bounds_and_constructions(group: Group, c: int, field: FieldSpec, *,
                             search_cap: int = DEFAULT_SEARCH_CAP) -> BoundsReport:
    """Build N1 (and N2 when T_c commutes), verify sizes and containment in S_H.

    N1 is spanned over F by (g + g^-1)(1+c) across the order-4 orbits; N2 by
    g(1+c) over T_c pairs with coefficients from im(tau). When T_c does not
    commute, N2 and the lower bound are reported as skipped, not raised.

    In the coordinates of _coset_orbit an orbit {g, g^-1, gc, g^-1 c} is a
    pair h != h^-1 of Gb, so N1 = 1 + W, with point 0; N2 is the
    1 + (1+c) lift(beta) with beta in im(tau) on Tb and 0 elsewhere, points
    whose fields are all in im(tau); and N1 N2 = N2 + W has N2's points. So
    each containment in S_H is a lookup among the orbit's points, and the
    sizes |N1| = |W| and |N2| = |im tau|^|Tb| hold by construction; they
    are checked against the paper's counts of orbits and of T_c."""
    if field.p != 2:
        raise OddCharacteristic("bound constructions require characteristic 2")
    require_p_group(group, field)
    t_c, commuting, upper, lower = _s_h_bounds(group, c, field)
    orbit = _coset_orbit(group, c, field, search_cap)
    ctx = orbit.ctx

    orbits = _n1_orbits(group, c, field)
    expected_k1 = (group.n - len(group.special_sets().order_two) - len(t_c)) // 4
    if len(orbits) != expected_k1:
        raise _inconsistency(group, field, f"{len(orbits)} orbits, not "
                                           f"(|G|-|G{{2}}|-|T_c|)/4 = {expected_k1}", c=c)
    n1_size = orbit.w_size
    if n1_size != field.order ** expected_k1:
        raise _inconsistency(group, field, f"|N1| = {n1_size} disagrees with "
                                           f"|F|^((|G|-|G{{2}}|-|T_c|)/4)", c=c)
    n1_inside = bool(keys_contain(orbit.points, np.zeros(1, dtype=np.uint64))[0])

    n2_size = n2_inside = product_inside = identity_ok = None
    if commuting:
        in_tau, t_bar = np.zeros(field.order, dtype=bool), orbit.quo.t_bar.size
        in_tau[_tau_codes(field)] = True
        n2_size = int(in_tau.sum()) ** t_bar
        expected_n2 = (field.order // 2) ** (len(t_c) // 2)
        if n2_size != expected_n2:
            raise _inconsistency(group, field, f"|N2| = {n2_size} disagrees with "
                                               f"(|F|/2)^(|T_c|/2) = {expected_n2}", c=c)
        # the points are distinct, so N2's all lie among them iff |N2| of them are in N2
        n2_points = in_tau[digits(orbit.points, field.order, t_bar)].all(axis=1)
        n2_inside = product_inside = int(n2_points.sum()) == n2_size
        t_c = np.array(t_c, dtype=np.intp)
        pair_reps = t_c[t_c < ctx.gtable[t_c, c]]  # g < g^-1 = gc
        identity_ok = pair_reps.size == 0 or _check_generator_identity(ctx, c, pair_reps)

    return BoundsReport(group.id, field, c, len(t_c), commuting, orbit.s_h_size,
                        upper, lower, n1_size, n2_size, n1_inside, n2_inside,
                        product_inside, identity_ok)


@functools.lru_cache(maxsize=None)
def _tau_codes(field: FieldSpec) -> np.ndarray:
    """tau(w) = w + w^2 by field code, over GF(2^m), read-only and built once
    per field. Squaring is additive in characteristic two, so w^2 is the sum
    of x^(2a) over the bits a of w, and row a m + a of the fold matrix holds
    the digits of x^(2a)."""
    m, w = field.m, np.arange(field.order, dtype=np.uint64)
    square = digits(w, 2, m).astype(np.int64) @ fold_matrix(field)[np.arange(m) * (m + 1)] % 2
    tau = (w ^ (square @ (1 << np.arange(m))).astype(np.uint64)).astype(np.uint16)
    tau.setflags(write=False)
    return tau


def _check_generator_identity(ctx: AlgebraContext, c: int, pair_reps: np.ndarray) -> bool:
    """(1 + w g + w g^2)(1 + w g + w g^2)* = 1 + (w + w^2) g (1+c) for g^2 = c,
    on every (g, w) at once: one row per pair, both sides filled in by XOR
    and compared after one batch product."""
    g = np.repeat(np.asarray(pair_reps, dtype=np.intp), ctx.q)
    w = np.tile(np.arange(ctx.q, dtype=np.uint16), len(pair_reps))
    tau, rows = _tau_codes(ctx.field)[w], np.arange(g.size)
    X, R = np.zeros((2, g.size, ctx.n), dtype=np.uint16)
    X[:, 0] = R[:, 0] = ctx.identity[0]
    for Z, at, value in ((X, g, w), (X, ctx.gtable[g, g], w), (R, g, tau), (R, ctx.gtable[g, c], tau)):
        Z[rows, at] ^= value  # one at a time, so coinciding indices add
    m = ctx.field.m
    return bool(np.array_equal(ctx.norm_planes(to_planes(X, m), ctx.star), to_planes(R, m)))


# --- order recovery -----------------------------------------------------------------

def recover_group_order(order_v: int, field: FieldSpec, p: int) -> int:
    """|G| from |V_*(FG)|.

    Odd p: |G| = 2 log_|F|(order) + 1. p = 2: the unique 2-power n with
    |F|^(n/2) <= order <= |F|^(n-1); the lower exponent uses theta >= 1 and
    |G{2}| >= 2, which removes the boundary collision between n and 2n.
    V is a p-group and so is G, so an order that is not a power of p, or an
    odd |G| that is not one, is refused."""
    if field.p != p:
        raise ValueError(f"field characteristic {field.p} != p = {p}")
    if order_v < 1:
        raise ValueError("order must be positive")
    if not is_power_of(order_v, p):
        raise ValueError(f"{order_v} is not a power of p = {p}")
    q = field.order
    if p != 2:
        k = 0
        v = order_v
        while v % q == 0:
            v //= q
            k += 1
        if v != 1:
            raise ValueError(f"{order_v} is not a power of |F| = {q}")
        if not is_power_of(2 * k + 1, p):
            raise ValueError(f"{order_v} gives |G| = {2 * k + 1}, not a power of p = {p}")
        return 2 * k + 1
    if order_v == 1:
        return 1
    candidates = []
    n = 2
    while q ** (n // 2) <= order_v:
        if order_v <= q ** (n - 1):
            candidates.append(n)
        n *= 2
    if len(candidates) > 1:
        raise Ambiguous(candidates)
    if not candidates:
        raise Ambiguous([])
    return candidates[0]
