"""The group algebra FG as a finite-dimensional algebra.

An element is the (|G|, m) array of its coefficients' base-p digits, one
row per group element; multiplication is the convolution induced by the
Cayley table, formed by `engine.digit_product`, the one product of digit
arrays, which the batch arithmetic of odd characteristic runs too. Sums,
negatives, scalings, products and involutions are numpy operations on that
array, and FieldElements are built only where
coefficients are read or given one at a time: literals, from_coeffs and the
coeffs property. Houses the augmentation map, unit inversion by
u^-1 = u^(|G|-1), involutions arising from group anti-automorphisms, the
skew-symmetric space, and the natural map onto F[G/H] with its lift
section and its kernel ideal, whose dimension |G| - |G/H| follows by
rank-nullity since the map is onto.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .engine import digit_product, digits
from .errors import (
    EvenCharacteristic,
    FieldMismatch,
    InternalInconsistency,
    NotAntiAutomorphism,
    NotAUnit,
    NotOrderTwo,
    NotPGroupOverField,
    SpecMismatch,
)
from .finite_field import (
    FieldElement,
    FieldSpec,
    fold_matrix,
    format_element_literal,
    is_power_of,
    parse_element_literal,
    require_integer,
)
from .group_core import Group, SubgroupHandle, _int64_entries

@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """x = sum over g of x_g g over the group's indexed basis, held as the
    (|G|, m) int64 array whose row g holds the base-p digits of x_g, least
    significant first (the layout of FieldElement.coeffs). The array is
    read-only, and every operation builds its result straight from its
    digit result; FieldElements are built only when coeffs is read."""

    field: FieldSpec
    group: Group
    digits: np.ndarray

    def __post_init__(self):
        # digits are read mod p, and the result is a new array, so no caller's array is frozen;
        # a float or bool array is refused, not truncated
        array = np.asarray(self.digits)
        if array.dtype.kind not in "iu":
            raise ValueError(f"digits of dtype {array.dtype}, not integers")
        array = array.astype(np.int64, copy=False) % self.field.p
        if array.shape != (self.group.n, self.field.m):
            raise ValueError(f"digits of shape {array.shape}, not ({self.group.n}, {self.field.m})")
        array.setflags(write=False)
        object.__setattr__(self, "digits", array)

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, tuple(row)) for row in self.digits.tolist())

    def _same_algebra(self, other: "AlgebraElement") -> bool:
        """Equal fields and equal groups; the group tables are compared only
        when the two are not one object."""
        return self.field == other.field and (self.group is other.group or self.group == other.group)

    def _check(self, other: "AlgebraElement"):
        if not self._same_algebra(other):
            raise SpecMismatch("elements live over different algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._same_algebra(other) and np.array_equal(self.digits, other.digits)

    def __hash__(self):
        return hash((self.field, self.group, self.digits.tobytes()))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.field, self.group, self.digits + other.digits)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.field, self.group, self.digits - other.digits)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.field, self.group, -self.digits)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.field, self.group, digit_product(self.field, self.group, self.digits, other.digits))

    def scale(self, alpha: FieldElement) -> "AlgebraElement":
        if alpha.spec != self.field:
            raise SpecMismatch("scalar from a different field")
        return AlgebraElement(self.field, self.group, self.digits @ _multiplication_matrix(self.field, alpha.coeffs))

    def augmentation(self) -> FieldElement:
        """chi(x), the sum of the coefficients: a column sum of the digits mod p."""
        return FieldElement(self.field, tuple(_augmentation_digits(self.field, self.digits).tolist()))

    def is_normalized_unit(self) -> bool:
        return self.augmentation() == self.field.one

    def support(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.digits.any(axis=1)).tolist())

    def is_zero(self) -> bool:
        return not self.digits.any()

    def invert(self) -> "AlgebraElement":
        """Inverse as chi(x)^-1 u^(|G|-1), where u = x / chi(x) is normalized.

        Write u = 1 + nu with nu in the augmentation ideal D. In characteristic
        p the binomial coefficients C(p, i), 0 < i < p, vanish and nu commutes
        with 1, so (1 + nu)^p = 1 + nu^p and, by induction, (1 + nu)^(p^k) =
        1 + nu^(p^k). When G is a p-group, D is nilpotent (it is the radical
        of the local ring FG), and its powers strictly decrease until they
        vanish: D^(i+1) = D^i != 0 would make every later power equal D^i.
        As dim D = |G| - 1, D^|G| = 0; Jennings (1941) gives the exact
        nilpotency index, which is |G| for cyclic G. With |G| = p^k this gives
        u^|G| = 1 + nu^|G| = 1, so u^-1 = u^(|G|-1), which square-and-multiply
        reaches in at most 2 log2 |G| products.

        The whole computation runs on the digit array of x: chi(x) is its
        column sum mod p, and both scalings by chi(x)^-1 are one product with
        the memoized matrix of multiplication by chi(x)^-1, so a field inverse
        is taken once per field and value of chi. The powers and the
        two-sided check use the digit product that __mul__ uses; the check
        forms both products in one call and compares them with the
        identity's digits.

        Refuses a zero augmentation and algebras whose group is not a p-group
        for p = char(F); the result is checked as a two-sided inverse.
        """
        require_p_group(self.group, self.field)
        chi = _augmentation_digits(self.field, self.digits)
        if not chi.any():
            raise NotAUnit("augmentation is zero")
        return AlgebraElement(self.field, self.group, _invert_digits(self.field, self.group, self.digits, chi))

    def __repr__(self):
        return f"AlgebraElement({self.field.literal()}, {self.group.id}, {format_algebra_literal(self)!r})"


def _invert_digits(field: FieldSpec, group: Group, x: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """The inverse of the element with (n, m) digit array x, as a digit array:
    the arithmetic of AlgebraElement.invert, whose docstring gives the proof.
    chi is x's augmentation digits; the callers form it once and refuse a
    group that is not a p-group and chi = 0, each with its own error. The
    element is written as a literal only when the check fails."""
    aug_inv = _inverse_scaling(field, tuple(chi.tolist()))
    p = field.p
    normalized = x @ aug_inv % p
    power = normalized  # u^1; for |G| = 1, u is already 1 = u^0
    for bit in bin(group.n - 1)[3:]:
        power = digit_product(field, group, power, power)
        if bit == "1":
            power = digit_product(field, group, power, normalized)
    result = power @ aug_inv % p
    pair = np.array((result, x))  # times pair[::-1], the products x^-1 x and x x^-1
    if not (digit_product(field, group, pair, pair[::-1]) == _identity_digits(field, group)).all():
        raise InternalInconsistency(
            f"inverse failed verification multiply ({group.id} over {field.literal()}, "
            f"element {format_algebra_literal(AlgebraElement(field, group, x))})")
    return result


def _multiplication_matrix(field: FieldSpec, alpha: Sequence[int]) -> np.ndarray:
    """(m, m) int64 matrix of multiplication by the element with digits
    alpha: row a holds the digits of x^a alpha, the sum over b of alpha_b
    x^(a+b) read from the fold matrix, so x @ it % p scales every row of a
    digit array x by alpha."""
    m = field.m
    terms = fold_matrix(field).reshape(m, m, m).transpose(0, 2, 1)  # [a, c, b]: digit c of x^(a+b)
    return terms @ np.asarray(alpha, dtype=np.int64) % field.p


@functools.lru_cache(maxsize=1024)
def _inverse_scaling(field: FieldSpec, chi: tuple[int, ...]) -> np.ndarray:
    """The read-only matrix of multiplication by chi^-1, for chi given by its
    digits: memoized by the whole field (its modulus included) and chi, so
    repeated inversions take one field inverse per (field, chi).
    unitary.clear_caches empties it."""
    matrix = _multiplication_matrix(field, FieldElement(field, chi).inverse().coeffs)
    matrix.setflags(write=False)
    return matrix


def _identity_digits(field: FieldSpec, group: Group) -> np.ndarray:
    """The (n, m) digit array of the identity, 1 g_0."""
    one = np.zeros((group.n, field.m), dtype=np.int64)
    one[0, 0] = 1
    return one


def _augmentation_digits(field: FieldSpec, x: np.ndarray) -> np.ndarray:
    """(m,) digits of chi(x), the coefficient sum: addition in GF(p^m) is digitwise mod p."""
    return x.sum(axis=0) % field.p


def require_p_group(group: Group, field: FieldSpec):
    """Refuse a group whose order is not a power of char(F)."""
    if not is_power_of(group.n, field.p):
        raise NotPGroupOverField(
            f"|G|={group.n} for {group.id} is not a power of char(F)={field.p}")


def algebra_zero(field: FieldSpec, group: Group) -> AlgebraElement:
    return AlgebraElement(field, group, np.zeros((group.n, field.m), dtype=np.int64))


def algebra_one(field: FieldSpec, group: Group) -> AlgebraElement:
    return basis_element(field, group, 0)


def basis_element(field: FieldSpec, group: Group, g: int) -> AlgebraElement:
    _check_basis_index(group, g)
    out = np.zeros((group.n, field.m), dtype=np.int64)
    out[g, 0] = 1
    return AlgebraElement(field, group, out)


def _check_basis_index(group: Group, g: int):
    if not 0 <= require_integer(g, "basis index") < group.n:
        raise ValueError(f"basis index {g} outside group of order {group.n}")


def from_coeffs(field: FieldSpec, group: Group, coeffs: Iterable) -> AlgebraElement:
    """Coefficients as FieldElements of `field` or as integers (int or
    np.integer, not bool), read mod p; anything else is refused."""
    out = []
    for c in coeffs:
        if isinstance(c, FieldElement):
            if c.spec != field:
                raise FieldMismatch(f"coefficient from {c.spec} in an algebra over {field}")
            out.append(c)
        elif isinstance(c, (int, np.integer)) and not isinstance(c, bool):
            out.append(field.from_int(int(c)))
        else:
            raise ValueError(f"coefficient {c!r} is neither an integer nor an element of {field}")
    if len(out) != group.n:
        raise ValueError(f"need {group.n} coefficients, got {len(out)}")
    return AlgebraElement(field, group, np.array([c.coeffs for c in out], dtype=np.int64))


def from_codes(field: FieldSpec, group: Group, codes: np.ndarray | Sequence[int]) -> AlgebraElement:
    """The element whose coefficient of g has field code codes[g], as in a batch
    row; the codes become digits by engine.digits, as in the field tables."""
    row = np.asarray(codes, dtype=np.int64)
    if row.size and (row.min() < 0 or row.max() >= field.order):
        raise ValueError(f"code {row.min() if row.min() < 0 else row.max()} outside [0, {field.order})")
    return AlgebraElement(field, group, digits(row.astype(np.uint64), field.p, field.m))


# --- involutions arising from the group --------------------------------------

@dataclass(frozen=True, eq=False)
class GroupInvolution:
    """An anti-automorphism of G of order two. sigma is a read-only intp
    array of indices, as Group.table is: sigma[g] is the index of sigma(g).
    canonical_star and involution_from_map build it; one built otherwise is
    checked for integer entries, its shape and its range, not for being an
    anti-automorphism."""

    group: Group
    sigma: np.ndarray
    name: str = "sigma"

    def __post_init__(self):
        # a read-only intp array is kept, so canonical_star's view shares
        # left_division's memory; anything else is copied, so no caller's
        # array is frozen
        sigma, n = self.sigma, self.group.n
        if not (isinstance(sigma, np.ndarray) and sigma.dtype == np.intp and not sigma.flags.writeable):
            sigma = _int64_entries(sigma, "sigma").astype(np.intp)
            sigma.setflags(write=False)
        if sigma.shape != (n,):
            raise ValueError(f"sigma of shape {sigma.shape}, not ({n},)")
        if sigma.min() < 0 or sigma.max() >= n:
            raise ValueError(f"sigma entry {sigma.min() if sigma.min() < 0 else sigma.max()} outside [0, {n})")
        object.__setattr__(self, "sigma", sigma)

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.sigma == np.arange(self.group.n)).tolist())

    def require_group(self, group: Group):
        """Refuse a group whose table differs from the one sigma permutes."""
        if not (self.group is group or self.group == group):
            raise SpecMismatch("involution belongs to a different group")

    def __repr__(self):
        return f"GroupInvolution({self.group.id}, {self.name!r})"


def canonical_star(group: Group) -> GroupInvolution:
    """The involution induced by g -> g^-1: a view of column 0 of the left
    division table, g^-1 g_0 = g^-1."""
    return GroupInvolution(group, group.left_division()[:, 0], name="*")


def involution_from_map(group: Group, sigma: Sequence[int], name: str = "sigma") -> GroupInvolution:
    """Validate that sigma is an order-two anti-automorphism of the group;
    a refusal names the least witness g, or the least (g, h) in row order."""
    sig = _int64_entries(sigma, "sigma").astype(np.intp)
    if sig.shape != (group.n,) or not np.array_equal(np.sort(sig), np.arange(group.n)):
        raise ValueError("sigma is not a permutation of the group indices")
    wrong = np.flatnonzero(sig[sig] != np.arange(group.n))
    if wrong.size:
        raise NotOrderTwo(int(wrong[0]))
    # row g, column h: sigma(g h) against sigma(h) sigma(g)
    wrong = np.argwhere(sig[group.table] != group.table[np.ix_(sig, sig)].T)
    if wrong.size:
        raise NotAntiAutomorphism(tuple(wrong[0].tolist()))
    sig.setflags(write=False)
    return GroupInvolution(group, sig, name=name)


def apply_involution(x: AlgebraElement, inv: GroupInvolution) -> AlgebraElement:
    """(sum a_g g)^inv = sum a_g sigma(g); coefficient k comes from sigma(k)."""
    inv.require_group(x.group)
    return AlgebraElement(x.field, x.group, x.digits.take(inv.sigma, axis=0))


def skew_symmetric_basis(group: Group, inv: GroupInvolution, field: FieldSpec) -> list[AlgebraElement]:
    """Basis {g - sigma(g)} over the pairs with g != sigma(g); odd characteristic only
    (in characteristic two skew coincides with symmetric)."""
    if field.p == 2:
        raise EvenCharacteristic("skew-symmetric space degenerates in characteristic 2")
    out = []
    for g in group.elements():
        h = inv.sigma[g]
        if g < h:
            out.append(basis_element(field, group, g) - basis_element(field, group, h))
    expected = (group.n - len(inv.fixed_points())) // 2
    if len(out) != expected:
        raise InternalInconsistency("skew basis size mismatch")
    return out


# --- the natural map onto F[G/H] ----------------------------------------------

@dataclass(frozen=True, eq=False)
class IdealHandle:
    """The kernel ideal I(H) of Psi: FG -> F[G/H], known by its dimension.

    Psi is onto, since the lift section gives every element a preimage, so
    rank-nullity gives dim I(H) = |G| - |G/H|; no basis is built."""

    field: FieldSpec
    group: Group
    quotient_group: Group
    projection: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.group.n - self.quotient_group.n

    def unit_coset_order(self) -> int:
        """|I(H)^+| = |F|^dim: the ideal and its unit coset 1+I(H) are equinumerous."""
        return self.field.order ** self.dimension


def ideal_and_quotient(
    group: Group, subgroup: SubgroupHandle, field: FieldSpec
) -> tuple[IdealHandle, Callable[[AlgebraElement], AlgebraElement], Callable[[AlgebraElement], AlgebraElement]]:
    """The kernel ideal I(H), the projection Psi onto F[G/H], and the lift section.

    Psi pushes coefficients through the coset projection (summing collisions);
    lift supports an element of F[G/H] on the least-index representatives, so
    Psi(lift(u)) = u.
    """
    quotient_group, projection, reps = group.quotient(subgroup)

    def psi(x: AlgebraElement) -> AlgebraElement:
        if x.group != group or x.field != field:
            raise SpecMismatch("element from a different algebra")
        out = np.zeros((quotient_group.n, field.m), dtype=np.int64)
        np.add.at(out, projection, x.digits)
        return AlgebraElement(field, quotient_group, out)

    def lift(xbar: AlgebraElement) -> AlgebraElement:
        if xbar.group != quotient_group or xbar.field != field:
            raise SpecMismatch("element from a different algebra")
        out = np.zeros((group.n, field.m), dtype=np.int64)
        out[reps] = xbar.digits
        return AlgebraElement(field, group, out)

    handle = IdealHandle(field, group, quotient_group, tuple(projection.tolist()), tuple(reps.tolist()))
    return handle, psi, lift


# --- literals ("a0*g0 + a1*g1 + ...") ------------------------------------------

def format_algebra_literal(x: AlgebraElement) -> str:
    terms = [f"{format_element_literal(c)}*g{i}" for i, c in enumerate(x.coeffs) if not c.is_zero()]
    return " + ".join(terms) if terms else "0"


def parse_algebra_literal(field: FieldSpec, group: Group, text: str) -> AlgebraElement:
    coeffs = [field.zero] * group.n
    text = text.strip()
    if text == "0":
        return algebra_zero(field, group)
    for term in text.split("+"):
        term = term.strip()
        if "*" not in term:
            raise ValueError(f"bad term {term!r}; expected 'coeffs*gN'")
        lit, gname = term.split("*", 1)
        gname = gname.strip()
        if not gname.startswith("g"):
            raise ValueError(f"bad basis name {gname!r}")
        g = int(gname[1:])
        _check_basis_index(group, g)
        coeffs[g] = coeffs[g] + parse_element_literal(field, lit.strip())
    return from_coeffs(field, group, coeffs)
