"""The group algebra FG as a finite-dimensional algebra.

Dense coefficient vectors over a FieldSpec, indexed by group elements;
multiplication is the convolution induced by the Cayley table. Sums,
negatives, scalings and products are computed on the coefficient digits with
numpy. Houses the augmentation map, unit
inversion by u^-1 = u^(|G|-1), involutions arising from group
anti-automorphisms, the skew-symmetric space, and the natural map onto
F[G/H] with its lift section and its kernel ideal, whose dimension
|G| - |G/H| follows by rank-nullity since the map is onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

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
    field_elements,
    fold_matrix as _fold_matrix,
    format_element_literal,
    is_power_of,
    parse_element_literal,
)
from .group_core import Group, SubgroupHandle, coset_representatives


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """x = sum of coeffs[g] * g over the group's indexed basis."""

    field: FieldSpec
    group: Group
    coeffs: tuple[FieldElement, ...]

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
        return self._same_algebra(other) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.group, self.coeffs))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return _from_digits(self.field, self.group, (_digit_array(self) + _digit_array(other)) % self.field.p)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return _from_digits(self.field, self.group, (_digit_array(self) - _digit_array(other)) % self.field.p)

    def __neg__(self) -> "AlgebraElement":
        return _from_digits(self.field, self.group, -_digit_array(self) % self.field.p)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = _digit_product(self.field, self.group, _digit_array(self), _digit_array(other))
        return _from_digits(self.field, self.group, out)

    def scale(self, alpha: FieldElement) -> "AlgebraElement":
        if alpha.spec != self.field:
            raise SpecMismatch("scalar from a different field")
        return _from_digits(self.field, self.group, _scale_digits(self.field, _digit_array(self), alpha))

    def augmentation(self) -> FieldElement:
        """chi(x), the sum of the coefficients: a column sum of the digits mod p."""
        return FieldElement(self.field, tuple(_augmentation_digits(self.field, _digit_array(self)).tolist()))

    def is_normalized_unit(self) -> bool:
        return self.augmentation() == self.field.one

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if not c.is_zero())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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

        The whole computation runs on the (n, m) digit array of x: chi(x) is
        its column sum mod p, and only chi(x)^-1 is taken as a FieldElement.
        The powers and the two-sided check (both products compared with the
        identity's digits) use the digit product that __mul__ uses; the two
        scalings by chi(x)^-1 reduce through the same fold matrix.
        FieldElements are built for the result alone.

        Refuses a zero augmentation and algebras whose group is not a p-group
        for p = char(F); the result is checked as a two-sided inverse.
        """
        return _from_digits(self.field, self.group,
                            _invert_digits(self.field, self.group, _digit_array(self)))

    def __repr__(self):
        return f"AlgebraElement({self.field.literal()}, {self.group.id}, {format_algebra_literal(self)!r})"


def _digit_array(x: AlgebraElement) -> np.ndarray:
    """(n, m) int64: row g holds the base-p digits of the coefficient of g."""
    return np.array([c.coeffs for c in x.coeffs], dtype=np.int64)


def _from_digits(field: FieldSpec, group: Group, digits: np.ndarray) -> AlgebraElement:
    """The element whose coefficient of g has the base-p digits in row g; rows
    with equal digits share one FieldElement."""
    rows = list(map(tuple, digits.tolist()))
    made = {row: FieldElement(field, row) for row in set(rows)}
    return AlgebraElement(field, group, tuple(map(made.__getitem__, rows)))


def _invert_digits(field: FieldSpec, group: Group, x: np.ndarray) -> np.ndarray:
    """The inverse of the element with (n, m) digit array x, as a digit array:
    the whole of AlgebraElement.invert, whose docstring gives the proof. The
    element is written as a literal only when the check fails."""
    require_p_group(group, field)
    aug = _augmentation_digits(field, x)
    if not aug.any():
        raise NotAUnit("augmentation is zero")
    aug_inv = FieldElement(field, tuple(aug.tolist())).inverse()
    normalized = _scale_digits(field, x, aug_inv)
    power = normalized  # u^1; for |G| = 1, u is already 1 = u^0
    for bit in bin(group.n - 1)[3:]:
        power = _digit_product(field, group, power, power)
        if bit == "1":
            power = _digit_product(field, group, power, normalized)
    result = _scale_digits(field, power, aug_inv)
    one = _identity_digits(field, group)
    if not (np.array_equal(_digit_product(field, group, result, x), one)
            and np.array_equal(_digit_product(field, group, x, result), one)):
        raise InternalInconsistency(
            f"inverse failed verification multiply ({group.id} over {field.literal()}, "
            f"element {format_algebra_literal(_from_digits(field, group, x))})")
    return result


def _digit_product(field: FieldSpec, group: Group, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product xy on (n, m) digit arrays: out[k] = sum over i of x_i y_j with g_i g_j = g_k.

    One gather lines up y_j under each (i, k), and one matrix product sums the
    digit products over i, giving the unreduced coefficient of x^a x^b for
    every (a, k, b); reducing modulo the field's modulus is linear, so one
    product with the fold matrix and one mod p reduce the whole sum. Every
    entry stays below n m^2 p^3, far inside int64."""
    n, m = group.n, field.m
    terms = x.T @ y[group.left_division()].reshape(n, n * m)  # (a, k b)
    return terms.reshape(m, n, m).transpose(1, 0, 2).reshape(n, m * m) @ _fold_matrix(field) % field.p


def _scale_digits(field: FieldSpec, x: np.ndarray, alpha: FieldElement) -> np.ndarray:
    """alpha x on an (n, m) digit array, each row reduced through the fold matrix."""
    terms = x[:, :, None] * np.array(alpha.coeffs, dtype=np.int64)
    return terms.reshape(len(x), -1) @ _fold_matrix(field) % field.p


def _identity_digits(field: FieldSpec, group: Group) -> np.ndarray:
    """The digit array of 1 = g_0."""
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
    return AlgebraElement(field, group, (field.zero,) * group.n)


def algebra_one(field: FieldSpec, group: Group) -> AlgebraElement:
    return basis_element(field, group, 0)


def basis_element(field: FieldSpec, group: Group, g: int) -> AlgebraElement:
    _check_basis_index(group, g)
    coeffs = [field.zero] * group.n
    coeffs[g] = field.one
    return AlgebraElement(field, group, tuple(coeffs))


def _check_basis_index(group: Group, g: int):
    if not 0 <= g < group.n:
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
    return AlgebraElement(field, group, tuple(out))


def from_codes(field: FieldSpec, group: Group, codes: np.ndarray | Sequence[int]) -> AlgebraElement:
    """The element whose coefficient of g has field code codes[g], as in a batch
    row; the codes index field_elements, one table lookup per row."""
    row, table = np.asarray(codes, dtype=np.int64).tolist(), field_elements(field)
    lo, hi = (min(row), max(row)) if row else (0, 0)
    if lo < 0 or hi >= field.order:
        raise ValueError(f"code {lo if lo < 0 else hi} outside [0, {field.order})")
    return AlgebraElement(field, group, tuple(table[c] for c in row))


# --- involutions arising from the group --------------------------------------

@dataclass(frozen=True, eq=False)
class GroupInvolution:
    """An anti-automorphism of G of order two, as an index permutation."""

    group: Group
    sigma: tuple[int, ...]
    name: str = "sigma"

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(g for g in self.group.elements() if self.sigma[g] == g)

    def require_group(self, group: Group):
        """Refuse a group whose table differs from the one sigma permutes."""
        if not (self.group is group or self.group == group):
            raise SpecMismatch("involution belongs to a different group")

    def __repr__(self):
        return f"GroupInvolution({self.group.id}, {self.name!r})"


def canonical_star(group: Group) -> GroupInvolution:
    """The involution induced by g -> g^-1."""
    sigma = tuple(group.left_division()[:, 0].tolist())  # g^-1 g_0 = g^-1
    return GroupInvolution(group, sigma, name="*")


def involution_from_map(group: Group, sigma: Sequence[int], name: str = "sigma") -> GroupInvolution:
    """Validate that sigma is an order-two anti-automorphism of the group."""
    sig = tuple(int(s) for s in sigma)
    if sorted(sig) != list(group.elements()):
        raise ValueError("sigma is not a permutation of the group indices")
    for g in group.elements():
        if sig[sig[g]] != g:
            raise NotOrderTwo(g)
    for g in group.elements():
        for h in group.elements():
            if sig[group.mul(g, h)] != group.mul(sig[h], sig[g]):
                raise NotAntiAutomorphism((g, h))
    return GroupInvolution(group, sig, name=name)


def apply_involution(x: AlgebraElement, inv: GroupInvolution) -> AlgebraElement:
    """(sum a_g g)^inv = sum a_g sigma(g); coefficient k comes from sigma(k)."""
    inv.require_group(x.group)
    return AlgebraElement(x.field, x.group, tuple(x.coeffs[inv.sigma[k]] for k in range(x.group.n)))


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
    quotient_group, projection = group.quotient(subgroup)
    reps = coset_representatives(projection, quotient_group.n)

    def psi(x: AlgebraElement) -> AlgebraElement:
        if x.group != group or x.field != field:
            raise SpecMismatch("element from a different algebra")
        out = [field.zero] * quotient_group.n
        for g, c in enumerate(x.coeffs):
            if not c.is_zero():
                out[projection[g]] = out[projection[g]] + c
        return AlgebraElement(field, quotient_group, tuple(out))

    def lift(xbar: AlgebraElement) -> AlgebraElement:
        if xbar.group != quotient_group or xbar.field != field:
            raise SpecMismatch("element from a different algebra")
        out = [field.zero] * group.n
        for k, c in enumerate(xbar.coeffs):
            out[reps[k]] = c
        return AlgebraElement(field, group, tuple(out))

    return IdealHandle(field, group, quotient_group, projection, tuple(reps)), psi, lift


# --- literals ("a0*g0 + a1*g1 + ...") ------------------------------------------

def format_algebra_literal(x: AlgebraElement) -> str:
    terms = [f"{format_element_literal(c)}*g{i}" for i, c in enumerate(x.coeffs) if not c.is_zero()]
    return " + ".join(terms) if terms else "0"


def parse_algebra_literal(field: FieldSpec, group: Group, text: str) -> AlgebraElement:
    coeffs = [field.zero] * group.n
    text = text.strip()
    if text == "0":
        return AlgebraElement(field, group, tuple(coeffs))
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
    return AlgebraElement(field, group, tuple(coeffs))
