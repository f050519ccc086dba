"""The group algebra FG as a finite-dimensional algebra.

Dense coefficient vectors over a FieldSpec, indexed by group elements;
multiplication is the convolution induced by the Cayley table. Houses the
augmentation map, unit inversion by truncated Neumann series, involutions
arising from group anti-automorphisms, the skew-symmetric space, and the
natural map onto F[G/H] with its kernel ideal and lift section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import (
    EvenCharacteristic,
    InternalInconsistency,
    NilpotencyCapExceeded,
    NotAntiAutomorphism,
    NotAUnit,
    NotOrderTwo,
    NotPGroupOverField,
    SpecMismatch,
)
from .finite_field import (
    FieldElement,
    FieldSpec,
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

    def _check(self, other: "AlgebraElement"):
        if self.field != other.field or not (self.group is other.group or self.group == other.group):
            raise SpecMismatch("elements live over different algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.field == other.field and self.group == other.group and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.group, self.coeffs))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.field, self.group,
                              tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.field, self.group,
                              tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.field, self.group, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        table = self.group.table
        out = [self.field.zero] * self.group.n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            row = table[i]
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    k = int(row[j])
                    out[k] = out[k] + a * b
        return AlgebraElement(self.field, self.group, tuple(out))

    def scale(self, alpha: FieldElement) -> "AlgebraElement":
        if alpha.spec != self.field:
            raise SpecMismatch("scalar from a different field")
        return AlgebraElement(self.field, self.group, tuple(alpha * c for c in self.coeffs))

    def augmentation(self) -> FieldElement:
        total = self.field.zero
        for c in self.coeffs:
            total = total + c
        return total

    def is_normalized_unit(self) -> bool:
        return self.augmentation() == self.field.one

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if not c.is_zero())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def invert(self) -> "AlgebraElement":
        """Inverse via x = chi(x)(1 + nu) and the terminating series sum (-nu)^k.

        Valid because the augmentation ideal of FG is nilpotent when G is a
        p-group over a field of characteristic p; refuses other algebras.
        """
        require_p_group(self.group, self.field)
        aug = self.augmentation()
        if aug.is_zero():
            raise NotAUnit("augmentation is zero")
        one = algebra_one(self.field, self.group)
        normalized = self.scale(aug.inverse())
        neg_nu = one - normalized
        acc = one
        term = one
        cap = self.group.n * self.field.p
        for _ in range(cap):
            term = term * neg_nu
            if term.is_zero():
                break
            acc = acc + term
        else:
            raise NilpotencyCapExceeded(f"series did not terminate within {cap} steps")
        result = acc.scale(aug.inverse())
        if result * self != one or self * result != one:
            raise InternalInconsistency("inverse failed verification multiply")
        return result

    def __repr__(self):
        return f"AlgebraElement({self.field.literal()}, {self.group.id}, {format_algebra_literal(self)!r})"


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
    coeffs = [field.zero] * group.n
    coeffs[g] = field.one
    return AlgebraElement(field, group, tuple(coeffs))


def from_coeffs(field: FieldSpec, group: Group, coeffs: Iterable) -> AlgebraElement:
    out = []
    for c in coeffs:
        out.append(c if isinstance(c, FieldElement) else field.from_int(int(c)))
    if len(out) != group.n:
        raise ValueError(f"need {group.n} coefficients, got {len(out)}")
    return AlgebraElement(field, group, tuple(out))


# --- involutions arising from the group --------------------------------------

@dataclass(frozen=True, eq=False)
class GroupInvolution:
    """An anti-automorphism of G of order two, as an index permutation."""

    group: Group
    sigma: tuple[int, ...]
    name: str = "sigma"

    def __call__(self, g: int) -> int:
        return self.sigma[g]

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(g for g in self.group.elements() if self.sigma[g] == g)

    def __repr__(self):
        return f"GroupInvolution({self.group.id}, {self.name!r})"


def canonical_star(group: Group) -> GroupInvolution:
    """The involution induced by g -> g^-1."""
    sigma = tuple(group.inverse(g) for g in group.elements())
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
    if not (inv.group is x.group or inv.group == x.group):
        raise SpecMismatch("involution belongs to a different group")
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
    """The kernel ideal of FG -> F[G/H], with a constructive basis.

    Basis vectors are t(1+h) over least-index coset representatives t and
    nonidentity h in H; independence is certified by row reduction."""

    field: FieldSpec
    group: Group
    subgroup: SubgroupHandle
    kernel_basis: tuple[AlgebraElement, ...]
    quotient_group: Group
    projection: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.kernel_basis)

    def unit_coset_order(self) -> int:
        """|I(H)^+| = |F|^dim: the ideal and its unit coset 1+I(H) are equinumerous."""
        return self.field.order ** self.dimension


def _row_rank(rows: list[list[FieldElement]], field: FieldSpec) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if not mat[r][col].is_zero()), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [inv * v for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not mat[r][col].is_zero():
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


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
    basis = []
    for t in reps:
        for h in subgroup.members:
            if h == 0:
                continue
            th = group.mul(t, h)
            coeffs = [field.zero] * group.n
            coeffs[t] = coeffs[t] + field.one
            coeffs[th] = coeffs[th] + field.one
            basis.append(AlgebraElement(field, group, tuple(coeffs)))
    expected_dim = group.n - quotient_group.n
    if len(basis) != expected_dim:
        raise InternalInconsistency("kernel basis count mismatch")
    if basis and _row_rank([list(b.coeffs) for b in basis], field) != expected_dim:
        raise InternalInconsistency("kernel basis is linearly dependent")

    handle = IdealHandle(field, group, subgroup, tuple(basis), quotient_group, projection, tuple(reps))

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

    for b in basis:
        if not psi(b).is_zero():
            raise InternalInconsistency("kernel basis vector survives the projection")
    return handle, psi, lift


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
        if not 0 <= g < group.n:
            raise ValueError(f"basis index {g} outside group of order {group.n}")
        coeffs[g] = coeffs[g] + parse_element_literal(field, lit.strip())
    return AlgebraElement(field, group, tuple(coeffs))
