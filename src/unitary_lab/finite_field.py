"""Exact arithmetic in GF(p^m) with an explicit irreducible modulus.

Elements are coefficient vectors over Z/p in little-endian order (index i
holds the coefficient of x^i), kept fully reduced modulo the field's monic
degree-m modulus, so each value has exactly one representation.

Also provides the additive map tau(a) = a + a^2 on characteristic-two
fields, whose image has index two in the additive group.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NoModulusFound,
    NonPrime,
    OddCharacteristic,
)

MAX_EXTENSION_DEGREE = 16

# Conway polynomials (little-endian, leading coefficient included) for the
# small fields where a fixed published choice keeps element encodings stable.
_MODULUS_TABLE = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_power_of(n: int, p: int) -> bool:
    """True iff n = p^k for some k >= 0."""
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


# --- polynomials over Z/p as little-endian int lists ------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    # b must be nonzero; works for non-monic b via leading-coefficient inverse
    a = list(a)
    _poly_trim(a)
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coef = (a[-1] * binv) % p
        q[shift] = coef
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    m = len(poly) - 1
    target = list(poly)
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(target, divisor, p)
            if not rem:
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^m) presented as Z/p[x] modulo a monic irreducible of degree m."""

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise NonPrime(self.p)
        if not 1 <= self.m <= MAX_EXTENSION_DEGREE:
            raise ValueError(f"extension degree {self.m} outside [1, {MAX_EXTENSION_DEGREE}]")
        mod = tuple(int(c) % self.p for c in self.modulus)
        if len(mod) != self.m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        object.__setattr__(self, "modulus", mod)
        if not _poly_is_irreducible(mod, self.p):
            raise ValueError(f"modulus {mod} is reducible over Z/{self.p}")
        # hashed once: a spec keys every per-field cache, at every product
        object.__setattr__(self, "_hash", hash((self.p, self.m, mod)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.p ** self.m

    def element(self, coeffs: Iterable[int]) -> "FieldElement":
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.m:
            raise ValueError(f"coefficient vector longer than {self.m}")
        cs += [0] * (self.m - len(cs))
        return FieldElement(self, tuple(cs))

    def from_int(self, k: int) -> "FieldElement":
        return self.element([k % self.p])

    def from_code(self, code: int) -> "FieldElement":
        """Inverse of FieldElement.code, read from field_elements."""
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} outside [0, {self.order})")
        return field_elements(self)[code]

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.m)

    @property
    def one(self) -> "FieldElement":
        return self.element([1])

    def elements(self) -> Iterator["FieldElement"]:
        return iter(field_elements(self))

    def literal(self) -> str:
        return f"{self.p}^{self.m}"

    def __str__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def field_elements(field: FieldSpec) -> tuple["FieldElement", ...]:
    """Every element of the field, indexed by its code, built once per field.

    itertools.product counts in big-endian digit order, so reversing each
    tuple gives the little-endian digits of codes 0, 1, ..., q - 1."""
    return tuple(FieldElement(field, digits[::-1])
                 for digits in itertools.product(range(field.p), repeat=field.m))


@functools.lru_cache(maxsize=None)
def fold_matrix(field: FieldSpec) -> np.ndarray:
    """(m^2, m) int64: row a m + b holds the digits of x^(a+b) mod the modulus.

    Reducing modulo the modulus is linear, so a product's unreduced digit
    products (row a m + b weighing x^a x^b) reduce through it in one matrix
    product and one mod p. The scalar algebra product and the batch field
    tables both multiply this way."""
    monomials = [field.element([0] * a + [1]) for a in range(field.m)]
    fold = np.array([(xa * xb).coeffs for xa in monomials for xb in monomials], dtype=np.int64)
    fold.setflags(write=False)
    return fold


def make_field(p: int, m: int) -> FieldSpec:
    """GF(p^m) with a deterministic irreducible modulus.

    Fixed table for p in {2,3,5} with m <= 4; otherwise the irreducible
    monic with the smallest little-endian packed coefficient value, found
    by exhaustive search.
    """
    if not is_prime(p):
        raise NonPrime(p)
    if not 1 <= m <= MAX_EXTENSION_DEGREE:
        raise ValueError(f"extension degree {m} outside [1, {MAX_EXTENSION_DEGREE}]")
    table = _MODULUS_TABLE.get((p, m))
    if table is not None:
        return FieldSpec(p, m, table)
    for packed in range(p ** m):
        tail = []
        v = packed
        for _ in range(m):
            v, r = divmod(v, p)
            tail.append(r)
        candidate = tuple(tail) + (1,)
        if _poly_is_irreducible(candidate, p):
            return FieldSpec(p, m, candidate)
    raise NoModulusFound(f"no irreducible of degree {m} over Z/{p}")


@dataclass(frozen=True)
class FieldElement:
    """A fully reduced residue: length-m coefficient vector over Z/p."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _check(self, other: "FieldElement"):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldMismatch(f"{other.spec} != {self.spec}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        prod = _poly_mul(list(self.coeffs), list(other.coeffs), p)
        _, rem = _poly_divmod(prod, list(self.spec.modulus), p)
        rem += [0] * (self.spec.m - len(rem))
        return FieldElement(self.spec, tuple(rem))

    def inverse(self) -> "FieldElement":
        """Extended Euclid in Z/p[x] modulo the field's modulus."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        p = self.spec.p
        r0, r1 = list(self.spec.modulus), _poly_trim(list(self.coeffs))
        t0, t1 = [], [1]
        while r1:
            q, r = _poly_divmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_trim([(a - b) % p for a, b in itertools.zip_longest(t0, _poly_mul(q, t1, p), fillvalue=0)])
        # r0 is a nonzero constant gcd; normalize
        scale = pow(r0[0], p - 2, p)
        out = [(c * scale) % p for c in t0]
        out += [0] * (self.spec.m - len(out))
        return FieldElement(self.spec, tuple(out[: self.spec.m]))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def code(self) -> int:
        """Little-endian base-p packing of the coefficient vector."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.spec.p + c
        return v

    def __str__(self):
        return format_element_literal(self)

    def __repr__(self):
        return f"FieldElement({self.spec.literal()}, {format_element_literal(self)})"


def tau(a: FieldElement) -> FieldElement:
    """The additive map a + a^2; defined on characteristic-two fields only."""
    if a.spec.p != 2:
        raise OddCharacteristic(f"tau requires characteristic 2, got {a.spec.p}")
    return a + a * a


def tau_image(spec: FieldSpec) -> frozenset[FieldElement]:
    """Image of tau: an additive subgroup of index two."""
    if spec.p != 2:
        raise OddCharacteristic(f"tau requires characteristic 2, got {spec.p}")
    return frozenset(tau(a) for a in spec.elements())


# --- literals ("p^m" for fields, digit strings for elements) -----------------

def parse_field_literal(text: str) -> FieldSpec:
    """Parse "p^m" (or a bare prime "p") into a field."""
    text = text.strip()
    if "^" in text:
        p_str, m_str = text.split("^", 1)
    else:
        p_str, m_str = text, "1"
    try:
        p, m = int(p_str), int(m_str)
    except ValueError:
        raise ValueError(f"bad field literal {text!r}; expected 'p^m'") from None
    return make_field(p, m)


def parse_element_literal(spec: FieldSpec, text: str) -> FieldElement:
    """Parse "c0c1...", one digit per coefficient, little-endian; for p > 10
    the coefficients are decimal numbers joined by dots, "c0.c1....". Every
    coefficient is below p."""
    text = text.strip()
    parts = text.split(".") if spec.p > 10 else list(text)
    if not parts or not all(part.isdigit() and int(part) < spec.p for part in parts):
        raise ValueError(f"bad element literal {text!r}")
    return spec.element([int(part) for part in parts])


def format_element_literal(a: FieldElement) -> str:
    return ("." if a.spec.p > 10 else "").join(str(c) for c in a.coeffs)
