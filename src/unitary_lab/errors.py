"""Exception types raised across the package.

Every error that carries a witness (a failing index, pair, or triple) stores
it as an attribute so callers and tests can inspect it.
"""

from __future__ import annotations


class UnitaryLabError(Exception):
    """Base class for all package errors."""


# --- finite fields ---------------------------------------------------------

class NonPrime(UnitaryLabError):
    def __init__(self, p):
        self.p = p
        super().__init__(f"{p} is not prime")


class NoModulusFound(UnitaryLabError):
    """No irreducible modulus found; impossible for valid input."""


class DivisionByZero(UnitaryLabError, ZeroDivisionError):
    pass


class FieldMismatch(UnitaryLabError):
    pass


class OddCharacteristic(UnitaryLabError):
    """Operation requires characteristic two."""


class EvenCharacteristic(UnitaryLabError):
    """Operation requires odd characteristic."""


# --- groups -----------------------------------------------------------------

class NoIdentity(UnitaryLabError):
    pass


class NotLatin(UnitaryLabError):
    def __init__(self, kind, index):
        self.kind = kind
        self.index = index
        super().__init__(f"{kind} {index} is not a permutation")


class NotAssociative(UnitaryLabError):
    def __init__(self, i, j, k):
        self.witness = (i, j, k)
        super().__init__(f"(g{i}*g{j})*g{k} != g{i}*(g{j}*g{k})")


class IndexOutOfRange(UnitaryLabError, IndexError):
    pass


class NotCentralInvolution(UnitaryLabError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"element {index} is not a central element of order two")


class NotNormal(UnitaryLabError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subgroup is not normal: conjugation by element {witness} escapes it")


# --- catalog ----------------------------------------------------------------

class UnknownName(UnitaryLabError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown catalog name {name!r}")


class BadParameter(UnitaryLabError, ValueError):
    pass


# --- group algebra ----------------------------------------------------------

class SpecMismatch(UnitaryLabError):
    """Operands live over different fields or groups."""


class NotAUnit(UnitaryLabError):
    """Augmentation is zero, so the element is not invertible."""


class NotAntiAutomorphism(UnitaryLabError):
    def __init__(self, witness):
        self.witness = witness
        g, h = witness
        super().__init__(f"sigma(g{g}*g{h}) != sigma(g{h})*sigma(g{g})")


class NotOrderTwo(UnitaryLabError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"sigma(sigma(g{witness})) != g{witness}")


# --- unitary computations ----------------------------------------------------

class NotPGroupOverField(UnitaryLabError):
    """|G| is not a power of char(F)."""


class NotNormalized(UnitaryLabError):
    """Augmentation is not 1."""


class NotInvertible(UnitaryLabError):
    """1+x has augmentation zero, so the Cayley transform is undefined."""


class SearchSpaceTooLarge(UnitaryLabError):
    def __init__(self, size, cap, context=""):
        self.size = size
        self.cap = cap
        self.context = context
        where = f" ({context})" if context else ""
        super().__init__(f"search space of size {size} exceeds cap {cap}{where}")


class NoCentralInvolution(UnitaryLabError):
    pass


class InternalInconsistency(UnitaryLabError):
    """A proved identity failed; signals a bug, never user error."""


class Ambiguous(UnitaryLabError):
    def __init__(self, candidates):
        self.candidates = list(candidates)
        super().__init__(f"group order not uniquely determined; candidates {self.candidates}")


# --- cli ----------------------------------------------------------------------

class UnknownSuite(UnitaryLabError):
    def __init__(self, name, known):
        self.name = name
        super().__init__(f"unknown suite {name!r}; known suites: {', '.join(sorted(known))}")
