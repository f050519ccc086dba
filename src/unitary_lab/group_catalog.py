"""Deterministic constructions of the concrete p-groups under study.

Name grammar (all orders/parameters validated):

    cyclic:n                    C_n
    elementary_abelian:p:k      (C_p)^k
    abelian:p:[k1,k2,...]       C_{p^k1} x C_{p^k2} x ... (or bare k1,k2,...)
    dihedral:2^n   (n >= 3)     <r,s | r^{2^{n-1}}, s^2, srs^-1 = r^-1>
    quaternion:2^n (n >= 3)     <r,s | r^{2^{n-1}}, s^2 = r^{2^{n-2}}, srs^-1 = r^-1>
    semidihedral:16             <r,s | r^8, s^2, srs^-1 = r^3>
    modular:16                  <r,s | r^8, s^2, srs^-1 = r^5>
    heisenberg:p   (p odd)      upper unitriangular 3x3 over Z/p
    product:A*B  (also A×B)     direct product, index = iA*|B| + iB

Element indexing is fixed per family so derived test values are reproducible:
- the 2-generator 2-groups put rotations first: r^i at index i, r^i s at
  index 2^{n-1}+i;
- abelian groups (elementary abelian ones included) are direct products of
  cyclic groups built by `product`, the first factor varying fastest, so
  C_{p^k1} x C_{p^k2} puts (a1, a2) at index a1 + p^k1*a2;
- Heisenberg groups are mixed-radix little-endian in (a, b, c).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .engine import MAX_GATHER_BYTES
from .errors import BadParameter, SearchSpaceTooLarge, UnknownName
from .finite_field import is_power_of, is_prime
from .group_core import Group, validate_group

MAX_SWEEP_ORDER = 64


def _require_table(n: int, name: str) -> None:
    """Refuse the n x n int64 Cayley table of name before it is allocated
    when its n^2 8 bytes pass MAX_GATHER_BYTES, that is n > 8192."""
    size = n * n * np.dtype(np.int64).itemsize
    if size > MAX_GATHER_BYTES:
        raise SearchSpaceTooLarge(size, MAX_GATHER_BYTES, context=f"Cayley table of {name}")


def cyclic(n: int) -> Group:
    if n < 1:
        raise BadParameter(f"cyclic order must be positive, got {n}")
    _require_table(n, f"cyclic:{n}")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return validate_group(table, id=f"cyclic:{n}")


def abelian(p: int, ks: list[int]) -> Group:
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    if not ks or any(k < 1 for k in ks):
        raise BadParameter(f"bad abelian type {ks}")
    # each later factor goes in front, so the first factor varies fastest
    g = cyclic(p ** ks[0])
    for k in ks[1:]:
        g = product(cyclic(p ** k), g)
    return Group(g.table, id=f"abelian:{p}:[{','.join(map(str, ks))}]")


def elementary_abelian(p: int, k: int) -> Group:
    if k < 1:
        raise BadParameter(f"rank must be positive, got {k}")
    g = abelian(p, [1] * k)
    return Group(g.table, id=f"elementary_abelian:{p}:{k}")


def _two_generator_group(order: int, family: str, conj_exp: int, s_square_rot: int) -> Group:
    """Shared table builder: r^i at index i, r^i s at index q+i, q = order/2.

    s r^b s^-1 = r^{conj_exp * b}; s^2 = r^{s_square_rot}.
    """
    _require_table(order, f"{family}:{order}")
    q = order // 2
    a, b = np.arange(q)[:, None], np.arange(q)[None, :]
    rot = (a + b) % q                  # r^a r^b = r^rot, r^a (r^b s) = r^rot s
    conj = (a + conj_exp * b) % q      # (r^a s) r^b = r^conj s, (r^a s)(r^b s) = r^(conj + s_square_rot)
    table = np.block([[rot, q + rot], [q + conj, (conj + s_square_rot) % q]])
    g = validate_group(table, id=f"{family}:{order}")
    # presentation sanity: relations hold in the emitted table
    r, s = 1, q
    s_inv = g.inverse(s)
    conj = g.mul(g.mul(s, r), s_inv)
    assert conj == conj_exp % q, f"{family}:{order} conjugation relation broken"
    assert g.mul(s, s) == s_square_rot % q, f"{family}:{order} s^2 relation broken"
    assert g.order_of(r) == q, f"{family}:{order} rotation order broken"
    return g


def dihedral(order: int) -> Group:
    if order < 8 or not is_power_of(order, 2):
        raise BadParameter(f"dihedral order must be 2^n with n >= 3, got {order}")
    return _two_generator_group(order, "dihedral", conj_exp=-1, s_square_rot=0)


def quaternion(order: int) -> Group:
    if order < 8 or not is_power_of(order, 2):
        raise BadParameter(f"quaternion order must be 2^n with n >= 3, got {order}")
    return _two_generator_group(order, "quaternion", conj_exp=-1, s_square_rot=order // 4)


def semidihedral(order: int) -> Group:
    if order != 16:
        raise BadParameter(f"semidihedral is catalogued at order 16 only, got {order}")
    return _two_generator_group(16, "semidihedral", conj_exp=3, s_square_rot=0)


def modular(order: int) -> Group:
    if order != 16:
        raise BadParameter(f"modular is catalogued at order 16 only, got {order}")
    return _two_generator_group(16, "modular", conj_exp=5, s_square_rot=0)


def heisenberg(p: int) -> Group:
    """Extraspecial group of order p^3 and exponent p, for odd p:
    upper unitriangular 3x3 matrices over Z/p, encoded (a,b,c) -> a + p*b + p^2*c."""
    if not is_prime(p) or p == 2:
        raise BadParameter(f"heisenberg requires an odd prime, got {p}")
    _require_table(p ** 3, f"heisenberg:{p}")
    i = np.arange(p ** 3)
    a, b, c = i % p, i // p % p, i // (p * p)
    table = ((a[:, None] + a) % p + p * ((b[:, None] + b) % p)
             + p * p * ((c[:, None] + c + a[:, None] * b) % p))
    return validate_group(table, id=f"heisenberg:{p}")


def product(a: Group, b: Group) -> Group:
    n = a.n * b.n
    _require_table(n, f"product:{a.id}*{b.id}")
    ia, ib = np.divmod(np.arange(n), b.n)
    table = a.table[ia[:, None], ia] * b.n + b.table[ib[:, None], ib]
    return validate_group(table, id=f"product:{a.id}*{b.id}")


# one or more comma-separated integers, in brackets or bare: ] is read iff [ was
_ABELIAN_RE = re.compile(r"^abelian:(\d+):(\[)?(\d+(?:,\d+)*)(?(2)\])$")


def build(name: str) -> Group:
    """Build a catalog group from its name; see the module docstring grammar."""
    name = name.strip()
    if name.startswith("product:"):
        body = name[len("product:"):]
        sep = "×" if "×" in body else "*"
        if sep not in body:
            raise BadParameter(f"product name needs 'A{sep}B', got {name!r}")
        left, right = body.split(sep, 1)
        return product(build(left), build(right))
    m = _ABELIAN_RE.match(name)
    if m:
        p = int(m.group(1))
        ks = [int(x) for x in m.group(3).split(",")]
        return abelian(p, ks)
    parts = name.split(":")
    family, args = parts[0], parts[1:]
    try:
        if family == "cyclic" and len(args) == 1:
            return cyclic(int(args[0]))
        if family == "elementary_abelian" and len(args) == 2:
            return elementary_abelian(int(args[0]), int(args[1]))
        if family == "dihedral" and len(args) == 1:
            return dihedral(int(args[0]))
        if family == "quaternion" and len(args) == 1:
            return quaternion(int(args[0]))
        if family == "semidihedral" and len(args) == 1:
            return semidihedral(int(args[0]))
        if family == "modular" and len(args) == 1:
            return modular(int(args[0]))
        if family == "heisenberg" and len(args) == 1:
            return heisenberg(int(args[0]))
    except ValueError as exc:
        raise BadParameter(f"bad parameter in {name!r}: {exc}") from None
    raise UnknownName(name)


@dataclass(frozen=True)
class CatalogEntry:
    """A named construction plus the externally known values used as regressions."""

    name: str
    order: int
    expected_facts: dict = field(default_factory=dict, hash=False)  # compared, not hashed

    def build(self) -> Group:
        return build(self.name)


def _partitions(total: int):
    """Nondecreasing integer partitions of total."""
    def rec(remaining, minimum):
        if remaining == 0:
            yield []
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield [first] + rest
    yield from rec(total, 1)


def _abelian_name(p: int, ks: list[int]) -> str:
    if len(ks) == 1:
        return f"cyclic:{p ** ks[0]}"
    if all(k == 1 for k in ks):
        return f"elementary_abelian:{p}:{len(ks)}"
    return f"abelian:{p}:[{','.join(map(str, ks))}]"


def catalog_entries(max_order: int, p: int) -> list[CatalogEntry]:
    """All catalog entries of characteristic p with order <= max_order."""
    if not is_prime(p):
        raise BadParameter(f"{p} is not prime")
    if max_order > MAX_SWEEP_ORDER:
        raise BadParameter(f"sweep is capped at order {MAX_SWEEP_ORDER}")
    if not is_power_of(max_order, p):
        raise BadParameter(f"max_order {max_order} is not a power of {p}")
    entries: dict[str, CatalogEntry] = {}

    def record(name, order, **facts):
        entries.setdefault(name, CatalogEntry(name, order, dict(facts)))

    e, power = 1, p
    while power <= max_order:
        for ks in _partitions(e):
            name = _abelian_name(p, ks)
            if p == 2:
                g2 = 2 ** len(ks)
                theta = 2 ** sum(1 for k in ks if k >= 2)  # |G^2{2}|: one involution per C_{p^k} with k >= 2
                record(name, power, order_two=g2, theta=theta)
            else:
                record(name, power, order_two=1)
        e += 1
        power *= p
    if p == 2:
        order = 8
        while order <= max_order:
            n_exp = order.bit_length() - 1
            record(f"dihedral:{order}", order, order_two=2 ** (n_exp - 1) + 2, theta=1)
            record(f"quaternion:{order}", order, order_two=2, theta=4)
            order *= 2
        if max_order >= 16:
            record("semidihedral:16", 16, order_two=6, theta=2)
            record("modular:16", 16, order_two=4)
    else:
        if p ** 3 <= max_order:
            record(f"heisenberg:{p}", p ** 3, order_two=1)
    return sorted(entries.values(), key=lambda entry: (entry.order, entry.name))


def sweep(max_order: int, p: int) -> list[Group]:
    """Build every catalog group of characteristic p with order <= max_order."""
    return [entry.build() for entry in catalog_entries(max_order, p)]
