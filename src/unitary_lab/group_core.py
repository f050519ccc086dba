"""Finite groups as validated Cayley tables.

Elements are indices 0..n-1 with the identity fixed at index 0. The
structural queries the order formulas consume (inverses, element orders,
center, solutions of g^2=1, squares, square roots of a central involution,
quotients) all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    NoIdentity,
    NotAssociative,
    NotCentralInvolution,
    NotLatin,
    NotNormal,
)

EXHAUSTIVE_ASSOC_LIMIT = 64


@dataclass(frozen=True)
class SpecialSets:
    """The element sets entering the order formulas, as sorted index tuples.

    order_two is the full solution set of g^2 = 1 (identity included);
    central_order_two is the nonidentity central involutions.
    """

    center: tuple[int, ...]
    order_two: tuple[int, ...]
    squares: tuple[int, ...]
    square_order_two: tuple[int, ...]
    central_order_two: tuple[int, ...]


class Group:
    """An immutable validated Cayley table and its id; construct via validate_group.

    Elements are known by index alone: the id names the group, and nothing
    names its elements."""

    def __init__(self, table: np.ndarray, id: str = ""):
        self.table = table
        self.n = table.shape[0]
        self.id = id or f"group:{self.n}"
        self._left_division: np.ndarray | None = None
        self._orders: list[int] | None = None
        self._special: SpecialSets | None = None
        # equality compares tables, so the hash is of the table alone
        self._hash = hash(np.asarray(table, dtype=np.int64).tobytes())

    def __eq__(self, other):
        if not isinstance(other, Group):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.table, other.table)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Group({self.id!r}, n={self.n})"

    def elements(self) -> range:
        return range(self.n)

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def _bounds(self, g: int):
        if not 0 <= g < self.n:
            raise IndexOutOfRange(f"element index {g} outside [0, {self.n})")

    def inverse(self, g: int) -> int:
        self._bounds(g)
        return int(self.left_division()[g, 0])  # g^-1 g_0 = g^-1

    def left_division(self) -> np.ndarray:
        """(n, n) intp table ldiv with g_i g_ldiv[i, k] = g_k, i.e. g_i^-1 g_k."""
        if self._left_division is None:
            ldiv = np.argsort(self.table, axis=1)  # each row of the table is a permutation
            ldiv.setflags(write=False)
            self._left_division = ldiv
        return self._left_division

    def order_of(self, g: int) -> int:
        self._bounds(g)
        if self._orders is None:
            self._orders = [0] * self.n
        if self._orders[g] == 0:
            k, x = 1, g
            while x != 0:
                x = self.mul(x, g)
                k += 1
            self._orders[g] = k
        return self._orders[g]

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def special_sets(self) -> SpecialSets:
        if self._special is None:
            t = self.table
            sq = t.diagonal()
            order_two = tuple(int(i) for i in np.flatnonzero(sq == 0))
            g2 = set(order_two)  # G{2}
            squares = tuple(sorted(set(int(s) for s in sq)))
            square_order_two = tuple(s for s in squares if s in g2)
            central = tuple(int(g) for g in np.flatnonzero((t == t.T).all(axis=1)))  # row g == column g
            central_order_two = tuple(g for g in central if g != 0 and g in g2)
            self._special = SpecialSets(central, order_two, squares, square_order_two, central_order_two)
        return self._special

    def square_roots(self, c: int) -> tuple[int, ...]:
        """T_c: all g with g^2 = c, for c a nonidentity central involution."""
        self._bounds(c)
        s = self.special_sets()
        if c not in s.central_order_two:
            raise NotCentralInvolution(c)
        rng = np.arange(self.n)
        return tuple(int(i) for i in np.flatnonzero(self.table[rng, rng] == c))

    def is_pairwise_commuting(self, members: Iterable[int]) -> bool:
        ms = list(members)
        return all(self.mul(a, b) == self.mul(b, a) for i, a in enumerate(ms) for b in ms[i + 1:])

    def subgroup_generated(self, gens: Iterable[int]) -> "SubgroupHandle":
        gens = list(gens)
        for g in gens:
            self._bounds(g)
        members = {0}
        frontier = [0]
        gen_set = set(gens) | {self.inverse(g) for g in gens}
        for g in gen_set:
            if g not in members:
                members.add(g)
                frontier.append(g)
        while frontier:
            x = frontier.pop()
            for g in gen_set:
                y = self.mul(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return SubgroupHandle(self, tuple(sorted(members)))

    def quotient(self, sub: "SubgroupHandle") -> tuple["Group", tuple[int, ...]]:
        """Factor group by a normal subgroup, plus the index projection map.

        Coset representatives are the least index in each coset; the quotient
        reuses validate_group, so the result carries full invariants.
        """
        if sub.parent is not self and sub.parent != self:
            raise ValueError("subgroup belongs to a different group")
        t = np.asarray(self.table, dtype=np.intp)
        members = np.array(sub.members, dtype=np.intp)
        in_sub = np.zeros(self.n, dtype=bool)
        in_sub[members] = True
        # conjugates[g, k] = g h_k g^-1; the first g with one outside H is named
        conjugates = t[t[:, members], self.left_division()[:, :1]]
        outside = ~in_sub[conjugates].all(axis=1)
        if outside.any():
            raise NotNormal(int(np.argmax(outside)))
        # g H is the coset of g, and its least member is its representative
        rep_of_element = t[:, members].min(axis=1)
        reps = np.flatnonzero(rep_of_element == np.arange(self.n))
        projection = np.searchsorted(reps, rep_of_element)
        table = projection[t[reps][:, reps]].astype(np.int64)
        quotient_id = f"{self.id}/{{{','.join(map(str, sub.members))}}}"
        return validate_group(table, id=quotient_id), tuple(projection.tolist())


@dataclass(frozen=True, eq=False)
class SubgroupHandle:
    """A subgroup of a parent group, stored as a sorted index tuple."""

    parent: Group
    members: tuple[int, ...]

    def __post_init__(self):
        ms = set(self.members)
        if 0 not in ms:
            raise ValueError("subgroup must contain the identity")
        for a in self.members:
            if self.parent.inverse(a) not in ms:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in self.members:
                if self.parent.mul(a, b) not in ms:
                    raise ValueError(f"subgroup not closed under product at ({a},{b})")

    def __len__(self):
        return len(self.members)


def coset_representatives(projection: Sequence[int], quotient_order: int) -> list[int]:
    """Least-index representative per coset; the lift section used downstream."""
    reps = [-1] * quotient_order
    for g, k in enumerate(projection):
        if reps[k] < 0:
            reps[k] = g
    return reps


def _magma_generators(t: np.ndarray) -> list[int]:
    """Greedy generators of the table under its product alone: each is the least
    index not yet reached, and the reached set is closed under products of its
    members, so neither associativity nor inverses are assumed."""
    n = t.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        a = int(np.argmin(reached))
        gens.append(a)
        reached[a] = True
        fresh = [a]
        while fresh:
            z = fresh.pop()
            members = np.flatnonzero(reached)
            new = np.unique(np.concatenate([t[z, members], t[members, z]]))
            new = new[~reached[new]]
            reached[new] = True
            fresh.extend(int(x) for x in new)
    return gens


def _int64_table(table) -> np.ndarray:
    """The table as int64. Before the cast, refuse every entry that is not an
    integer: a float, a str, a bool, or the row a ragged table nests as an entry."""
    if isinstance(table, np.ndarray) and table.dtype.kind in "iu":
        return table.astype(np.int64, copy=False)
    entries = np.array(table, dtype=object)
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
               for x in entries.flat):
        raise ValueError("table entries must be integers")
    try:
        return entries.astype(np.int64)
    except OverflowError:
        raise ValueError("table entries must be indices < n") from None


def validate_group(table, id: str = "") -> Group:
    """Check integer entries, identity position, Latin property and
    associativity; wrap the table under the id.

    Associativity is checked on every triple up to order 64, and above by
    Light's test over magma generators A: (x a) y = x (a y) for all x, y and
    every a in A. The elements z with (x z) y = x (z y) for all x, y are closed
    under the product, so the test holds for every z once it holds on A
    (Clifford & Preston, The Algebraic Theory of Semigroups, vol. 1, 1961).
    """
    t = _int64_table(table)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("table must be square")
    n = t.shape[0]
    if n == 0:
        raise ValueError("table must be nonempty")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("table entries must be indices < n")
    rng = np.arange(n)
    if not (np.array_equal(t[0, :], rng) and np.array_equal(t[:, 0], rng)):
        raise NoIdentity("index 0 is not a two-sided identity")
    # entries lie in [0, n), so a row or column is a permutation iff sorted it is 0..n-1
    rows_ok = (np.sort(t, axis=1) == rng).all(axis=1)
    columns_ok = (np.sort(t, axis=0) == rng[:, None]).all(axis=0)
    latin = rows_ok & columns_ok
    if not latin.all():
        i = int(np.argmin(latin))  # the least failing index, its row named first
        raise NotLatin("row" if not rows_ok[i] else "column", i)
    if n <= EXHAUSTIVE_ASSOC_LIMIT:
        left = t[t, :]            # left[i,j,k] = (ij)k
        right = t[:, t]           # right[i,j,k] = i(jk)
        if not np.array_equal(left, right):
            i, j, k = np.argwhere(left != right)[0]
            raise NotAssociative(int(i), int(j), int(k))
    else:
        for a in _magma_generators(t):
            left = t[t[:, a], :]  # left[x,y] = (xa)y
            right = t[:, t[a, :]]  # right[x,y] = x(ay)
            if not np.array_equal(left, right):
                x, y = np.argwhere(left != right)[0]
                raise NotAssociative(int(x), a, int(y))
    t = t.copy()
    t.setflags(write=False)
    return Group(t, id=id)
