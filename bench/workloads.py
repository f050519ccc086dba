"""The benchmark's workloads: seeded inputs, the cells a pass runs, and their answers.

A cell is one (group, field) pair with all its computations. Every group
reaches the library only as a relabeled Cayley table: the seed draws a
permutation of the non-identity indices, the table is rebuilt through
`validate_group`, and central involutions are mapped through the same
permutation. Each cell returns its answers as a dict of label-independent
values (orders and theta as decimal strings, BoundsReport fields keyed by the
catalog index of c), which `reference.json` holds exactly.

The library is reached through the package namespace at call time
(`ul.unitary_order_char2(...)`), so wrappers the tracer installs there apply.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

import unitary_lab as ul
from unitary_lab import engine

WORKLOADS = ("oracle_gf8", "char2_recursion", "odd_cayley")

# D8 over GF(8) is left out: its certificate walk costs 5 s to 10.5 s depending
# on the labeling, which no run of a few passes can average out (see README).
ORACLE_GF8_GROUPS = ("abelian:2:[1,2]", "quaternion:8", "elementary_abelian:2:3")

# odd_cayley: (group, (p, m), run the oracle, Cayley round trip over every
# unitary element, number of seeded random skew-symmetric elements)
_ODD_CELLS = (
    ("cyclic:9", (3, 1), True, True, 0),
    ("elementary_abelian:3:2", (3, 1), True, True, 0),
    ("cyclic:5", (5, 2), True, False, 0),
    ("heisenberg:3", (3, 1), False, False, 40),
    ("cyclic:25", (5, 1), False, False, 40),
)


@dataclass(frozen=True)
class Cell:
    name: str                    # "<catalog name>@<p^m>", the key in reference.json
    run: Callable[[], dict]      # computes the cell's answers


def cell_name(group_name: str, field) -> str:
    return f"{group_name}@{field.literal()}"


def relabel(group, rng):
    """The group on randomly permuted non-identity indices, plus the permutation.

    Element i of `group` becomes perm[i] of the result; rng=None keeps the
    catalog labels (the table is still rebuilt through validate_group)."""
    rest = np.arange(1, group.n) if rng is None else 1 + rng.permutation(group.n - 1)
    perm = np.concatenate(([0], rest))
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return ul.validate_group(table, id=group.id), perm


def _plain(value):
    """A BoundsReport field as stored in reference.json."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    raise TypeError(f"unexpected report value {value!r}")


def _order_answer(result) -> dict:
    return {"order": str(result.order), "theta": str(result.theta)}


def _oracle_cell(group, field) -> dict:
    return _order_answer(ul.unitary_enumerate_oracle(group, ul.canonical_star(group), field))


def _char2_cell(group, field, involutions) -> dict:
    """|V| by the recursion with automatic c; over GF(2) also S_H and the
    N1/N2 report for every central involution c (keyed by catalog index)."""
    answer = _order_answer(ul.unitary_order_char2(group, field))
    if involutions:
        per_c = {}
        for catalog_c, c in involutions:
            s_h, _ = ul.s_h_enumerate(group, c, field)
            report = ul.bounds_and_constructions(group, c, field)
            fields = {f.name: _plain(getattr(report, f.name))
                      for f in dataclasses.fields(report)
                      if f.name not in ("group_id", "field", "c")}
            per_c[str(catalog_c)] = {"s_h": str(s_h), **fields}
        answer["c"] = per_c
    return answer


def _odd_cell(group, field, with_oracle, unit_round_trips, skew) -> dict:
    """The odd-p formula, optionally against the oracle, plus Cayley round trips.

    A unitary u must map to a skew-symmetric f(u) with f(f(u)) = u; a
    skew-symmetric x must map to a unitary f(x) with f(f(x)) = x. The answer
    counts the round trips that held, so any failure changes it."""
    star = ul.canonical_star(group)
    answer = {"order": str(ul.unitary_order_odd(group, star, field))}
    trips = 0
    if with_oracle:
        result = ul.unitary_enumerate_oracle(
            group, star, field, max_witnesses=None if unit_round_trips else 0)
        answer["oracle_order"] = str(result.order)
        if unit_round_trips:
            for u in result.elements:
                y = ul.cayley(u)
                trips += ul.apply_involution(y, star) == -y and ul.cayley(y) == u
    for x in skew:
        y = ul.cayley(x)
        trips += ul.is_unitary(y, star) and ul.cayley(y) == x
    if unit_round_trips or skew:
        answer["cayley_round_trips"] = str(trips)
    return answer


def _random_skew(group, field, rng, count):
    """`count` skew-symmetric elements: a at g and -a at g^-1 for each pair g != g^-1."""
    pairs = [(g, group.inverse(g)) for g in range(group.n) if g < group.inverse(g)]
    out = []
    for _ in range(count):
        coeffs = [field.zero] * group.n
        for (g, h), code in zip(pairs, rng.integers(0, field.order, size=len(pairs))):
            a = field.from_code(int(code))
            coeffs[g], coeffs[h] = a, -a
        out.append(ul.from_coeffs(field, group, coeffs))
    return out


def make_inputs(workload: str, seed: int, pass_index: int, *, catalog_labels: bool = False) -> list[Cell]:
    """Set-up for one pass: fields, catalog builds, relabeled tables, field tables.

    Pass k of seed s draws from rng([s, k]), so a run sees a fresh labeling per
    pass and the same seed always yields the same inputs. catalog_labels keeps
    the catalog's own labels (used to record the reference)."""
    rng = np.random.default_rng([seed, pass_index])
    fields = {}

    def prepare(name, p, m):
        field = fields.get((p, m))
        if field is None:
            field = fields[(p, m)] = ul.make_field(p, m)
            engine.field_tables(field)  # the per-process tables every batch kernel uses
        catalog_group = ul.build(name)
        group, perm = relabel(catalog_group, None if catalog_labels else rng)
        return catalog_group, group, perm, field

    cells = []
    if workload == "oracle_gf8":
        for name in ORACLE_GF8_GROUPS:
            _, group, _, field = prepare(name, 2, 3)
            cells.append(Cell(cell_name(name, field), partial(_oracle_cell, group, field)))
    elif workload == "char2_recursion":
        for (p, m), max_order in (((2, 1), 16), ((2, 2), 8)):
            for entry in ul.catalog_entries(max_order, 2):
                catalog_group, group, perm, field = prepare(entry.name, p, m)
                involutions = ([(c, int(perm[c])) for c in catalog_group.special_sets().central_order_two]
                               if field.order == 2 else [])
                cells.append(Cell(cell_name(entry.name, field),
                                  partial(_char2_cell, group, field, involutions)))
    elif workload == "odd_cayley":
        for name, (p, m), with_oracle, units, n_skew in _ODD_CELLS:
            _, group, _, field = prepare(name, p, m)
            skew = _random_skew(group, field, rng, n_skew)
            cells.append(Cell(cell_name(name, field),
                              partial(_odd_cell, group, field, with_oracle, units, skew)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return cells
