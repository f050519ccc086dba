"""Named verification suites: each bundles one result's cross-checks at desk scale.

Every check records an expected and a measured value so the CLI can print
them side by side; a suite passes iff every check passes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameter, UnknownSuite
from .finite_field import make_field
from .group_algebra import (
    apply_involution,
    canonical_star,
    involution_from_map,
    skew_symmetric_basis,
)
from .group_catalog import build, catalog_entries
from .unitary import (
    DEFAULT_SEARCH_CAP,
    bounds_and_constructions,
    cayley,
    is_unitary,
    oracle_search_space,
    recover_group_order,
    s_h_enumerate,
    theta,
    unitary_enumerate_oracle,
    unitary_order_char2,
    unitary_order_odd,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    expected: str
    measured: str
    passed: bool


def _check(results, suite, name, expected, measured):
    results.append(CheckResult(suite, name, str(expected), str(measured),
                               str(expected) == str(measured)))


def _swap_inverse_involution(group):
    """On C3 x C3 (mixed-radix a+3b): (a, b) -> (-b, -a); an order-two
    anti-automorphism distinct from the canonical star."""
    sigma = []
    for i in group.elements():
        a, b = i % 3, i // 3
        sigma.append(((-b) % 3) + 3 * ((-a) % 3))
    return involution_from_map(group, sigma, name="swap-inverse")


def suite_thm1() -> list[CheckResult]:
    """Oracle order equals the odd-characteristic formula, canonical and not."""
    results = []
    gf3, gf5 = make_field(3, 1), make_field(5, 1)
    cases = [
        (build("cyclic:3"), gf3, None),
        (build("cyclic:9"), gf3, None),
        (build("elementary_abelian:3:2"), gf3, None),
        (build("cyclic:5"), gf5, None),
    ]
    c33 = build("elementary_abelian:3:2")
    cases.append((c33, gf3, _swap_inverse_involution(c33)))
    c9 = build("cyclic:9")
    cases.append((c9, gf3, involution_from_map(c9, list(c9.elements()), name="identity")))
    for group, f, inv in cases:
        inv = inv if inv is not None else canonical_star(group)
        formula = unitary_order_odd(group, inv, f)
        oracle = unitary_enumerate_oracle(group, inv, f).order
        _check(results, "thm1", f"{group.id}/{f.literal()}/{inv.name}", formula, oracle)
    return results


def suite_cayley(seed: int = 0) -> list[CheckResult]:
    """f(x) = (1-x)(1+x)^-1 is an involutive bijection skew <-> unitary."""
    results = []
    gf3 = make_field(3, 1)
    for name in ("cyclic:3", "cyclic:9", "elementary_abelian:3:2"):
        group = build(name)
        star = canonical_star(group)
        basis = skew_symmetric_basis(group, star, gf3)
        skew = []
        for combo in itertools.product(gf3.elements(), repeat=len(basis)):
            x = basis[0].scale(combo[0])
            for alpha, b in zip(combo[1:], basis[1:]):
                x = x + b.scale(alpha)
            skew.append(x)
        oracle = unitary_enumerate_oracle(group, star, gf3, max_witnesses=None)
        images = [cayley(x) for x in skew]
        ok_forward = all(is_unitary(y, star) for y in images)
        ok_round = all(cayley(y) == x for x, y in zip(skew, images))
        distinct = len(set(images))
        _check(results, "cayley", f"{name} images unitary", True, ok_forward)
        _check(results, "cayley", f"{name} f(f(x)) = x on skew", True, ok_round)
        _check(results, "cayley", f"{name} bijection size", oracle.order, distinct)
        back = [cayley(u) for u in oracle.elements]
        ok_skew = all(apply_involution(y, star) == -y for y in back)
        ok_round2 = all(cayley(y) == u for u, y in zip(oracle.elements, back))
        _check(results, "cayley", f"{name} images skew", True, ok_skew)
        _check(results, "cayley", f"{name} f(f(u)) = u on unitary", True, ok_round2)
    # seeded spot-check on a bigger odd algebra, beyond oracle reach
    rng = random.Random(seed)
    h27 = build("heisenberg:3")
    star = canonical_star(h27)
    basis = skew_symmetric_basis(h27, star, gf3)
    ok = True
    for _ in range(20):
        x = basis[0].scale(gf3.from_int(rng.randrange(3)))
        for b in basis[1:]:
            x = x + b.scale(gf3.from_int(rng.randrange(3)))
        y = cayley(x)
        ok = ok and is_unitary(y, star) and cayley(y) == x
    _check(results, "cayley", "heisenberg:3 sampled f(f(x)) = x", True, ok)
    return results


def suite_lemma1() -> list[CheckResult]:
    """|V(FG)| = |F|^(|G|/2) |V(F[G/H])| / |S_H|, oracle against oracle."""
    results = []
    gf2 = make_field(2, 1)
    for entry in catalog_entries(16, 2):
        group = entry.build()
        star = canonical_star(group)
        full = unitary_enumerate_oracle(group, star, gf2).order
        for c in group.special_sets().central_order_two:
            gbar, _, _ = group.quotient(group.subgroup_generated([c]))
            bar = unitary_enumerate_oracle(gbar, canonical_star(gbar), gf2).order
            s_h, _ = s_h_enumerate(group, c, gf2)
            numerator = gf2.order ** (group.n // 2) * bar
            exact = numerator % s_h == 0
            _check(results, "lemma1", f"{entry.name} c={c} exact division", True, exact)
            _check(results, "lemma1", f"{entry.name} c={c} identity",
                   full, numerator // s_h if exact else "n/a")
    return results


def suite_prop1() -> list[CheckResult]:
    """Theta = |G^2{2}| for abelian 2-groups."""
    results = []
    for field, max_order in ((make_field(2, 1), 16), (make_field(2, 2), 8)):
        for entry in catalog_entries(max_order, 2):
            group = entry.build()
            if not group.is_abelian():
                continue
            expected = len(group.special_sets().square_order_two)
            measured = theta(group, field)
            _check(results, "prop1", f"{entry.name}/{field.literal()}", expected, measured)
    return results


def suite_prop2() -> list[CheckResult]:
    """Theta regression: 1 for dihedral, 4 for generalized quaternion."""
    results = []
    gf2, gf4 = make_field(2, 1), make_field(2, 2)
    cases = [("dihedral:8", gf2, 1), ("dihedral:8", gf4, 1),
             ("quaternion:8", gf2, 4), ("quaternion:8", gf4, 4),
             ("dihedral:16", gf2, 1), ("quaternion:16", gf2, 4)]
    for name, f, expected in cases:
        group = build(name)
        res = unitary_order_char2(group, f)
        _check(results, "prop2", f"{name}/{f.literal()} theta", expected, res.theta)
        if oracle_search_space(group, f) <= DEFAULT_SEARCH_CAP:
            oracle = unitary_enumerate_oracle(group, canonical_star(group), f).order
            _check(results, "prop2", f"{name}/{f.literal()} oracle agrees",
                   res.order, oracle)
    return results


def suite_thm2() -> list[CheckResult]:
    """Divisibility by |F|^((|G|+|G{2}|)/2-1) and field-independence probes."""
    results = []
    gf2 = make_field(2, 1)
    for entry in catalog_entries(16, 2):
        group = entry.build()
        value = theta(group, gf2)
        _check(results, "thm2", f"{entry.name}/2^1 theta integral", True,
               value.denominator == 1 and value >= 1)
    fields = [make_field(2, 1), make_field(2, 2), make_field(2, 3)]
    for entry in catalog_entries(8, 2):
        group = entry.build()
        values = [theta(group, f) for f in fields]
        _check(results, "thm2", f"{entry.name} theta across 2^1,2^2,2^3",
               f"all {values[0]}", f"all {values[0]}" if len(set(values)) == 1 else str(values))
    return results


def suite_cor1() -> list[CheckResult]:
    """|V(FG)| separates group orders, and recovery returns |G|."""
    results = []
    computed: dict[str, list[tuple[str, int, int]]] = {}
    gf2, gf4 = make_field(2, 1), make_field(2, 2)
    for field, max_order in ((gf2, 16), (gf4, 8)):
        rows = []
        for entry in catalog_entries(max_order, 2):
            group = entry.build()
            order = unitary_order_char2(group, field).order
            rows.append((entry.name, group.n, order))
            _check(results, "cor1", f"recover {entry.name}/{field.literal()}",
                   group.n, recover_group_order(order, field, 2))
        computed[field.literal()] = rows
    gf3, gf5 = make_field(3, 1), make_field(5, 1)
    for field, p, max_order in ((gf3, 3, 27), (gf5, 5, 25)):
        rows = []
        for entry in catalog_entries(max_order, p):
            group = entry.build()
            order = unitary_order_odd(group, canonical_star(group), field)
            rows.append((entry.name, group.n, order))
            _check(results, "cor1", f"recover {entry.name}/{field.literal()}",
                   group.n, recover_group_order(order, field, p))
        computed[field.literal()] = rows
    for literal, rows in computed.items():
        collisions = [
            (a, b) for a, b in itertools.combinations(rows, 2)
            if a[1] != b[1] and a[2] == b[2]
        ]
        _check(results, "cor1", f"{literal} distinct orders separate |V|", [], collisions)
    return results


def suite_bounds() -> list[CheckResult]:
    """Measured |S_H| sits in the proved bracket; N1, N2 land inside S_H."""
    results = []
    gf2 = make_field(2, 1)
    for entry in catalog_entries(16, 2):
        group = entry.build()
        for c in group.special_sets().central_order_two:
            rep = bounds_and_constructions(group, c, gf2)
            tag = f"{entry.name} c={c}"
            _check(results, "bounds", f"{tag} upper", True, rep.s_h_size <= rep.upper_bound)
            _check(results, "bounds", f"{tag} N1 in S_H", True, rep.n1_inside_s_h)
            _check(results, "bounds", f"{tag} |N1|",
                   gf2.order ** ((group.n - len(group.special_sets().order_two) - rep.t_c_size) // 4),
                   rep.n1_size)
            if rep.t_c_commuting:
                _check(results, "bounds", f"{tag} lower", True,
                       Fraction(rep.s_h_size) >= rep.lower_bound)
                _check(results, "bounds", f"{tag} |N2|",
                       (gf2.order // 2) ** (rep.t_c_size // 2), rep.n2_size)
                _check(results, "bounds", f"{tag} N2 in S_H", True, rep.n2_inside_s_h)
                _check(results, "bounds", f"{tag} N1xN2 in S_H", True, rep.product_inside_s_h)
                _check(results, "bounds", f"{tag} generator identity", True,
                       rep.generator_identity_ok)
    return results


SUITES = {
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "lemma1": suite_lemma1,
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "cor1": suite_cor1,
    "bounds": suite_bounds,
    "cayley": suite_cayley,
}


def run_suite(name: str, *, seed: int | None = None) -> list[CheckResult]:
    """Run one suite; only cayley draws random elements, so only it takes a seed
    (default 0), and a seed given for any other suite is refused."""
    if name not in SUITES:
        raise UnknownSuite(name, SUITES)
    if seed is None:
        return SUITES[name]()
    if name != "cayley":
        raise BadParameter(f"a seed applies to the cayley suite only, not to {name}")
    return suite_cayley(seed=seed)
