"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Criteria 1, 2, 3, 5, 6, 7, 8 and 9 are the verify suites thm1, cayley,
prop2, prop1, lemma1, bounds, thm2 and cor1 (`unitary_lab.verify`): each test
runs its suite and fails on any failed check. Criteria 4 and 10 have no suite
of their own and are written out here. Each test prints a single pass/fail line
(visible with `pytest -s`); the stated wall-clock budgets are asserted where
the criterion carries one.
"""

import time

import pytest

from unitary_lab import group_algebra as ga
from unitary_lab import unitary as un
from unitary_lab.finite_field import make_field
from unitary_lab.group_catalog import build, catalog_entries
from unitary_lab.verify import run_suite

GF2 = make_field(2, 1)


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    un.clear_caches()
    yield


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def report_suite(num: int, suite: str, budget_s: float | None):
    """Criterion num holds iff every check of the verify suite passes, within the
    budget when the criterion has one (budget_s None: it has none)."""
    start = time.perf_counter()
    results = run_suite(suite)
    elapsed = time.perf_counter() - start
    failed = [f"{r.name}: expected={r.expected} measured={r.measured}"
              for r in results if not r.passed]
    budget = "" if budget_s is None else f" (< {budget_s:g}s)"
    report(num, not failed and (budget_s is None or elapsed < budget_s),
           f"suite {suite}: {len(results) - len(failed)}/{len(results)} checks passed, "
           f"failed={failed}, {elapsed:.2f}s{budget}")


def test_criterion_1_odd_p_formula():
    report_suite(1, "thm1", budget_s=10.0)


def test_criterion_2_cayley_bijection():
    report_suite(2, "cayley", budget_s=5.0)


def test_criterion_3_prop2_regressions():
    report_suite(3, "prop2", budget_s=60.0)


def test_criterion_4_semidihedral_remark():
    start = time.perf_counter()
    value = un.theta(build("semidihedral:16"), GF2)
    elapsed = time.perf_counter() - start
    report(4, value == 2 and elapsed < 60.0,
           f"theta(semidihedral:16) over GF(2) = {value} (expected 2), "
           f"{elapsed:.2f}s (< 60s)")


def test_criterion_5_prop1_abelian_theta():
    report_suite(5, "prop1", budget_s=None)


def test_criterion_6_lemma1_identity():
    report_suite(6, "lemma1", budget_s=None)


def test_criterion_7_s_h_bounds_and_constructions():
    report_suite(7, "bounds", budget_s=None)


def test_criterion_8_divisibility_and_field_independence():
    report_suite(8, "thm2", budget_s=None)


def test_criterion_9_order_recovery():
    report_suite(9, "cor1", budget_s=None)


def test_criterion_10_oracle_and_s_h_self_consistency():
    # _oracle_set certifies identity membership, multiplicative closure and
    # unitary generators on every run; a run that returns has passed.
    failures = []
    oracle_runs = 0
    for entry in catalog_entries(16, 2):
        group = entry.build()
        un.unitary_enumerate_oracle(group, ga.canonical_star(group), GF2)
        oracle_runs += 1
    # independent scalar-side re-verification on two small oracle sets
    for name, field in (("cyclic:4", GF2), ("dihedral:8", GF2)):
        group = build(name)
        star = ga.canonical_star(group)
        res = un.unitary_enumerate_oracle(group, star, field, max_witnesses=None)
        elems = set(res.elements)
        one = ga.algebra_one(field, group)
        if one not in elems:
            failures.append((name, "identity"))
        for x in elems:
            if x * ga.apply_involution(x, star) != one:
                failures.append((name, "not unitary"))
                break
            if ga.apply_involution(x, star) not in elems:
                failures.append((name, "inverse escapes"))
                break
        if any(x * y not in elems for x in elems for y in elems):
            failures.append((name, "closure"))
    # S_H membership properties, re-verified scalar-side on the samples
    s_h_checked = 0
    for entry in catalog_entries(16, 2):
        group = entry.build()
        star = ga.canonical_star(group)
        order_two = set(group.special_sets().order_two) - {0}
        for c in group.special_sets().central_order_two:
            _, samples = un.s_h_enumerate(group, c, GF2)
            s_h_checked += 1
            for y in samples:
                if ga.apply_involution(y, star) != y:
                    failures.append((entry.name, c, "sample not symmetric"))
                if order_two & set(y.support()):
                    failures.append((entry.name, c, "order-two support"))
    report(10, not failures,
           f"{oracle_runs} oracle sets certified as subgroups (engine-side), 2 "
           f"re-verified scalar-side; S_H samples symmetric with no order-two "
           f"support across {s_h_checked} enumerations; failures={failures}")
