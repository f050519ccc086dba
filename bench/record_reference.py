"""Record bench/reference.json: the exact answer of every benchmark cell.

    python3 bench/record_reference.py

Answers are computed on the catalog's own labels with the same cell code the
benchmark runs, then cross-checked before anything is written:

* every characteristic-two cell against the exhaustive oracle, and against
  the recursion forced through each central involution c;
* theta against the catalog's published facts where it has one;
* the odd-p formula against the oracle where the oracle is among the cell's
  computations (C9 and C3xC3 over GF(3), C5 over GF(25)); for heisenberg:3
  over GF(3) and cyclic:25 over GF(5) its 3^26 and 5^24 candidates are far
  over the search cap, so those two rest on the formula alone.

Re-record only when a workload's cells change, never to absorb a changed answer.
"""

import json
import sys

import run

run._import_library()

import unitary_lab as ul  # noqa: E402
import workloads  # noqa: E402


def _cross_check(workload, cells, answers):
    problems = []
    if workload in ("oracle_gf8", "char2_recursion"):
        facts = {e.name: e.expected_facts for n in (2, 4, 8, 16) for e in ul.catalog_entries(n, 2)}
        for cell in cells:
            name, literal = cell.name.split("@")
            p, m = map(int, literal.split("^"))
            field = ul.make_field(p, m)
            group = ul.build(name)
            oracle = ul.unitary_enumerate_oracle(group, ul.canonical_star(group), field).order
            forced = {c: ul.unitary_order_char2(group, field, c=c).order
                      for c in group.special_sets().central_order_two}
            got = int(answers[cell.name]["order"])
            if got != oracle or any(v != oracle for v in forced.values()):
                problems.append(f"{cell.name}: recursion {got}, forced {forced}, oracle {oracle}")
            theta = facts[name].get("theta")
            if theta is not None and answers[cell.name]["theta"] != str(theta):
                problems.append(f"{cell.name}: theta {answers[cell.name]['theta']} != catalog {theta}")
    for name, answer in answers.items():
        if "oracle_order" in answer and answer["oracle_order"] != answer["order"]:
            problems.append(f"{name}: formula {answer['order']} != oracle {answer['oracle_order']}")
        for c, report in answer.get("c", {}).items():
            if report["s_h"] != report["s_h_size"]:
                problems.append(f"{name} c={c}: s_h_enumerate and bounds disagree")
    return problems


def main():
    reference = {}
    for workload in workloads.WORKLOADS:
        cells = workloads.make_inputs(workload, 0, 0, catalog_labels=True)
        ul.clear_caches()
        answers = {cell.name: cell.run() for cell in cells}
        problems = _cross_check(workload, cells, answers)
        if problems:
            raise SystemExit("cross-check failed:\n" + "\n".join(problems))
        reference[workload] = answers
        print(f"{workload}: {len(answers)} cells recorded and cross-checked", file=sys.stderr)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
