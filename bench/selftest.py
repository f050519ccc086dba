"""Self-test of the benchmark itself: answer checking, self time and tracing.

    python3 bench/selftest.py

Runs on a handful of cheap cells and takes well under a minute. It checks
that a corrupted reference value, a raising cell and a refused cell are each
reported as a failed cell; that self times are right on a synthetic span tree;
that two seeds relabel differently yet give identical answers; that tracing
wraps names imported into other modules, repeats its exact counts across
traced passes of one seed, and leaves no wrapper behind; and that host-speed
scaling is right on synthetic probes and sees probes in a real pass.
"""

import copy
import json
import sys

import hostspeed
import run

run._import_library()

import unitary_lab as ul  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from unitary_lab.errors import SearchSpaceTooLarge  # noqa: E402

REFERENCE = json.loads((run.BENCH / "reference.json").read_text())
CHEAP = {
    "char2_recursion": {"cyclic:4@2^1", "elementary_abelian:2:2@2^1", "dihedral:8@2^1",
                        "quaternion:8@2^1", "cyclic:4@2^2"},
    "odd_cayley": {"cyclic:9@3^1", "cyclic:5@5^2"},
}


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def cheap_cells(workload, seed):
    return [c for c in workloads.make_inputs(workload, seed, 0) if c.name in CHEAP[workload]]


def test_failed_cells_are_counted():
    reference = copy.deepcopy(REFERENCE["char2_recursion"])
    answer = reference["dihedral:8@2^1"]
    answer["order"] = str(int(answer["order"]) + 1)
    tally = run.Tally()
    run.run_pass(cheap_cells("char2_recursion", 1), reference, tally)
    check(tally.attempted == 5 and len(tally.failures) == 1
          and tally.failures[0].startswith("dihedral:8@2^1:"),
          "a corrupted reference value fails exactly its cell")

    def raises():
        raise ValueError("boom")

    def refuses():
        raise SearchSpaceTooLarge(2 ** 40, 2 ** 24, context="selftest")

    tally = run.Tally()
    run.run_pass([workloads.Cell("raises", raises), workloads.Cell("refuses", refuses)], {}, tally)
    check(len(tally.failures) == 2 and tally.refused == 1,
          "a raising cell and a refused cell each fail, and the refusal is counted")


def test_self_time_arithmetic():
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = Clock()
    tracer = tracing.Tracer(clock=clock)

    def advance(seconds):
        clock.now += seconds

    leaf = tracer.wrap("leaf", lambda: advance(1.0), keep=False)

    def a_body():
        advance(1.0)
        leaf()
        advance(1.0)

    a = tracer.wrap("a", a_body)
    b = tracer.wrap("b", lambda: advance(4.0))

    def root_body():
        advance(1.0)
        a()
        advance(1.0)
        b()
        advance(2.0)

    tracer.wrap("root", root_body)()
    self_s = {name: s for name, (calls, s) in tracer.stats.items()}
    check(self_s == {"leaf": 1.0, "a": 2.0, "b": 4.0, "root": 4.0},
          f"self time = duration minus child spans on a synthetic tree {self_s}")
    spans = {name: (span_id, start, end, parent) for span_id, name, start, end, parent in tracer.spans}
    root_id = spans["root"][0]
    check(spans["root"][1:] == (0.0, 11.0, -1) and spans["a"][1:] == (1.0, 4.0, root_id)
          and spans["b"][1:] == (5.0, 9.0, root_id) and "leaf" not in spans,
          "spans record start, end and parent; leaves kept as counts only are not listed")


def test_host_speed_scaling():
    sampler = hostspeed.Sampler()
    ref = hostspeed.PROBE_REF_S
    # ten probes in [0, 10), each 2*ref long with a handler of 0.01 s; two in [10, 20)
    sampler.starts = [float(t) for t in range(10)] + [12.0, 15.0]
    sampler.probe_s = [2 * ref] * 10 + [ref] * 2
    sampler.handler_s = [0.01] * 12
    check(abs(sampler.scaled(0.0, 10.0) - (10.0 - 0.1) / 2) < 1e-12,
          "a window at half the reference speed scales its time, less handler time, by 1/2")
    check(abs(sampler.scaled(10.0, 20.0, enclosing=(0.0, 20.0)) - (10.0 - 0.02) / (22 / 12)) < 1e-12,
          "a window with too few probes takes its speed from the enclosing window")
    cells = cheap_cells("odd_cayley", 1)
    with hostspeed.Sampler() as speed:
        wall, cell_times, raw = run.run_pass(cells, REFERENCE["odd_cayley"], run.Tally(), speed)
    check(len(speed.probe_s) >= hostspeed.MIN_PROBES and wall > 0 and raw > 0
          and len(cell_times) == len(cells) and all(t > 0 for t in cell_times),
          f"a live sampler takes probes during a pass ({len(speed.probe_s)} probes)")


def test_answers_do_not_depend_on_the_seed():
    for workload in CHEAP:
        answers = []
        tables = []
        for seed in (1, 2):
            cells = cheap_cells(workload, seed)
            ul.clear_caches()
            answers.append({c.name: c.run() for c in cells})
            tables.append([c.run.args[0].table.tobytes() for c in cells])
        expected = {name: REFERENCE[workload][name] for name in CHEAP[workload]}
        check(tables[0] != tables[1] and answers[0] == answers[1] == expected,
              f"{workload}: seeds 1 and 2 relabel differently and give the reference answers")


def _traced_counts(seed):
    tracer = tracing.Tracer()
    with tracer:
        check(all(getattr(f, tracing.MARKER, False) for f in (
            ul.unitary.keys_contain, ul.engine.keys_contain, ul.group_catalog.validate_group,
            ul.validate_group, ul.cayley, ul.engine.AlgebraContext.mul)),
            "wrappers reach aliased imports (unitary.keys_contain, group_catalog.validate_group)")
        tally = run.Tally()
        for workload in CHEAP:
            run.run_pass(cheap_cells(workload, seed), REFERENCE[workload], tally)
    check(not tally.failures, "traced passes give the reference answers")
    check(tracing.installed_wrappers() == [], "uninstall leaves no wrapper installed")
    calls = {name: n for name, (n, _) in tracer.stats.items()}
    return calls, dict(tracer.counts)


def test_trace_counts_repeat():
    first, second = _traced_counts(3), _traced_counts(3)
    check(first == second, "exact counts repeat exactly across traced passes of one seed")
    calls, counts = first
    check(counts.get("unitary.char2.mul_rows", 0) > 0 and counts.get("unitary.oracle.candidates", 0) > 0
          and calls.get("unitary.cayley", 0) > 0, "route counters see the char-2, oracle and Cayley paths")


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
          and {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
          and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json lists exactly the workloads and metrics the harness reports")


def main():
    test_benchmark_json_names_the_reported_metrics()
    test_failed_cells_are_counted()
    test_self_time_arithmetic()
    test_host_speed_scaling()
    test_answers_do_not_depend_on_the_seed()
    test_trace_counts_repeat()
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
