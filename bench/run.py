"""Exact-answer benchmark of unitary-lab over three seeded workloads.

    python3 bench/run.py --workload oracle_gf8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process and one thread run the workload's cells through the library's
public API in a closed loop: each cell starts when the previous one has
finished. Every pass clears the library's result caches, runs every cell on a
fresh seeded relabeling, and checks each answer exactly against
bench/reference.json. Passes repeat while one more still fits in --seconds,
with at least two. The last line of standard output is one JSON object:

  --trace 0  wall_s, setup_s, max_cell_s, peak_rss_mb (medians over passes;
             setup_s is the median of set-ups in fresh processes, one
             before each pass and one after the last; times are scaled to
             a reference host speed sampled while they run, hostspeed.py)
  --trace 1  per-layer counts and self times from one traced pass, and the
             tracing overhead against an untraced pass on the same inputs

`attempted` and `failed` count cells; a wrong answer, an exception or a
refusal fails a cell, and the exit code is then 1. With `--workload all` one
line per workload is printed instead, each workload in its own process.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
MIN_PASSES = 2
PROCESS_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "max_cell_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "finite_field.mul.calls": "count", "finite_field.mul_s": "s",
    "finite_field.add.calls": "count", "finite_field.add_s": "s",
    "finite_field.inverse.calls": "count",
    "group_core.validate_group.calls": "count", "group_core.validate_group_s": "s",
    "group_catalog.build_s": "s", "engine.field_tables_s": "s",
    "group_core.quotient.calls": "count", "group_core.quotient_s": "s",
    "group_algebra.ideal_and_quotient.calls": "count", "group_algebra.ideal_and_quotient_s": "s",
    "group_algebra.mul.calls": "count", "group_algebra.mul_s": "s",
    "group_algebra.invert.calls": "count", "group_algebra.invert_s": "s",
    "engine.mul.calls": "count", "engine.mul.rows": "count", "engine.mul_s": "s",
    "engine.mul.rows_per_s": "1/s", "engine.mul.bytes_computed": "B",
    "engine.pack.rows": "count", "engine.pack_s": "s",
    "engine.unpack.rows": "count", "engine.unpack_s": "s",
    "engine.keys_contain.queries": "count", "engine.keys_contain_s": "s",
    "engine.enumerate.rows": "count", "engine.enumerate_s": "s",
    "unitary.oracle.candidates": "count", "unitary.oracle_s": "s",
    "unitary.certificate_s": "s",
    "unitary.char2.mul_rows": "count", "unitary.char2.s_h_distinct": "count",
    "unitary.char2.yield": "ratio", "unitary.char2_s": "s",
    "unitary.cayley.calls": "count", "unitary.cayley_s": "s",
    "unitary.refused": "count",
    "trace.traced_wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
}


def _import_library():
    """Import unitary_lab from this checkout's src/ and never from anywhere else."""
    os.environ.pop("UNITARY_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        import unitary_lab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import unitary_lab from {SRC}: {exc}")
    if Path(unitary_lab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: unitary_lab was imported from {unitary_lab.__file__}, not {SRC}")


class Tally:
    """Cells attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.refused = 0
        self.failures: list[str] = []  # one per failed cell
        self.problems: list[str] = []  # faults of the run itself, such as stray wrappers


def run_pass(cells, reference, tally, speed=None):
    """One timed pass over the cells: (pass seconds, per-cell seconds, raw pass seconds).

    With an active host-speed sampler the first two are scaled to the
    reference speed (hostspeed.py) and the raw seconds leave out only the
    sampler's own time; without one all three are plain wall seconds.
    Answers are compared after each cell's timing ends."""
    import unitary_lab as ul
    from unitary_lab.errors import SearchSpaceTooLarge

    start = time.perf_counter()
    ul.clear_caches()
    windows = []
    for cell in cells:
        cell_start = time.perf_counter()
        answer = error = None
        try:
            answer = cell.run()
        except SearchSpaceTooLarge as exc:
            tally.refused += 1
            error = f"refused: {exc}"
        except Exception:  # a raising cell is a failed cell; the pass goes on
            error = traceback.format_exc()
        windows.append((cell_start, time.perf_counter()))
        tally.attempted += 1
        expected = reference.get(cell.name)
        if error is None and answer != expected:
            error = f"answer {json.dumps(answer)} != reference {json.dumps(expected)}"
        if error is not None:
            tally.failures.append(f"{cell.name}: {error}")
    end = time.perf_counter()
    if speed is None:
        return end - start, [b - a for a, b in windows], end - start
    return (speed.scaled(start, end),
            [speed.scaled(a, b, enclosing=(start, end)) for a, b in windows],
            end - start - speed.busy_s(start, end))


def _setup_probe(workload, seed):
    """(scaled, raw) set-up seconds of a fresh process, from setup_probe.py."""
    env = {k: v for k, v in os.environ.items() if k != "UNITARY_LAB_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["raw_s"]


def timed_run(workload, seed, seconds, reference):
    import tracing
    import workloads

    tally = Tally()
    walls, slowest, setups, raw_walls, raw_setups = [], [], [], [], []
    start = time.perf_counter()
    # another pass starts only if one more of the mean length still fits; a
    # set-up probe before each pass and after the last spreads them over the run
    while len(walls) < MIN_PASSES or (
            time.perf_counter() - start) * (len(walls) + 1) / len(walls) <= seconds:
        setup, raw_setup = _setup_probe(workload, seed)
        setups.append(setup)
        raw_setups.append(raw_setup)
        cells = workloads.make_inputs(workload, seed, len(walls))
        with hostspeed.Sampler() as speed:
            wall, cell_times, raw_wall = run_pass(cells, reference, tally, speed)
        walls.append(wall)
        slowest.append(max(cell_times))
        raw_walls.append(raw_wall)
    setup, raw_setup = _setup_probe(workload, seed)
    setups.append(setup)
    raw_setups.append(raw_setup)
    stray = tracing.installed_wrappers()
    if stray:
        tally.problems.append(f"untraced run found tracing wrappers: {stray}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{workload} seed {seed}: {len(walls)} passes; wall_s "
          + " ".join(f"{w:.3f}" for w in walls) + "; raw wall seconds "
          + " ".join(f"{w:.3f}" for w in raw_walls) + "; raw set-up seconds "
          + " ".join(f"{s:.3f}" for s in raw_setups), file=sys.stderr)
    return tally, {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                   "max_cell_s": statistics.median(slowest), "peak_rss_mb": peak_rss_mb}


def traced_run(workload, seed, reference):
    import tracing
    import workloads

    tally = Tally()
    tracer = tracing.Tracer()
    with tracer:
        cells = workloads.make_inputs(workload, seed, 0)
        with hostspeed.Sampler() as speed:
            traced_wall, _, _ = run_pass(cells, reference, tally, speed)
    refused = tally.refused
    stray = tracing.installed_wrappers()
    if stray:
        tally.problems.append(f"tracing wrappers left installed: {stray}")
    cells = workloads.make_inputs(workload, seed, 0)
    with hostspeed.Sampler() as speed:
        untraced_wall, _, _ = run_pass(cells, reference, tally, speed)

    stats, counts = tracer.stats, tracer.counts
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = stats.get(name[:-len(".calls")], [0, 0.0])[0]
        elif name.endswith("_s") and name[:-2] in stats:
            metrics[name] = stats[name[:-2]][1]
        else:
            metrics[name] = counts[name]
    mul_s = metrics["engine.mul_s"]
    metrics["engine.mul.rows_per_s"] = metrics["engine.mul.rows"] / mul_s if mul_s else 0.0
    mul_rows = metrics["unitary.char2.mul_rows"]
    metrics["unitary.char2.yield"] = metrics["unitary.char2.s_h_distinct"] / mul_rows if mul_rows else 0.0
    metrics["unitary.refused"] = refused
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({"workload": workload, "seed": seed,
                               "span_fields": ["id", "name", "start", "end", "parent"],
                               "spans": tracer.spans, "calls_and_self_s": stats,
                               "counts": counts}))
    print(f"{workload} seed {seed}: {len(tracer.spans)} spans written to {out}", file=sys.stderr)
    return tally, metrics


def summary(seed, seconds):
    """Each workload in its own process, one line of end-to-end metrics each."""
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=3 * PROCESS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        shown = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{workload:16s} {shown}  failed_cells={result['failed']} of {result['attempted']}")
        status |= proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    if args.workload == "all":
        return summary(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    if args.trace:
        tally, values = traced_run(args.workload, args.seed, reference)
        units = PER_LAYER
    else:
        tally, values = timed_run(args.workload, args.seed, args.seconds, reference)
        units = END_TO_END
    for failure in tally.failures + tally.problems:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(tally.failures)
    correct = failed == 0 and not tally.problems
    print(f"{args.workload}: failed_cells {failed} of {tally.attempted} attempted", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
