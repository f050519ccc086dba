"""One set-up measurement in a fresh process; run.py runs it before each pass
and after the last.

    python3 bench/setup_probe.py <workload> <seed>

It times the package import (numpy included), field construction, the
per-field tables of `engine.field_tables`, the catalog builds and
`validate_group` of the relabeled tables of pass 0 of the seed. It prints
{"setup_s": ..., "raw_s": ...}: `setup_s` scaled to the reference host speed
(hostspeed.py), `raw_s` in wall seconds less the sampler's own time.
"""

import time

START = time.perf_counter()

import json
import sys

import hostspeed

with hostspeed.Sampler() as speed:
    import run

    run._import_library()
    import workloads

    workloads.make_inputs(sys.argv[1], int(sys.argv[2]), 0)
    end = time.perf_counter()
print(json.dumps({"setup_s": speed.scaled(START, end),
                  "raw_s": end - START - speed.busy_s(START, end)}))
