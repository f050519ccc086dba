"""Span tracing around the library's layer entry points, installed from outside.

`Tracer.install()` replaces each entry point below with a wrapper that records
a span (id, name, start, end, parent) and updates per-name call counts and
self time. Module functions are replaced in every `unitary_lab` module whose
namespace holds them, so names imported elsewhere (`unitary.keys_contain`,
`group_catalog.validate_group`, the package re-exports) are wrapped too;
methods are replaced on their class. `uninstall()` restores the originals.

Self time is a span's duration minus the time its child spans cover. One
thread runs everything, so children never overlap and their durations add.
Scalar field operations run millions of times per pass; they are counted and
timed like every other span, but not kept in the span list.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

MARKER = "__bench_traced__"
ROUTES = ("unitary.oracle", "unitary.char2")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []   # open spans: [span id, covered child time, name]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self._next_id = 0
        self._undo: list[tuple] = []

    # --- spans ---------------------------------------------------------------

    def wrap(self, name, fn, *, keep=True, on_exit=None):
        """fn timed as a span named `name`; on_exit(args, result) adds counts."""
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, clock, spans = self.stack, self.clock, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = -1
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if keep:
                    spans.append((span_id, name, start, end, parent))
            if on_exit is not None:
                on_exit(args, result)
            return result

        setattr(traced, MARKER, True)
        return traced

    def wrap_generator(self, name, fn, on_item):
        """A generator function whose every step (next) is a span; on_item(args, item) adds counts."""
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                on_item(args, item)
                yield item

        setattr(traced, MARKER, True)
        return traced

    def route(self) -> str | None:
        """The innermost open route span (oracle or char-2 recursion), if any."""
        for frame in reversed(self.stack):
            if frame[2] in ROUTES:
                return frame[2]
        return None

    # --- installation ----------------------------------------------------------

    def install(self):
        import unitary_lab
        from unitary_lab import engine, finite_field, group_algebra, group_catalog, group_core, unitary

        counts = self.counts

        def on_mul(args, out):
            counts["engine.mul.rows"] += len(out)
            # computed from array sizes: both operands read, the product written
            counts["engine.mul.bytes_computed"] += args[1].nbytes + args[2].nbytes + out.nbytes
            if self.route() == "unitary.char2":
                counts["unitary.char2.mul_rows"] += len(out)

        def count(*keys, rows):
            def on_exit(args, result):
                for key in keys:
                    counts[key] += len(rows(args, result))
            return on_exit

        methods = [
            (finite_field.FieldElement, "__add__", "finite_field.add", False, None),
            (finite_field.FieldElement, "__sub__", "finite_field.add", False, None),
            (finite_field.FieldElement, "__mul__", "finite_field.mul", False, None),
            (finite_field.FieldElement, "inverse", "finite_field.inverse", False, None),
            (group_core.Group, "quotient", "group_core.quotient", True, None),
            (group_algebra.AlgebraElement, "__mul__", "group_algebra.mul", True, None),
            (group_algebra.AlgebraElement, "invert", "group_algebra.invert", True, None),
            (engine.AlgebraContext, "mul", "engine.mul", True, on_mul),
            (engine.AlgebraContext, "pack", "engine.pack", True,
             count("engine.pack.rows", rows=lambda a, r: a[1])),
            (engine.AlgebraContext, "unpack", "engine.unpack", True,
             count("engine.unpack.rows", rows=lambda a, r: r)),
        ]
        functions = [
            (group_core.validate_group, "group_core.validate_group", None),
            (group_catalog.build, "group_catalog.build", None),
            (group_algebra.ideal_and_quotient, "group_algebra.ideal_and_quotient", None),
            (engine.field_tables, "engine.field_tables", None),
            (engine.keys_contain, "engine.keys_contain",
             count("engine.keys_contain.queries", rows=lambda a, r: r)),
            (unitary._oracle_set, "unitary.oracle", None),
            (unitary._fiber_scan, "unitary.char2",
             count("unitary.char2.s_h_distinct", rows=lambda a, r: r[1])),
            (unitary._subgroup_certificate, "unitary.certificate", None),
            (unitary.cayley, "unitary.cayley", None),
        ]
        batch = lambda a, r: r  # noqa: E731
        generators = [
            (engine.AlgebraContext, "normalized_batches",
             count("engine.enumerate.rows", "unitary.oracle.candidates", rows=batch)),
            (engine.AlgebraContext, "span_batches", count("engine.enumerate.rows", rows=batch)),
        ]

        modules = [m for key, m in sys.modules.items()
                   if key == unitary_lab.__name__ or key.startswith(unitary_lab.__name__ + ".")]
        for cls, attr, name, keep, on_exit in methods:
            self._replace(cls, attr, self.wrap(name, cls.__dict__[attr], keep=keep, on_exit=on_exit))
        for cls, attr, on_item in generators:
            self._replace(cls, attr, self.wrap_generator("engine.enumerate", cls.__dict__[attr], on_item))
        for fn, name, on_exit in functions:
            wrapped = self.wrap(name, fn, on_exit=on_exit)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapped)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def installed_wrappers() -> list[str]:
    """Every library attribute that is currently a tracing wrapper."""
    found = []
    for key, module in list(sys.modules.items()):
        if key != "unitary_lab" and not key.startswith("unitary_lab."):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, MARKER, False):
                found.append(f"{key}.{attr}")
            if isinstance(value, type) and value.__module__ == key:
                found += [f"{key}.{attr}.{m}" for m, v in vars(value).items() if getattr(v, MARKER, False)]
    return found
