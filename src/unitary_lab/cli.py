"""Command-line front end.

Subcommands:
    groups list     catalog names, orders, |G{2}|
    compute         one result per (group, field)
    theta-table     theta across catalog 2-groups x fields
    verify          run a named verification suite

Exit codes: 0 success, 1 usage or refused computation, 2 internal
inconsistency (a proved identity failed). Identical configurations produce
byte-identical JSON; wall-clock timings only appear under --timings,
which only JSON carries.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .errors import InternalInconsistency, SearchSpaceTooLarge, UnitaryLabError
from .finite_field import FieldSpec, parse_field_literal
from .group_algebra import canonical_star
from .group_catalog import build, catalog_entries
from .group_core import Group, validate_group
from .unitary import (
    DEFAULT_SEARCH_CAP,
    UnitaryResult,
    _s_h_bounds,
    oracle_search_space,
    theta,
    theta_from_order,
    unitary_enumerate_oracle,
    unitary_order_char2,
    unitary_order_odd,
)
from .verify import SUITES, run_suite

ORACLE_WITNESSES = 8  # witnesses --method oracle lists unless --max-witnesses is given


class UsageError(Exception):
    def __init__(self, message):
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@dataclass
class UnitaryReport:
    """One computed cell plus its cross-check and timing."""

    result: UnitaryResult
    cross_check: dict | None
    elapsed_s: float

    def to_dict(self, include_timings: bool = False) -> dict:
        out = self.result.to_dict()
        out["cross_check"] = self.cross_check
        if include_timings:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out


def _check_caps(args):
    """--search-cap and --max-order must be positive, --max-witnesses not negative."""
    if (getattr(args, "search_cap", 1) <= 0 or (getattr(args, "max_witnesses", None) or 0) < 0
            or getattr(args, "max_order", 1) <= 0):
        raise UsageError("caps must be positive")


def _resolve_groups(args) -> list[Group]:
    groups = [build(name) for name in args.group or ()]
    for path in args.group_file or ():
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"{path}: not JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise UsageError(f"{path}: top level must be an object with a \"table\" key, "
                             f"got {type(payload).__name__}")
        if "table" not in payload:
            raise UsageError(f"{path}: no \"table\" key")
        group_id, n = payload.get("id", path), payload.get("n")
        if not isinstance(group_id, str):
            raise UsageError(f"{path}: \"id\" must be a string, got {type(group_id).__name__}")
        if "n" in payload and type(n) is not int:  # JSON true/false load as bool
            raise UsageError(f"{path}: \"n\" must be an integer, got {type(n).__name__}")
        group = validate_group(payload["table"], id=group_id)
        if "n" in payload and n != group.n:
            raise UsageError(f"{path}: declared n={n} but table has {group.n} rows")
        groups.append(group)
    if not groups:
        raise UsageError("no group given; use --group or --group-file")
    return groups


def _resolve_fields(literals) -> list[FieldSpec]:
    if not literals:
        raise UsageError("no field given; use --field p^m (repeatable)")
    fields = []
    for text in literals:
        field = parse_field_literal(text)
        if field in fields:
            raise UsageError(f"field {field.literal()} given twice")
        fields.append(field)
    return fields


def _compute_cell(group: Group, field: FieldSpec, method: str,
                  search_cap: int, max_witnesses: int) -> UnitaryReport:
    start = time.perf_counter()
    cross = None
    if method == "auto":
        method = "formula" if field.p != 2 else "recursive"
        if method == "recursive" and oracle_search_space(group, field) <= search_cap:
            cross = "pending"
    if method == "formula":
        if field.p == 2:
            raise UsageError("--method formula applies to odd characteristic only")
        order = unitary_order_odd(group, canonical_star(group), field)
        result = UnitaryResult(group.id, field, "*", "formula", order,
                               theta_from_order(order, field, group))
    elif method == "recursive":
        if field.p != 2:
            raise UsageError("--method recursive applies to characteristic two only")
        result = unitary_order_char2(group, field, search_cap=search_cap)
    elif method == "oracle":
        result = unitary_enumerate_oracle(group, canonical_star(group), field,
                                          search_cap=search_cap,
                                          max_witnesses=max_witnesses)
    else:
        raise UsageError(f"unknown method {method!r}")
    if cross == "pending":
        oracle = unitary_enumerate_oracle(group, canonical_star(group), field,
                                          search_cap=search_cap, max_witnesses=0)
        consistent = oracle.order == result.order
        cross = {"oracle_order": str(oracle.order), "consistent": consistent}
        if not consistent:
            raise InternalInconsistency(
                f"recursive order {result.order} != oracle order {oracle.order} "
                f"for {group.id} over {field.literal()}")
    return UnitaryReport(result, cross, time.perf_counter() - start)


def _render_table(headers: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(row) for row in rows]
        return "\n".join(lines)
    if fmt == "markdown":
        lines = ["| " + " | ".join(headers) + " |",
                 "| " + " | ".join("---" for _ in headers) + " |"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines)
    raise UsageError(f"unknown format {fmt!r}")


def cmd_groups(args) -> int:
    entries = catalog_entries(args.max_order, args.p)
    rows = []
    for entry in entries:
        group = entry.build()
        rows.append({
            "name": entry.name,
            "order": group.n,
            "order_two": len(group.special_sets().order_two),
        })
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        table = [[r["name"], str(r["order"]), str(r["order_two"])] for r in rows]
        print(_render_table(["group", "order", "|G{2}|"], table, args.format))
    return 0


def cmd_compute(args) -> int:
    witnesses = args.max_witnesses
    if witnesses is None:
        witnesses = ORACLE_WITNESSES
    elif args.method != "oracle":
        raise UsageError("--max-witnesses applies to --method oracle only")
    if args.timings and args.format != "json":
        raise UsageError("--timings applies to --format json only")
    groups = _resolve_groups(args)
    fields = _resolve_fields(args.field)
    reports = [_compute_cell(g, f, args.method, args.search_cap, witnesses)
               for g in groups for f in fields]
    reports.sort(key=lambda rep: (rep.result.group_id, rep.result.field.literal()))
    if args.format == "json":
        payload = [rep.to_dict(include_timings=args.timings) for rep in reports]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        rows = []
        for rep in reports:
            cross = "-" if rep.cross_check is None else str(rep.cross_check["consistent"])
            rows.append([rep.result.group_id, rep.result.field.literal(),
                         rep.result.method, str(rep.result.order),
                         str(rep.result.theta), cross])
        print(_render_table(["group", "field", "method", "order", "theta", "cross_check"],
                            rows, args.format))
    return 0


def cmd_theta_table(args) -> int:
    fields = _resolve_fields(args.field or ("2^1", "2^2"))
    for f in fields:
        if f.p != 2:
            raise UsageError(f"theta-table takes characteristic-two fields, got {f.literal()}")
    rows = []
    for entry in catalog_entries(args.max_order, 2):
        group = entry.build()
        cells = {}
        for f in fields:
            try:
                cells[f.literal()] = str(theta(group, f, search_cap=args.search_cap))
            except SearchSpaceTooLarge as exc:
                cells[f.literal()] = {"unavailable": str(exc)}
        commuting = any(_s_h_bounds(group, c, fields[0])[1]
                        for c in group.special_sets().central_order_two)
        known = [v for v in cells.values() if isinstance(v, str)]
        agrees = len(set(known)) == 1 if len(known) == len(fields) and known else None
        rows.append({
            "group": entry.name,
            "order": group.n,
            "cells": cells,
            "t_c_commutative": commuting,
            "theta_agrees": agrees,
        })
    if args.format == "json":
        print(json.dumps({"fields": [f.literal() for f in fields], "rows": rows},
                         sort_keys=True, indent=2))
    else:
        headers = ["group", "order"] + [f.literal() for f in fields] + \
                  ["T_c commutative", "theta agrees"]
        body = []
        for row in rows:
            cells_txt = [row["cells"][f.literal()] if isinstance(row["cells"][f.literal()], str)
                         else "—" for f in fields]
            body.append([row["group"], str(row["order"])] + cells_txt +
                        [str(row["t_c_commutative"]),
                         "—" if row["theta_agrees"] is None else str(row["theta_agrees"])])
        print(_render_table(headers, body, args.format))
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.suite}/{res.name}: expected={res.expected} measured={res.measured}")
        failed += 0 if res.passed else 1
    print(f"{args.suite}: {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="unitary-lab",
                     description="orders of unitary subgroups of modular group algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    groups_p = sub.add_parser("groups", help="catalog browsing")
    groups_p.add_argument("action", choices=["list"])
    groups_p.add_argument("--max-order", type=int, default=16)
    groups_p.add_argument("--p", type=int, default=2)
    groups_p.add_argument("--format", choices=["json", "csv", "markdown"], default="markdown")
    groups_p.set_defaults(run=cmd_groups)

    compute_p = sub.add_parser("compute", help="compute |V(FG)| per (group, field)")
    compute_p.add_argument("--group", action="append", help="catalog name (repeatable)")
    compute_p.add_argument("--group-file", action="append",
                           help="JSON file {id, n, table} (repeatable)")
    compute_p.add_argument("--field", action="append", help="field literal p^m (repeatable)")
    compute_p.add_argument("--method", choices=["auto", "formula", "recursive", "oracle"],
                           default="auto")
    compute_p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    compute_p.add_argument("--max-witnesses", type=int, default=None,
                           help=f"witnesses listed (--method oracle only; default {ORACLE_WITNESSES})")
    compute_p.add_argument("--search-cap", type=int, default=DEFAULT_SEARCH_CAP)
    compute_p.add_argument("--timings", action="store_true",
                           help="add wall-clock times (--format json only)")
    compute_p.set_defaults(run=cmd_compute)

    ttab_p = sub.add_parser("theta-table", help="theta across catalog 2-groups x fields")
    ttab_p.add_argument("--field", action="append", help="field literal 2^m (repeatable)")
    ttab_p.add_argument("--max-order", type=int, default=16)
    ttab_p.add_argument("--format", choices=["json", "csv", "markdown"], default="markdown")
    ttab_p.add_argument("--search-cap", type=int, default=DEFAULT_SEARCH_CAP)
    ttab_p.set_defaults(run=cmd_theta_table)

    verify_p = sub.add_parser("verify", help="run a named verification suite")
    verify_p.add_argument("--suite", required=True, choices=sorted(SUITES))
    verify_p.add_argument("--seed", type=int, default=None,
                          help="seed of the sampled elements (cayley suite only; default 0)")
    verify_p.set_defaults(run=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_caps(args)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (UnitaryLabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
