"""Command-line interface.

Subcommands: ``parse``/``lint`` for policy files, ``negotiate`` /
``simulate [--dp]`` / ``bench`` for consortium configs.

Exit codes: 0 on success, 1 when diagnostics contain errors (or
parsing fails), 2 on runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from curie import cpl, harness
from curie.errors import CurieError


def _read_policy(path: str) -> cpl.PolicyAst | None:
    """The policy parsed from the file at *path*, or None after
    printing its lex or parse error."""
    try:
        return cpl.parse_policy(harness.read_text(Path(path), path))
    except (cpl.ParseError, cpl.LexError) as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        return None


def cmd_parse(args) -> int:
    policy = _read_policy(args.file)
    if policy is None:
        return 1
    if args.json:
        stmts = [{"kind": type(s).__name__} for s in policy.statements]
        print(json.dumps({"statements": stmts,
                          "canonical": cpl.serialize(policy)}, indent=2))
    else:
        sys.stdout.write(cpl.serialize(policy))
    return 0


def cmd_lint(args) -> int:
    policy = _read_policy(args.file)
    if policy is None:
        return 1
    diags = cpl.validate(policy)
    for d in diags:
        print(d.format(args.file))
    return 1 if cpl.has_errors(diags) else 0


def _emit(obj, out: str | None) -> None:
    payload = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(payload + "\n")
    else:
        print(payload)


def cmd_negotiate(args) -> int:
    cfg = harness.load_config(args.config)
    report = harness.run_scenario(cfg, harness.MODE_NEGOTIATE)
    _emit(report.to_json(include_timings=False), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = harness.load_config(args.config)
    mode = harness.MODE_FULL_DP if args.dp else harness.MODE_FULL
    report = harness.run_scenario(cfg, mode)
    _emit(report.to_json(include_timings=True), args.out)
    return 0


# argparse reports a ValueError in these as a usage error

def counts(text: str) -> list[int]:
    return [int(e) for e in text.split(",")]


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def cmd_bench(args) -> int:
    try:
        harness.check_bench_values(args.axis, args.values)
    except ValueError as exc:
        args.parser.error(f"argument --values: {exc}")
    table = harness.bench(args.axis, args.values, runs=args.runs, key_bits=args.key_bits)
    if args.csv:
        keys = list(table[0].keys())
        print(",".join(keys))
        for row in table:
            print(",".join(str(row[k]) for k in keys))
    else:
        print(json.dumps(table, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curie",
        description="policy-governed data exchange: parse policies, "
                    "negotiate agreements, simulate pooled dose models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a .cpl policy file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit a JSON summary")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("lint", help="validate a .cpl policy file")
    p.add_argument("file")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("negotiate", help="run pairwise negotiations only")
    p.add_argument("config")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_negotiate)

    p = sub.add_parser("simulate", help="negotiate, aggregate, and model")
    p.add_argument("config")
    p.add_argument("--dp", action="store_true",
                   help="additionally sweep the configured privacy budgets")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="phase timing table along one axis")
    p.add_argument("--axis", required=True, choices=list(harness.BENCH_AXES))
    p.add_argument("--values", required=True, type=counts,
                   help="comma-separated axis values")
    p.add_argument("--runs", type=positive, default=3)
    p.add_argument("--key-bits", type=positive, default=192)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_bench, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CurieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
