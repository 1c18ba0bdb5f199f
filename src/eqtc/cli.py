"""Command-line front end.

Subcommands:
  analyze   full pipeline (validate -> regularize -> seed -> saturate -> report)
  examples  write a builtin problem file, or list them
  betti     Betti numbers of the problem's complex over one field
  fixed     Betti numbers of a fixed set X^H of the validated action, built on K
            or on its first subdivision (`group_action.fixed_set`); `full` is
            built directly, the trivial group's is K, a malformed value is
            refused at once, and only a class index (sorted by order) lists
            the classes
  cupfind   zero-divisor cup-length certificate for the problem's complex

K and the validated group come from the constructors `analyze` uses
(`eqtc.bounds.problem_complex` and `validated_action`).

Exit codes: 0 success, 2 parse/validation error, 3 inconsistent fact base,
4 enumeration cap exceeded, 5 an internal self-check failed (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from eqtc.bounds import EngineConfig, analyze_problem, problem_complex, report, validated_action
from eqtc.bounds import zero_divisor_certificate
from eqtc.complex_core import CapExceeded, ComplexError
from eqtc.group_action import ActionError, GroupError, Subgroup, check_subgroup_cap
from eqtc.group_action import fixed_set, subgroups
from eqtc.homology import betti_numbers, parse_field
from eqtc.linalg import FieldError
from eqtc.problems import (
    Problem,
    ProblemFormatError,
    builtin_examples,
    dumps_problem,
    load_problem,
)
from eqtc.ring import ring_structure

# not called here: perfbench/spans.py wraps them on this module (ROADMAP item 1b)
from eqtc.complex_core import from_maximal_simplices  # noqa: F401
from eqtc.group_action import fixed_subcomplex, group_closure, regularize, validate_action  # noqa: F401
from eqtc.ring import combined_zero_divisors, kunneth_tensor_ring, nilpotency_lower_bound  # noqa: F401

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_CAP = 4
EXIT_SELFCHECK = 5


@functools.cache  # parse_args leaves the parser as it found it, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqtc",
        description="bounds for LS-category and (equivariant) topological complexity "
        "of finite simplicial complexes with finite group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full bounds pipeline on a problem file")
    analyze.add_argument("path")
    _add_engine_flags(analyze)
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--output", help="also write the JSON report to this file")

    examples = sub.add_parser("examples", help="emit a builtin example problem file")
    examples.add_argument("name", nargs="?", help="the example to emit; omit it to list them")
    examples.add_argument("--output", help="write the file here instead of stdout")

    betti = sub.add_parser("betti", help="Betti numbers of the problem's complex")
    betti.add_argument("path")
    betti.add_argument("--field", default="Q")

    fixed = sub.add_parser("fixed", help="Betti numbers of a fixed subcomplex")
    fixed.add_argument("path")
    fixed.add_argument(
        "--subgroup",
        default="full",
        help="'full', 'trivial', or a subgroup-class index (sorted by order)",
    )
    fixed.add_argument("--field", default="Q")

    cupfind = sub.add_parser("cupfind", help="zero-divisor cup-length certificate")
    cupfind.add_argument("path")
    cupfind.add_argument("--field", default="Q")
    cupfind.add_argument("--depth-cap", type=int, default=None)
    return parser


def _add_engine_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--fields", default=None, help="comma-separated sweep, e.g. F2,F3,Q")
    cmd.add_argument("--depth-cap", type=int, default=None)
    cmd.add_argument("--subgroups", choices=("conjugacy", "all"), default=None)


def _config(problem: Problem, **overrides) -> EngineConfig:
    # the one permitted environment override: the group-order cap
    env_cap = os.environ.get("EQTC_GROUP_ORDER_CAP")
    try:
        group_order_cap = int(env_cap) if env_cap else None
    except ValueError:
        raise ProblemFormatError("EQTC_GROUP_ORDER_CAP: must be an integer") from None
    return EngineConfig.from_problem(problem, group_order_cap=group_order_cap, **overrides)


def _require_complex(problem: Problem) -> Problem:
    if problem.is_associated_space:
        raise ProblemFormatError(
            "this command needs a concrete complex; the file declares an associated space"
        )
    return problem


def cmd_analyze(args: argparse.Namespace, out) -> int:
    problem = load_problem(args.path)
    config = _config(
        problem,
        fields=tuple(args.fields.split(",")) if args.fields is not None else None,
        depth_cap=args.depth_cap,
        subgroup_mode=args.subgroups,
    )
    fb = analyze_problem(problem, config)
    text = report(fb, args.format)
    # the output file is opened first, so a bad --output leaves no report on stdout
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report(fb, "json") if args.format == "text" else text)
    out.write(text)
    return EXIT_INCONSISTENT if fb.inconsistencies else EXIT_OK


def cmd_examples(args: argparse.Namespace, out) -> int:
    examples = builtin_examples()
    if args.name is None:
        for name in sorted(examples):
            out.write(name + "\n")
        return EXIT_OK
    if args.name not in examples:
        known = ", ".join(sorted(examples))
        raise ProblemFormatError(f"unknown example {args.name!r}; available: {known}")
    text = dumps_problem(examples[args.name])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def cmd_betti(args: argparse.Namespace, out) -> int:
    problem = _require_complex(load_problem(args.path))
    _config(problem)  # rejects malformed settings, though betti uses none of them
    values = betti_numbers(problem_complex(problem), parse_field(args.field))
    out.write(" ".join(map(str, values)) + "\n")
    return EXIT_OK


def cmd_fixed(args: argparse.Namespace, out) -> int:
    problem = _require_complex(load_problem(args.path))
    config = _config(problem)
    K, G = validated_action(problem, config)
    check_subgroup_cap(G, config.subgroup_cap)
    if args.subgroup == "full":
        H = Subgroup(G, frozenset(range(G.order)))
    elif args.subgroup == "trivial":
        H = Subgroup(G, frozenset({0}))  # the identity sorts first
    elif not re.fullmatch("0|[1-9][0-9]*", args.subgroup):
        # refused before any class is listed, so the message cannot name their count
        raise ProblemFormatError(
            "--subgroup must be 'full', 'trivial', or a class index in plain digits"
        )
    else:  # only an index needs the classes, sorted by order
        classes = subgroups(G, "up_to_conjugacy", cap=config.subgroup_cap)
        # looked up as text, since int() refuses a long enough digit string
        by_index = {str(i): c for i, c in enumerate(classes)}
        if args.subgroup not in by_index:
            raise ProblemFormatError(
                f"--subgroup must be 'full', 'trivial', or 0..{len(classes) - 1}"
            )
        H = by_index[args.subgroup]
    field = parse_field(args.field)  # refused even where X^H is empty and no field is read
    fixed = fixed_set(K, H)
    if fixed.is_empty:
        out.write("empty\n")
    else:
        values = betti_numbers(fixed, field)
        out.write(" ".join(map(str, values)) + "\n")
    return EXIT_OK


def cmd_cupfind(args: argparse.Namespace, out) -> int:
    problem = _require_complex(load_problem(args.path))
    config = _config(problem, depth_cap=args.depth_cap)
    K = problem_complex(problem)
    if len(K.simplices) > config.max_ring_simplices:
        raise CapExceeded(
            f"{len(K.simplices)} simplices exceed the configured ring limit "
            f"{config.max_ring_simplices}"
        )
    cert = zero_divisor_certificate(ring_structure(K, parse_field(args.field)), config.depth_cap)
    factors = ", ".join(cert.factor_labels)
    out.write(f"zero-divisor length {cert.length}, certificate [{factors}]\n")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "examples": cmd_examples,
    "betti": cmd_betti,
    "fixed": cmd_fixed,
    "cupfind": cmd_cupfind,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except (
        ProblemFormatError,
        ComplexError,
        ActionError,
        GroupError,
        FieldError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except AssertionError as err:
        # raised explicitly by the certificate and engine self-checks, so -O keeps them
        print(f"error: self-check failed: {err}", file=sys.stderr)
        return EXIT_SELFCHECK


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
