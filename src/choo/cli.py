"""Command-line front end.

Exit status tells scripts what happened: 0 at least one solution, 1 no
derivation, 2 parse or scope errors (reported with line:column), 3
runtime errors and exhausted search budgets. Solutions go to stdout,
everything else to stderr, so traces never disturb the output contract.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .derivation import format_tree, tree_of
from .interp import (
    BudgetExhausted,
    EvalError,
    SearchBudget,
    UNCONSTRAINED,
    run,
)
from .oracle import check_equivalence
from .parser import ParseError, parse_program
from .syntax import format_goal, format_program
from .terms import format_term


def _print_outcome(outcome):
    memo = {}  # witnesses and store values share subterms: each is rendered once
    for name, value in outcome.witnesses:
        text = "_" if value is UNCONSTRAINED else format_term(value, memo=memo)
        print(f"{name} = {text}")
    inner = ", ".join(
        f"{name} = {format_term(value, memo=memo)}"
        for name, value in sorted(outcome.store.items())
    )
    print(f"store: {{{inner}}}")


def _read_program(path: str):
    try:
        source = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {path}: {getattr(err, 'strerror', None) or err}", file=sys.stderr)
        return None
    try:
        return parse_program(source)
    except ParseError as err:
        print(f"parse error at {err.line}:{err.column}: {err.message}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    program = _read_program(args.file)
    if program is None:
        return 2
    try:
        budget = SearchBudget(max_depth=args.max_depth, max_steps=args.max_steps)
    except ValueError as err:
        print(f"bad budget: {err}", file=sys.stderr)
        return 2

    on_rule = None
    if args.trace == "rules":
        on_rule = lambda rule, goal_env: print(
            f"[rule {rule}] {format_goal(*goal_env)}", file=sys.stderr
        )

    count = 0
    try:
        for outcome, record in run(program, budget=budget, on_rule=on_rule):
            if args.all_solutions and count:
                print("---")
            _print_outcome(outcome)
            if args.trace == "full":
                print(format_tree(tree_of(record)), file=sys.stderr)
            count += 1
            if not args.all_solutions:
                return 0
    except BudgetExhausted as err:
        print(f"budget exhausted: maximum {err.what} reached", file=sys.stderr)
        return 3
    except EvalError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
    if args.all_solutions:
        print(f"solutions: {count}")
    return 0 if count else 1


def _cmd_parse(args) -> int:
    program = _read_program(args.file)
    if program is None:
        return 2
    print(format_program(program))
    return 0


def _cmd_oracle_check(args) -> int:
    import random

    from .gen import shrink

    program = _read_program(args.file)
    if program is None:
        return 2
    report = check_equivalence(program)
    if report.excluded:
        print(f"out of oracle bounds: {report.reason}", file=sys.stderr)
        return 3
    if report.matched:
        print(report.describe())
        return 0

    def still_bad(candidate) -> bool:
        r = check_equivalence(candidate)
        return not r.excluded and not r.matched

    minimal = shrink(program, still_bad, rng=random.Random(args.seed))
    print(report.describe())
    print("minimal counterexample:")
    print(format_program(minimal))
    return 1


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """Built once per process: building it costs ten times parsing with it."""
    parser = argparse.ArgumentParser(
        prog="choo",
        description="Interpreter for a small imperative language with choose statements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program and print solutions")
    p_run.add_argument("file", help="program file")
    p_run.add_argument(
        "--all", dest="all_solutions", action="store_true",
        help="print every solution instead of the first",
    )
    p_run.add_argument(
        "--trace", choices=("off", "rules", "full"), default="off",
        help="write rule applications (rules) or derivation trees (full) to stderr",
    )
    p_run.add_argument("--max-depth", type=int, default=SearchBudget.max_depth, metavar="N",
                       help="search depth budget (default %(default)s)")
    p_run.add_argument("--max-steps", type=int, default=SearchBudget.max_steps, metavar="N",
                       help="rule application budget (default %(default)s)")
    p_run.set_defaults(handler=_cmd_run)

    p_parse = sub.add_parser("parse", help="parse a program and print it back")
    p_parse.add_argument("file", help="program file")
    p_parse.set_defaults(handler=_cmd_parse)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="compare engine solutions against exhaustive enumeration",
    )
    p_oracle.add_argument("file", help="program file")
    p_oracle.add_argument("--seed", type=int, default=0,
                          help="seed for counterexample minimization order")
    p_oracle.set_defaults(handler=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
