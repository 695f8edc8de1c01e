"""Command-line front end.

Exit status tells scripts what happened: 0 at least one solution, 1 no
derivation, 2 parse or scope errors (reported with line:column), 3
runtime errors and exhausted search budgets. Solutions go to stdout,
everything else to stderr, so traces never disturb the output contract.
A command imports only what it runs, and a reader that leaves early, as
in `choo run --all | head -1`, ends it quietly with the status it had.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .interp import UNCONSTRAINED, BudgetExhausted, EvalError, SearchBudget, execute
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


def _end(status, text=None, file=None):
    """status, once text, if any, is written as the command's last words;
    once a reader has left, the rest, shutdown's flush included, is dropped."""
    try:
        if text is not None:
            print(text, file=file)
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
    return status


def _read_program(path: str):
    try:
        with open(path, encoding="utf-8-sig") as f:  # a leading byte-order mark is dropped
            source = f.read()
    except (OSError, UnicodeDecodeError) as err:
        return _end(None, f"cannot read {path}: {getattr(err, 'strerror', None) or err}", sys.stderr)
    try:
        return parse_program(source)
    except ParseError as err:
        return _end(None, f"parse error at {err.line}:{err.column}: {err.message}", sys.stderr)


def _cmd_run(args) -> int:
    program = _read_program(args.file)
    if program is None:
        return 2
    try:
        budget = SearchBudget(max_depth=args.max_depth, max_steps=args.max_steps)
    except ValueError as err:
        return _end(2, f"bad budget: {err}", sys.stderr)

    on_rule = None
    if args.trace == "rules":
        on_rule = lambda rule, goal_env: print(
            f"[rule {rule}] {format_goal(*goal_env)}", file=sys.stderr
        )
    elif args.trace == "full":
        from .derivation import format_tree, tree_of

    count = 0
    try:
        for outcome in execute(program, budget=budget, on_rule=on_rule):
            count += 1
            if args.all_solutions and count > 1:
                print("---")
            _print_outcome(outcome)
            if args.trace == "full":
                print(format_tree(tree_of(outcome.record)), file=sys.stderr)
            if not args.all_solutions:
                return 0
    except BudgetExhausted as err:
        return _end(3, f"budget exhausted: maximum {err.what} reached", sys.stderr)
    except EvalError as err:
        return _end(3, f"runtime error: {err}", sys.stderr)
    except BrokenPipeError:  # the reader left: the search stops, and a solution found stands
        return 0 if count else 3
    return _end(0 if count else 1, f"solutions: {count}" if args.all_solutions else None)


def _cmd_parse(args) -> int:
    program = _read_program(args.file)
    if program is None:
        return 2
    return _end(0, format_program(program))


def _cmd_oracle_check(args) -> int:
    program = _read_program(args.file)
    if program is None:
        return 2
    from .oracle import check_equivalence

    report = check_equivalence(program)
    if report.excluded:
        return _end(3, f"out of oracle bounds: {report.reason}", sys.stderr)
    if report.matched:
        return _end(0, report.describe())

    def still_bad(candidate) -> bool:
        r = check_equivalence(candidate)
        return not r.excluded and not r.matched

    from .shrink import shrink

    minimal = shrink(program, still_bad)
    return _end(1, f"{report.describe()}\nminimal counterexample:\n{format_program(minimal)}")


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
    p_oracle.set_defaults(handler=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit:  # --help or a usage error, which argparse has written
        _end(None)
        raise
    return _end(args.handler(args))


if __name__ == "__main__":
    sys.exit(main())
