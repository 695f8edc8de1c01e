"""Traced replay: one program through each choo layer's public functions.

The replay first follows the CLI's own path (parse, search, format the
printed outcomes, or parse and the oracle check for `oracle-check`),
then adds the calls the CLI does not make on that command: lexing on its
own, `format_program`, the rest of the search after a first solution,
`format_tree` and `enumerate_solutions`. Every call sits inside a span;
spans carry the request they belong to and the span that caused them.
"""

from __future__ import annotations

import time
from dataclasses import fields, is_dataclass

from choo.derivation import format_tree
from choo.interp import BudgetExhausted, EvalError, ProgramState, SearchBudget, Solver
from choo.oracle import OracleRunError, OutOfBounds, check_equivalence, enumerate_solutions
from choo.parser import ParseError, lex, parse_program
from choo.syntax import format_program
from choo.terms import Var, apply, format_term


class Tracer:
    """Spans held in memory as (request, name, parent, start, end).

    The layer calls on the CLI's own path have the parent "cli-path", a
    span that covers them all; every other span has the parent "program".
    """

    def __init__(self):
        self.spans = []

    def call(self, request: int, name: str, fn, *args, parent: str = "program"):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((request, name, parent, start, time.perf_counter()))


def _ast_size(program) -> int:
    count, stack = 0, [program]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif is_dataclass(item):
            count += 1
            stack.extend(getattr(item, f.name) for f in fields(item))
    return count


def _tree_size(node):
    """(node count, height) of a derivation tree, without recursion."""
    count, height, stack = 0, 0, [(node, 1)]
    while stack:
        item, level = stack.pop()
        count += 1
        height = max(height, level)
        stack.extend((child, level + 1) for child in item.children)
    return count, height


class _Search:
    """Drives Solver the way interp.run does, keeping the derivations."""

    def __init__(self, program):
        self.state = ProgramState(program.clauses)
        self.solver = Solver(self.state, SearchBudget())
        self._nodes = self.solver.solve(program.main)
        self.outcomes = []
        self.derivations = []

    def advance(self, limit=None) -> None:
        """Collect solutions until `limit` of them are held, or the search ends."""
        state = self.state
        for node in self._nodes:
            witnesses = tuple((name, apply(state.subst, term)) for name, term in state.choices)
            self.outcomes.append((witnesses, dict(state.store)))
            self.derivations.append(node)
            if limit is not None and len(self.outcomes) >= limit:
                return


def _render(outcomes, all_solutions: bool) -> str:
    """What `choo run` prints for these outcomes."""
    lines = []
    for i, (witnesses, store) in enumerate(outcomes):
        if all_solutions and i:
            lines.append("---")
        for name, value in witnesses:
            lines.append(f"{name} = {'_' if isinstance(value, Var) else format_term(value)}")
        inner = ", ".join(f"{k} = {format_term(v)}" for k, v in sorted(store.items()))
        lines.append(f"store: {{{inner}}}")
        if not all_solutions:
            break
    if all_solutions:
        lines.append(f"solutions: {len(outcomes)}")
    return "\n".join(lines) + "\n" if lines else ""


def replay(tracer: Tracer, request: int, program, with_tree: bool = False) -> dict:
    """Run one generated program through the layers; return its counts.

    `problems` in the result lists every way the layers disagreed with
    the program's expected output. `format_tree` runs only when
    `with_tree` is set: its text indents every line by its depth and is
    rebuilt at every level, so on deep derivations it costs seconds.
    """
    counts = {"parser.errors": 0, "interp.errors": 0, "oracle.mismatches": 0, "problems": []}
    try:
        _replay(tracer, request, program, with_tree, counts)
    except ParseError as err:
        counts["parser.errors"] = 1
        counts["problems"].append(f"parse error at {err.line}:{err.column}: {err.message}")
    except (BudgetExhausted, EvalError, RecursionError) as err:
        counts["interp.errors"] = 1
        counts["problems"].append(f"search raised {type(err).__name__}: {err}")
    except (OutOfBounds, OracleRunError) as err:
        counts["oracle.mismatches"] = 1
        counts["problems"].append(f"oracle raised {type(err).__name__}: {err}")
    return counts


def _cli_path(call, program):
    """The layer calls `choo <command>` makes, in its order: (program, search, stdout)."""
    parsed = call("parser.parse", parse_program, program.source)
    search = _Search(parsed)
    if program.command == "parse":
        return parsed, search, call("syntax.format", format_program, parsed) + "\n"
    if program.command == "oracle-check":
        return parsed, search, call("oracle.check", check_equivalence, parsed).describe() + "\n"
    call("interp.first", search.advance, 1)
    if program.all_solutions:
        call("interp.rest", search.advance)
    return parsed, search, call("terms.format", _render, search.outcomes, program.all_solutions)


def _replay(tracer, request, program, with_tree, counts) -> None:
    def call(name, fn, *args):
        return tracer.call(request, name, fn, *args)

    def on_path(name, fn, *args):
        return tracer.call(request, name, fn, *args, parent="cli-path")

    parsed, search, text = call("cli-path", _cli_path, on_path, program)
    if text != program.stdout:
        counts["problems"].append(f"`{program.command}` through the layers printed other output")
        if program.command == "oracle-check":
            counts["oracle.mismatches"] = 1
    if program.command == "parse":
        return

    # what `choo` does not do on this command: the rest of the search after
    # a first solution, and the engine's half of an oracle check on its own
    if program.command == "oracle-check":
        call("interp.first", search.advance, 1)
        call("interp.rest", search.advance)
        text = call("terms.format", _render, search.outcomes, True)
        if text != program.run_stdout:
            counts["problems"].append("the engine's solutions differ from the expected ones")
        solutions, _ = call("oracle.enumerate", enumerate_solutions, parsed)
        counts["oracle.solutions"] = len(solutions)
    elif not program.all_solutions:
        call("interp.rest", search.advance)
    tokens = call("parser.lex", lex, program.source)
    call("syntax.format", format_program, parsed)
    if with_tree and search.derivations:
        call("derivation.format_tree", format_tree, search.derivations[0])

    sizes = [_tree_size(node) for node in search.derivations]
    counts.update({
        "parser.tokens": len(tokens),
        "parser.ast_nodes": _ast_size(parsed),
        "interp.steps": search.solver.steps,
        "interp.solutions": len(search.outcomes),
        "interp.derivation_nodes": sum(n for n, _ in sizes),
        "interp.derivation_height": max((h for _, h in sizes), default=0),
        "terms.output_bytes": len(text.encode("utf-8")),
    })
