"""The choo command: subcommands, output format, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import choo
from choo.cli import main
from choo.derivation import DerivationNode
from choo.oracle import EquivalenceReport
from choo.parser import parse_program


@pytest.fixture
def program_file(tmp_path):
    def write(source, name="prog.choo"):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return str(path)

    return write


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run -----------------------------------------------------------------------

def test_run_prints_the_first_witness(program_file, capsys):
    path = program_file("main { choose(x in {1..50}) (5 == fib(x)) }")
    code, out, err = invoke(capsys, ["run", path])
    assert code == 0
    assert out == "x = 6\nstore: {}\n"
    assert err == ""


def test_run_prints_witnesses_in_binder_order(program_file, capsys):
    path = program_file("main { choose(x) choose(y) (x == fib(10); y == fact(20)) }")
    code, out, _ = invoke(capsys, ["run", path])
    assert code == 0
    assert out == "x = 34\ny = 2432902008176640000\nstore: {}\n"


def test_run_renders_compound_witnesses(program_file, capsys):
    path = program_file(
        "getrecord(emp) { choose(name) choose(age) choose(sex)"
        " (tuple(name,age,sex) == emp) }\n"
        "main { getrecord(tuple(tom,31,male)) }"
    )
    code, out, _ = invoke(capsys, ["run", path])
    assert code == 0
    assert out == "name = tom\nage = 31\nsex = male\nstore: {}\n"


def test_run_prints_the_store_sorted_by_name(program_file, capsys):
    path = program_file("main { t = f(a); s = 0 - 5 }")
    code, out, _ = invoke(capsys, ["run", path])
    assert code == 0
    assert out == "store: {s = -5, t = f(a)}\n"


def test_run_marks_unconstrained_choices(program_file, capsys):
    path = program_file("main { choose(x) x == x }")
    code, out, _ = invoke(capsys, ["run", path])
    assert code == 0
    assert out == "x = _\nstore: {}\n"


def test_run_renders_fresh_variables_in_partial_witnesses(program_file, capsys):
    path = program_file("main { choose(x) choose(y) (x == f(g(y))) }")
    code, out, _ = invoke(capsys, ["run", path])
    assert code == 0
    assert out == "x = f(g(_G2))\ny = _\nstore: {}\n"


def test_run_all_separates_solutions_and_counts_them(program_file, capsys):
    path = program_file("main { choose(x in {2, 1, 2}) x < 3 }")
    code, out, _ = invoke(capsys, ["run", path, "--all"])
    assert code == 0
    assert out == (
        "x = 2\nstore: {}\n"
        "---\n"
        "x = 1\nstore: {}\n"
        "solutions: 2\n"
    )


def test_run_all_resolves_witnesses_afresh_in_each_solution(program_file, capsys):
    # y is chosen once and bound differently in each solution; z is
    # never bound and prints as a blank after resolving through x
    path = program_file("main { choose(y) choose(x in {1, 2}) choose(z) y == f(x) }")
    code, out, _ = invoke(capsys, ["run", path, "--all"])
    assert code == 0
    assert out == (
        "y = f(1)\nx = 1\nz = _\nstore: {}\n"
        "---\n"
        "y = f(2)\nx = 2\nz = _\nstore: {}\n"
        "solutions: 2\n"
    )
    path = program_file("main { choose(x in {1, 2}) choose(y) (y == f(x)) }")
    code, out, _ = invoke(capsys, ["run", path, "--all"])
    assert out == "x = 1\ny = f(1)\nstore: {}\n---\nx = 2\ny = f(2)\nstore: {}\nsolutions: 2\n"


def test_run_all_stores_values_resolved_when_assigned(program_file, capsys):
    # the binding of y is undone before the next solution; the store
    # keeps the value it had when s was written
    path = program_file("main { choose(y) choose(x in {1, 2}) (y == f(x); s = g(y)) }")
    code, out, _ = invoke(capsys, ["run", path, "--all"])
    assert code == 0
    assert out == (
        "y = f(1)\nx = 1\nstore: {s = g(f(1))}\n"
        "---\n"
        "y = f(2)\nx = 2\nstore: {s = g(f(2))}\n"
        "solutions: 2\n"
    )


def test_run_all_on_an_empty_search_reports_zero(program_file, capsys):
    path = program_file("main { choose(x in {1..0}) x == x }")
    code, out, _ = invoke(capsys, ["run", path, "--all"])
    assert code == 1
    assert out == "solutions: 0\n"


def test_run_chooses_over_the_whole_signed_64_bit_range(program_file, capsys):
    # too wide to keep, and too wide for len() or length_hint() of a range
    path = program_file("main { choose(x in {-9223372036854775808..9223372036854775807})"
                        " x == -9223372036854775807 }")
    solution = "x = -9223372036854775807\nstore: {}\n"
    assert invoke(capsys, ["run", path]) == (0, solution, "")
    assert invoke(capsys, ["run", "--all", "--max-steps", "1000", path]) == (
        3, solution, "budget exhausted: maximum steps reached\n")


def test_run_failure_prints_nothing(program_file, capsys):
    path = program_file("main { 1 == 2 }")
    code, out, err = invoke(capsys, ["run", path])
    assert code == 1
    assert out == "" and err == ""


# --- error reporting -----------------------------------------------------------------

def test_parse_errors_carry_position(program_file, capsys):
    path = program_file("main { x = }")
    code, out, err = invoke(capsys, ["run", path])
    assert code == 2
    assert out == ""
    assert err.startswith("parse error at 1:12:")
    # a digit that int() cannot read is an unexpected character, not a crash
    path = program_file("main { s = \u00b2 }")
    for command in ("run", "parse"):
        assert invoke(capsys, [command, path]) == (
            2, "", "parse error at 1:12: unexpected character '\u00b2'\n"
        )


def test_missing_file_is_reported(capsys, tmp_path):
    code, out, err = invoke(capsys, ["run", str(tmp_path / "absent.choo")])
    assert code == 2
    assert err.startswith("cannot read")


def test_a_file_that_is_not_utf8_is_reported(capsys, tmp_path):
    path = tmp_path / "latin1.choo"
    path.write_bytes(b"main { s = 1 } // \xff\n")
    code, out, err = invoke(capsys, ["run", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot read {path}: ")


@pytest.mark.parametrize("command", ["run", "parse", "oracle-check"])
def test_a_leading_byte_order_mark_is_dropped(program_file, capsys, command):
    source = "main {\n  choose(x in {1..3}) x > 1\n}\n"
    plain = invoke(capsys, [command, program_file(source)])
    assert plain[0] == 0
    assert invoke(capsys, [command, program_file("\ufeff" + source, "bom.choo")]) == plain
    # only the mark that opens the file is dropped; one later is a character like any other
    assert invoke(capsys, [command, program_file("main {\n  s = 1;\ufeff t = 2 }\n", "mid.choo")]) == (
        2, "", "parse error at 2:9: unexpected character '\\ufeff'\n")


def test_nonpositive_budgets_are_rejected(program_file, capsys):
    path = program_file("main { s = 1 }")
    code, _, err = invoke(capsys, ["run", path, "--max-depth=0"])
    assert code == 2
    assert err.startswith("bad budget:")
    code, _, err = invoke(capsys, ["run", path, "--max-steps=-3"])
    assert code == 2
    assert err.startswith("bad budget:")


def test_runtime_errors_exit_three(program_file, capsys):
    path = program_file("main { s = fact(21) }")
    code, out, err = invoke(capsys, ["run", path])
    assert code == 3
    assert out == ""
    assert err == "runtime error: integer overflow in fact\n"


def test_unbound_comparison_is_a_runtime_error(program_file, capsys):
    path = program_file("main { choose(x) x < 5 }")
    code, _, err = invoke(capsys, ["run", path])
    assert code == 3
    assert err.startswith("runtime error:")


def test_unbound_variable_errors_name_the_variable_the_program_wrote(program_file, capsys):
    for source, name in [
        ("main { choose(x) x < 5 }", "x"),
        ("main { choose(x) (y = x + 1) }", "x"),
        ("p(n) { n + 1 == 2 } main { choose(y) p(y) }", "n"),
    ]:
        code, _, err = invoke(capsys, ["run", program_file(source)])
        assert (code, err) == (3, f"runtime error: unbound variable '{name}' used in arithmetic\n")


def test_non_ground_assignment_errors_name_the_variables_the_program_wrote(program_file, capsys):
    for source, names in [
        ("main { choose(x) s = f(x) }", "x"),
        ("main { choose(x) s = x }", "x"),
        ("p(a) { s = g(a) } main { choose(y) p(y) }", "a"),
        ("main { choose(x) choose(y) (x == 1; s = f(y, x, y)) }", "y"),
        ("main { choose(x) choose(y) (x == h(y); s = f(y, x)) }", "x, y"),
    ]:
        code, _, err = invoke(capsys, ["run", program_file(source)])
        assert (code, err) == (3, f"runtime error: assigned value is not ground (unbound: {names})\n")


def test_depth_budget_exhaustion_names_the_limit(program_file, capsys):
    path = program_file("loop() { loop() } main { loop() }")
    code, out, err = invoke(capsys, ["run", path, "--max-depth=50"])
    assert code == 3
    assert out == ""
    assert err == "budget exhausted: maximum depth reached\n"


def test_step_budget_exhaustion_names_the_limit(program_file, capsys):
    path = program_file("main { choose(x in {1..100000}) x == 0 }")
    code, _, err = invoke(capsys, ["run", path, "--max-steps=100"])
    assert code == 3
    assert err == "budget exhausted: maximum steps reached\n"


def test_solutions_already_streamed_stay_printed_on_exhaustion(program_file, capsys):
    path = program_file("main { choose(x in {1..100}) x <= 2 }")
    code, out, err = invoke(capsys, ["run", path, "--all", "--max-steps=30"])
    assert code == 3
    assert "x = 1" in out and "x = 2" in out
    assert "solutions:" not in out  # the search never finished counting
    assert err == "budget exhausted: maximum steps reached\n"


# --- tracing -------------------------------------------------------------------------

def test_rule_trace_goes_to_stderr(program_file, capsys):
    path = program_file("p(x) { x == 3 } main { p(3) }")
    code, out, err = invoke(capsys, ["run", path, "--trace=rules"])
    assert code == 0
    assert out == "store: {}\n"
    rules = [line.split("]")[0] for line in err.splitlines()]
    assert rules == ["[rule 3", "[rule 3", "[rule 2", "[rule 1", "[rule 4"]
    assert "p(3)" in err.splitlines()[0]


def test_full_trace_prints_the_derivation_tree(program_file, capsys):
    path = program_file("main { s = 1; t = 2 }")
    code, out, err = invoke(capsys, ["run", path, "--trace=full"])
    assert code == 0
    assert out == "store: {s = 1, t = 2}\n"
    lines = err.splitlines()
    assert lines[0].startswith("[rule 6]")
    assert lines[1].startswith("  [rule 5]")


def test_an_untraced_run_builds_no_derivation_tree(program_file, capsys, monkeypatch):
    built = []
    init = DerivationNode.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(DerivationNode, "__init__", counting_init)
    path = program_file("down(n) { n == 0 } down(n) { n > 0; choose(m) (m == n - 1; down(m)) }"
                        " main { down(300) }")
    code, out, err = invoke(capsys, ["run", path])
    assert (code, err) == (0, "")
    assert out.count("m = ") == 300
    assert built == []


# --- parse ---------------------------------------------------------------------------

def test_parse_prints_a_reparseable_program(program_file, capsys):
    source = (
        "q(x) { x == 1 }\n"
        "main { s = 2 + 3 * 4; choose(y in {1..3}) (q(y); y != 2) }"
    )
    path = program_file(source)
    code, out, err = invoke(capsys, ["parse", path])
    assert code == 0
    assert err == ""
    assert parse_program(out) == parse_program(source)


def test_parse_rejects_bad_programs(program_file, capsys):
    path = program_file("main { choose(x) }")
    code, out, err = invoke(capsys, ["parse", path])
    assert code == 2
    assert out == ""
    assert err.startswith("parse error at ")


def fresh_choo(*argv, module="choo.cli"):
    """choo in a new interpreter, so it starts with the default recursion
    limit; module "choo" runs it as `python -m choo` does."""
    src = str(Path(choo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_parse_round_trips_a_long_flat_program(program_file):
    body = "; ".join(f"s = {i}" for i in range(10_000))
    proc = fresh_choo("parse", program_file(f"main {{ {body} }}"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"main {{\n  {body}\n}}\n"


def test_parse_still_rejects_deep_nesting(program_file):
    source = "main { " + "(" * 600 + "1 == 1" + ")" * 600 + " }"
    for module in ("choo.cli", "choo"):
        proc = fresh_choo("parse", program_file(source), module=module)
        assert proc.returncode == 2
        assert "nesting too deep" in proc.stderr


def test_a_reader_that_leaves_early_ends_the_command_quietly(program_file):
    # `choo run --all | head -1`: the search stops, nothing more is written,
    # not even by the flush at shutdown, and the exit status is what had
    # been found: a solution was being printed. A closed stderr under
    # --trace ends the command the same way, and with no solution found
    # yet it exits 3, as an unfinished search does. A reader that leaves
    # before the first write is found by the flush at the end.
    many = program_file("main { choose(x in {1..5000}) choose(y in {1, 2}) x > 0 }", "many.choo")
    none = program_file("main { choose(x in {1..100000}) x < 0 }", "none.choo")
    pythagorean = str(Path(__file__).resolve().parent.parent / "programs" / "pythagorean.choo")
    env = {**os.environ, "PYTHONPATH": str(Path(choo.__file__).resolve().parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffers as it does for a user
    for argv, closed, first, status in (
            (["run", many, "--all"], "stdout", "x = 1\n", 0),
            (["run", none, "--trace=rules"], "stderr", "[rule 8] choose(x in {1..100000}) x < 0\n", 3),
            (["run", pythagorean, "--all"], "stdout", None, 0)):
        proc = subprocess.Popen([sys.executable, "-m", "choo.cli", *argv], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        reader = getattr(proc, closed)
        if first is not None:
            assert reader.readline() == first, argv
        reader.close()
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out or err) == (status, ""), argv


# Runs cli.main on each argv in one new interpreter and reports, per call,
# its exit code and which of the checking and tracing modules are loaded.
_LOADED = """
import contextlib, io, json, sys
from choo.cli import main

report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report.append([code, sorted({"choo.derivation", "choo.oracle", "choo.shrink"} & set(sys.modules))])
print(json.dumps(report))
"""


def test_a_command_loads_only_the_modules_it_runs(program_file):
    # the oracle, the shrinker and derivation trees check and trace a
    # search: parse and run load none of them, --trace=full loads the
    # trees, and an oracle-check that matches loads the oracle alone
    path = program_file("main { choose(x in {1..3}) x == 2 }")
    calls = [["parse", path], ["run", path], ["run", path, "--trace=full"], ["oracle-check", path]]
    src = str(Path(choo.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, json.dumps(calls)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [
        [0, []], [0, []], [0, ["choo.derivation"]], [0, ["choo.derivation", "choo.oracle"]]]


# --- deep and long searches in one fresh interpreter ------------------------------------

# Runs cli.main on each (argv, source) in order inside one new interpreter
# and reports, per call, what it printed and what the interpreter looked
# like afterwards. parse calls also report whether the printed program
# parses back to the same tree, and whether parse_program called 900
# frames down gives what it gives at the top of the stack; the tree check
# walks both trees in a loop, because dataclass == recurses once per level
# of a 3000-term sum.
_DRIVER = """
import contextlib, dataclasses, io, json, sys, threading
from choo.cli import main
from choo.parser import ParseError, parse_program

def parsed(source, frames=0):
    if frames:
        return parsed(source, frames - 1)
    try:
        return parse_program(source)
    except ParseError as err:
        return (err.line, err.column, err.message)

def same_tree(a, b):
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):
            if len(x) != len(y):
                return False
            pairs.extend(zip(x, y))
        elif dataclasses.is_dataclass(x):
            pairs.extend((getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
        elif x != y:
            return False
    return True

limit = sys.getrecursionlimit()
report = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    entry = {
        "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
        "state": [sys.getrecursionlimit() == limit, threading.stack_size(), threading.active_count()],
    }
    if argv[0] == "parse":
        with open(argv[1], encoding="utf-8") as f:
            source = f.read()
        program = parsed(source)
        entry["same_at_depth"] = same_tree(parsed(source, 900), program)
        if code == 0:
            entry["round_trip"] = same_tree(parse_program(out.getvalue()), program)
    report.append(entry)
print(json.dumps(report))
"""


def _peano(k):
    return "s(" * k + "z" + ")" * k


def _chain(n, first):
    """first; s1 = s0 + 1; ...; s{n-1} = s{n-2} + 1, and the store it leaves."""
    stmts = [f"s0 = {first}"] + [f"s{i} = s{i - 1} + 1" for i in range(1, n)]
    return "; ".join(stmts), lambda s0: {f"s{i}": str(s0 + i) for i in range(n)}


def _store_line(store):
    return "store: {" + ", ".join(f"{k} = {v}" for k, v in sorted(store.items())) + "}\n"


def _deep_cases():
    """(name, source, {command: (exit code, stdout, stderr)}) for each probe."""
    too_tall = (3, "", "out of oracle bounds: derivation height\n")
    chain, chain_store = _chain(3000, "x")
    peano_witnesses = [("x", _peano(300))]
    for k in range(300, 0, -1):
        peano_witnesses += [("p", k - 1), ("y", _peano(k - 1))]
    peano_witnesses += [("y", _peano(k)) for k in range(299, -1, -1)]
    term = _peano(450)
    # mk10 builds s^1000(z) ten levels a call; the bounded choose then puts
    # that run-time term into goal syntax, which the nested choose walks
    mk10 = ("mk(n, x) { n == 0; x == z }\n"
            "mk(n, x) { n > 0; choose(p) choose(y) "
            "(p == n - 1; x == " + _peano(10).replace("z", "y") + "; mk(p, y)) }\n")
    mk10_witnesses = [("x", _peano(1000))]
    for k in range(100, 0, -1):
        mk10_witnesses += [("p", k - 1), ("y", _peano(10 * (k - 1)))]
    mk10_witnesses += [("z", _peano(1000)), ("w", 1)]
    # three 400-deep elements, each wrapping the one before: 1200 deep
    # once substituted, and the oracle matches its pin through all of it
    f400 = lambda inner: "f(" * 400 + inner + ")" * 400  # noqa: E731
    stacked = [("a", f400("z")), ("b", f400(f400("z"))), ("c", f400(f400(f400("z")))), ("y", "q")]
    return [
        ("down", "down(n) { n == 0 }\n"
                 "down(n) { n > 0; choose(m) (m == n - 1; down(m)) }\n"
                 "main { down(1500) }",
         {"run": (0, "".join(f"m = {k}\n" for k in range(1499, -1, -1)) + "store: {}\n", ""),
          "oracle-check": too_tall}),
        ("peano", "mk(n, x) { n == 0; x == z }\n"
                  "mk(n, x) { n > 0; choose(p) choose(y) (p == n - 1; x == s(y); mk(p, y)) }\n"
                  "nat(x) { x == z }\n"
                  "nat(x) { choose(y) (x == s(y); nat(y)) }\n"
                  "main { choose(x) (mk(300, x); nat(x)) }",
         {"run": (0, "".join(f"{n} = {v}\n" for n, v in peano_witnesses) + "store: {}\n", ""),
          "oracle-check": (3, "", "out of oracle bounds: choose(x) has no ground pin\n")}),
        ("chain_bounded", f"main {{ choose(x in {{1, 2}}) ({chain}; x == 2) }}",
         {"run": (0, "x = 2\n" + _store_line(chain_store(2)), ""), "oracle-check": too_tall}),
        ("chain_clause", f"p(x) {{ {chain}; x == 1 }}\nmain {{ p(1) }}",
         {"run": (0, _store_line(chain_store(1)), ""), "oracle-check": too_tall}),
        ("chain_unbounded", f"main {{ choose(x) (x == 5; {chain}) }}",
         {"run": (0, "x = 5\n" + _store_line(chain_store(5)), ""), "oracle-check": too_tall}),
        ("sum_bounded", "main { choose(x in {1, 2}) s = x" + " + 1" * 2999 + " }",
         {"run": (0, "x = 1\nstore: {s = 3000}\n", ""),
          "oracle-check": (0, "match: 2 solutions\n", ""), "parse": None}),
        ("term_element", f"main {{ choose(x in {{a, {term}}}) x == {term} }}",
         {"run": (0, f"x = {term}\nstore: {{}}\n", ""),
          "oracle-check": (0, "match: 1 solutions\n", ""), "parse": None}),
        ("nested_chooses", "main { " + "".join(f"choose(x{i} in {{{i}}}) " for i in range(480))
         + "x0 == 0 }",
         {"run": (0, "".join(f"x{i} = {i}\n" for i in range(480)) + "store: {}\n", ""),
          "oracle-check": too_tall}),
        ("runtime_term_element", mk10 + "main { choose(x) (mk(100, x); "
                                         "choose(z in {x}) choose(w) (w == 1; z == x)) }",
         {"run": (0, "".join(f"{n} = {v}\n" for n, v in mk10_witnesses) + "store: {}\n", ""),
          "oracle-check": (3, "", "out of oracle bounds: choose(x) has no ground pin\n")}),
        ("stacked_elements", f"main {{ choose(a in {{{f400('z')}}}) "
                             f"choose(b in {{{f400('a')}}}) choose(c in {{{f400('b')}}}) "
                             "choose(y) (g(c, y) == g(c, q); c == c) }",
         {"run": (0, "".join(f"{n} = {v}\n" for n, v in stacked) + "store: {}\n", ""),
          "oracle-check": (0, "match: 1 solutions\n", "")}),
        ("sum", "main { s = 1" + " + 1" * 2999 + " }", {"parse": None}),
        ("term330", f"main {{ choose(x) x == {_peano(330)} }}", {"parse": None}),
        ("term490", f"main {{ choose(x) x == {_peano(490)} }}", {"parse": None}),
    ]


def test_deep_and_long_searches_leave_the_interpreter_as_it_was(tmp_path):
    cases = _deep_cases()
    for name, source, _ in cases:
        (tmp_path / f"{name}.choo").write_text(source, encoding="utf-8")
    # parse first, so that it starts from the interpreter's defaults too
    calls, expected = [], []
    for command in ("parse", "run", "oracle-check"):
        for name, _, outcomes in cases:
            if command in outcomes:
                calls.append([command, str(tmp_path / f"{name}.choo")])
                expected.append((name, command, outcomes[command]))
    src = str(Path(choo.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(calls)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=600,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    for (name, command, outcome), entry in zip(expected, report, strict=True):
        where = f"{command} {name}"
        # nothing leaks into the rest of the process: recursion limit
        # unchanged, default thread stack size, no thread left behind
        assert entry["state"] == [True, 0, 1], where
        if outcome is None:  # parse: the printed program reads back as the same tree
            assert (entry["code"], entry["stderr"], entry["round_trip"]) == (0, "", True), where
        else:
            assert (entry["code"], entry["stdout"], entry["stderr"]) == outcome, where


def _nesting_cases(n):
    """(name, source, column of the token that opens the n-th construct)
    for each construct that nests; all of them sit on line 1."""
    main, call = "main { ", "p(x) { x == x } main { "
    chooses = "".join(f"choose(x{i}) " for i in range(n))
    bounded = "".join(f"choose(x{i} in {{{i}}}) " for i in range(n - 1))
    at = lambda prefix, k=0: len(prefix) + k + 1  # noqa: E731
    return [
        ("paren_goal", main + "(" * n + "1 == 1" + ")" * n + " }", at(main, n - 1)),
        ("left_seq", main + "(" * n + "s = 0" + "; s = 1)" * n + " }", at(main, n - 1)),
        ("paren_choose", main + "(" * (n - 1) + "choose(x) x == 1" + ")" * (n - 1) + " }",
         at(main, n - 1)),
        ("choose_chain", main + chooses + "x0 == 0 }", at(main + chooses) - len(f"choose(x{n - 1}) ")),
        ("bounded_chain", main + bounded + "(x0 == 0) }", at(main + bounded)),
        ("paren_expr", main + "s = " + "(" * n + "1" + ")" * n + " }", at(main + "s = ", n - 1)),
        ("fact_call", main + "s = " + "fact(" * n + "1" + ")" * n + " }", at(main + "s = ", 5 * (n - 1))),
        ("cond_term", main + f"choose(x) x == {_peano(n - 1)} }}", at(main + "choose(x) x == ", 2 * (n - 2))),
        ("call_arg", call + f"p({_peano(n - 1)}) }}", at(call + "p(", 2 * (n - 2))),
        ("set_element", main + f"choose(x in {{{_peano(n - 1)}}}) x == x }}",
         at(main + "choose(x in {", 2 * (n - 2))),
    ]


# exit codes at 500 levels under run, both traces and oracle-check
_AT_THE_LIMIT = {
    "paren_goal": (0, 0, 0, 0), "left_seq": (0, 0, 0, 3), "paren_choose": (0, 0, 0, 0),
    "choose_chain": (0, 0, 0, 3),
    "bounded_chain": (0, 0, 0, 3), "paren_expr": (0, 0, 0, 0), "fact_call": (0, 0, 0, 0),
    "cond_term": (0, 0, 0, 0), "call_arg": (0, 0, 0, 0), "set_element": (0, 0, 0, 0),
}


def test_every_construct_nests_500_deep_and_no_deeper(tmp_path):
    # the limit counts the constructs open at once, whatever they are, and
    # the answer is the same at any depth of the caller's stack
    commands = [["parse"], ["run"], ["run", "--trace=full"], ["run", "--trace=rules"],
                ["oracle-check"]]
    calls, expected = [], []
    for n in (500, 501):
        for name, source, column in _nesting_cases(n):
            path = tmp_path / f"{name}{n}.choo"
            path.write_text(source, encoding="utf-8")
            for command, *flags in commands:
                calls.append([command, str(path), *flags])
                expected.append((f"{name}{n} {' '.join([command, *flags])}", n, name, column))
    src = str(Path(choo.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(calls)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=600,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    for (where, n, name, column), argv, entry in zip(expected, calls, report, strict=True):
        if argv[0] == "parse":
            assert entry["same_at_depth"], where
        if n == 501:
            error = f"parse error at 1:{column}: nesting too deep\n"
            assert (entry["code"], entry["stdout"], entry["stderr"]) == (2, "", error), where
        elif argv[0] == "parse":
            assert (entry["code"], entry["stderr"], entry["round_trip"]) == (0, "", True), where
        else:
            code = _AT_THE_LIMIT[name][commands.index(argv[:1] + argv[2:]) - 1]
            assert entry["code"] == code, where
            assert entry["stderr"] == "" or entry["stderr"].startswith(
                ("[rule ", "out of oracle bounds")), where


# --- oracle-check ----------------------------------------------------------------------

def test_oracle_check_reports_a_match(program_file, capsys):
    path = program_file("main { choose(x in {1..50}) (5 == fib(x)) }")
    code, out, err = invoke(capsys, ["oracle-check", path])
    assert code == 0
    assert out == "match: 1 solutions\n"
    assert err == ""


def test_oracle_check_enumerates_derivations_up_to_the_height_bound(program_file, capsys):
    # every `;` of a straight-line main adds a level, and the default bound is 50
    def straight_line(n):
        return program_file("main { " + "; ".join(f"s = {i}" for i in range(n)) + " }")

    assert invoke(capsys, ["oracle-check", straight_line(50)]) == (0, "match: 1 solutions\n", "")
    assert invoke(capsys, ["oracle-check", straight_line(51)]) == (
        3, "", "out of oracle bounds: derivation height\n")


def test_oracle_check_stops_at_the_first_failed_read_as_run_does(program_file, capsys):
    # s is unset when read, so the condition fails before 1 / 0 is reached
    path = program_file("main { s + 1 / 0 == 2; s = 3 }")
    assert invoke(capsys, ["run", path]) == (1, "", "")
    assert invoke(capsys, ["oracle-check", path]) == (0, "match: 0 solutions\n", "")


def test_oracle_check_says_when_both_sides_raise_runtime_errors(capsys):
    path = str(Path(__file__).resolve().parent / "golden" / "div_zero.choo")
    assert invoke(capsys, ["run", path]) == (3, "", "runtime error: division by zero\n")
    assert invoke(capsys, ["oracle-check", path]) == (
        0, "match: both raised runtime errors\n", "")


def test_oracle_check_flags_programs_it_cannot_enumerate(program_file, capsys):
    path = program_file("main { choose(x) x == x }")
    code, out, err = invoke(capsys, ["oracle-check", path])
    assert code == 3
    assert out == ""
    assert err.startswith("out of oracle bounds:")


def test_oracle_check_takes_no_seed(program_file, capsys):
    # candidates are shrunk in source order, so there is no order to seed
    path = program_file("main { s = 1 }")
    with pytest.raises(SystemExit) as exit_:
        main(["oracle-check", "--seed", "1", path])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_oracle_check_shrinks_mismatches(program_file, capsys, monkeypatch):
    # a stand-in comparison that calls any program still assigning to s a
    # mismatch exercises the reporting and minimization plumbing
    def fake_check(program):
        from choo.syntax import Assign, BoundedChoose, Choose, Seq

        def assigns_s(goal):
            match goal:
                case Seq(first, second):
                    return assigns_s(first) or assigns_s(second)
                case Choose(_, body) | BoundedChoose(_, _, body):
                    return assigns_s(body)
                case Assign("s", _):
                    return True
            return False

        if assigns_s(program.main):
            return EquivalenceReport(matched=False, engine=["end"], oracle=["division"])
        return EquivalenceReport(matched=True, engine=["end"], oracle=["end"])

    monkeypatch.setattr("choo.oracle.check_equivalence", fake_check)
    path = program_file("main { s = 1; t = 2; choose(x in {1..3}) x == 2 }")
    code, out, err = invoke(capsys, ["oracle-check", path])
    assert code == 1
    assert out.startswith("mismatch:")
    assert "minimal counterexample:" in out
    body = out.split("minimal counterexample:\n", 1)[1]
    assert "s =" in body
    assert "t =" not in body and "choose" not in body
