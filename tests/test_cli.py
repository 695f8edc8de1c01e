"""The choo command: subcommands, output format, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import choo
from choo import EquivalenceReport, parse_program
from choo.cli import main


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


def test_run_all_on_an_empty_search_reports_zero(program_file, capsys):
    path = program_file("main { choose(x in {1..0}) x == x }")
    code, out, _ = invoke(capsys, ["run", path, "--all"])
    assert code == 1
    assert out == "solutions: 0\n"


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


def test_missing_file_is_reported(capsys, tmp_path):
    code, out, err = invoke(capsys, ["run", str(tmp_path / "absent.choo")])
    assert code == 2
    assert err.startswith("cannot read")


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


def fresh_choo(*argv):
    """choo in a new interpreter, so it starts with the default recursion limit."""
    src = str(Path(choo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "choo.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_parse_round_trips_a_long_flat_program(program_file):
    body = "; ".join(f"s = {i}" for i in range(10_000))
    proc = fresh_choo("parse", program_file(f"main {{ {body} }}"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"main {{\n  {body}\n}}\n"


def test_parse_still_rejects_deep_nesting(program_file):
    source = "main { " + "(" * 600 + "1 == 1" + ")" * 600 + " }"
    proc = fresh_choo("parse", program_file(source))
    assert proc.returncode == 2
    assert "nesting too deep" in proc.stderr


# --- oracle-check ----------------------------------------------------------------------

def test_oracle_check_reports_a_match(program_file, capsys):
    path = program_file("main { choose(x in {1..50}) (5 == fib(x)) }")
    code, out, err = invoke(capsys, ["oracle-check", path])
    assert code == 0
    assert out == "match: 1 solutions\n"
    assert err == ""


def test_oracle_check_flags_programs_it_cannot_enumerate(program_file, capsys):
    path = program_file("main { choose(x) x == x }")
    code, out, err = invoke(capsys, ["oracle-check", path])
    assert code == 3
    assert out == ""
    assert err.startswith("out of oracle bounds:")


def test_oracle_check_shrinks_mismatches(program_file, capsys, monkeypatch):
    # a stand-in comparison that calls any program still assigning to s a
    # mismatch exercises the reporting and minimization plumbing
    def fake_check(program, bounds=None, budget=None):
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
            return EquivalenceReport(matched=False, reason="solution sets differ")
        return EquivalenceReport(matched=True)

    monkeypatch.setattr("choo.cli.check_equivalence", fake_check)
    path = program_file("main { s = 1; t = 2; choose(x in {1..3}) x == 2 }")
    code, out, err = invoke(capsys, ["oracle-check", path])
    assert code == 1
    assert out.startswith("mismatch:")
    assert "minimal counterexample:" in out
    body = out.split("minimal counterexample:\n", 1)[1]
    assert "s =" in body
    assert "t =" not in body and "choose" not in body
