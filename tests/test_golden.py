"""Frozen end-to-end outputs: each program's stdout/stderr is pinned to a file.

For every case that exits 0, the stderr of `--trace=full` and of
`--trace=rules` is pinned too, in <name>.full and <name>.rules.

Regenerate an expectation only when the change in behavior is deliberate:

    python -m choo.cli run tests/golden/<name>.choo <args> > tests/golden/<name>.out
    python -m choo.cli run tests/golden/<name>.choo <args> --trace=full 2> tests/golden/<name>.full
    python -m choo.cli run tests/golden/<name>.choo <args> --trace=rules 2> tests/golden/<name>.rules
"""

from pathlib import Path

import pytest

from choo.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (program, extra argv, expected exit status)
CASES = [
    ("fib_index", [], 0),
    ("double_choose", [], 0),
    ("getrecord", [], 0),
    ("assign_seq", [], 0),
    ("assign_replace", [], 0),
    ("fail_cond", [], 1),
    ("empty_range", ["--all"], 1),
    ("dup_enum", ["--all"], 0),
    ("parse_error", [], 2),
    ("scope_error", [], 2),
    ("overflow", [], 3),
    ("budget_loop", ["--max-depth=50"], 3),
    ("unconstrained", [], 0),
    ("clause_order", ["--all"], 0),
    ("backtrack_store", [], 0),
    ("nested_witness", [], 0),
    ("undefined_proc", [], 3),
    ("unbound_lt", [], 3),
    ("div_zero", [], 3),
    ("print_encoding", [], 0),
]


def expected(name, suffix):
    path = GOLDEN / f"{name}{suffix}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("name,args,status", CASES, ids=[c[0] for c in CASES])
def test_golden(name, args, status, capsys):
    argv = ["run", str(GOLDEN / f"{name}.choo"), *args]
    code = main(argv)
    first = capsys.readouterr()
    assert code == status
    assert first.out == expected(name, ".out")
    assert first.err == expected(name, ".err")
    # a second run behaves identically: search order is deterministic
    assert main(argv) == status
    second = capsys.readouterr()
    assert (second.out, second.err) == (first.out, first.err)


SOLVED = [c for c in CASES if c[2] == 0]


@pytest.mark.parametrize("mode", ["full", "rules"])
@pytest.mark.parametrize("name,args,status", SOLVED, ids=[c[0] for c in SOLVED])
def test_golden_trace(name, args, status, mode, capsys):
    code = main(["run", str(GOLDEN / f"{name}.choo"), *args, f"--trace={mode}"])
    got = capsys.readouterr()
    assert code == status
    # tracing writes to stderr only, so stdout stays the untraced golden
    assert got.out == expected(name, ".out")
    assert got.err == (GOLDEN / f"{name}.{mode}").read_text(encoding="utf-8")


def test_the_suite_exercises_every_exit_status():
    assert {status for _, _, status in CASES} == {0, 1, 2, 3}


def test_the_suite_keeps_its_breadth():
    assert len(CASES) >= 15
    sources = {name: (GOLDEN / f"{name}.choo").read_text() for name, _, _ in CASES}
    assert any("{1..0}" in s or "{}" in s for s in sources.values())
    assert "{2, 1, 2}" in sources["dup_enum"]
    assert "fact(21)" in sources["overflow"]
