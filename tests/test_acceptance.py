"""Acceptance gate: the eight shipping criteria, one test each.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion. Every criterion is exact — no tolerances anywhere.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import choo
from choo.interp import ProgramState, SearchBudget, Solver, execute
from choo.oracle import check_equivalence
from choo.shrink import shrink
from choo.syntax import Choose, Compare, Seq, SourceProgram, TermLit, format_program
from choo.terms import Int, Var, apply
from proggen import gen_program, gen_straightline
from termgen import cyclic_pair, random_term, unifiable_pair, unify

from test_golden import CASES as GOLDEN_CASES, GOLDEN
from test_interp import snapshot

# the CLI subprocesses import the same choo as this test, installed or not
CHOO_ENV = {**os.environ, "PYTHONPATH": str(Path(choo.__file__).resolve().parent.parent)}


def _report(n, desc, ok, detail=""):
    print(f"criterion {n} [{desc}]: {'PASS' if ok else 'FAIL'}")
    if detail and not ok:
        print(f"  {detail}")
    return ok


def _cli(source_or_path, *args, tmp_path=None):
    if isinstance(source_or_path, Path):
        path = source_or_path
    else:
        path = tmp_path / "prog.choo"
        path.write_text(source_or_path, encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "choo.cli", "run", str(path), *args],
        capture_output=True,
        text=True,
        env=CHOO_ENV,
    )


def test_criterion_1_fib_index_search(tmp_path):
    start = time.monotonic()
    proc = _cli("main { choose(x in {1..50}) (5 == fib(x)) }", tmp_path=tmp_path)
    elapsed = time.monotonic() - start
    ok = (
        proc.returncode == 0
        and proc.stdout.splitlines()[0] == "x = 6"
        and elapsed < 1.0
    )
    assert _report(
        1, "fib index search", ok,
        f"exit={proc.returncode} out={proc.stdout!r} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_double_choose(tmp_path):
    fibs = [0, 1]
    while len(fibs) < 10:
        fibs.append(fibs[-1] + fibs[-2])
    expected_x = fibs[9]  # tenth value of the sequence starting 0, 1
    expected_y = math.factorial(20)
    proc = _cli(
        "main { choose(x) choose(y) (x == fib(10); y == fact(20)) }",
        tmp_path=tmp_path,
    )
    lines = proc.stdout.splitlines()
    ok = (
        proc.returncode == 0
        and lines[:2] == [f"x = {expected_x}", f"y = {expected_y}"]
        and expected_x == 34
        and expected_y == 2432902008176640000
    )
    assert _report(2, "double choose", ok, f"exit={proc.returncode} out={proc.stdout!r}")


def test_criterion_3_record_destructuring(tmp_path):
    proc = _cli(
        "getrecord(emp) { choose(name) choose(age) choose(sex)"
        " (tuple(name,age,sex) == emp) }\n"
        "main { getrecord(tuple(tom,31,male)) }",
        tmp_path=tmp_path,
    )
    ok = proc.returncode == 0 and proc.stdout.splitlines()[:3] == [
        "name = tom",
        "age = 31",
        "sex = male",
    ]
    assert _report(3, "record destructuring", ok, f"exit={proc.returncode} out={proc.stdout!r}")


def test_criterion_4_print_encoding_property():
    rng = random.Random(9004)
    passed = 0
    failures = []
    for i in range(100):
        goal, expr, value = gen_straightline(rng)
        encoded = Choose("x", Seq(goal, Compare("==", TermLit(Var("x")), expr)))
        outcomes = list(execute(SourceProgram((), encoded)))
        if len(outcomes) == 1 and dict(outcomes[0].witnesses).get("x") == Int(value):
            passed += 1
        elif len(failures) < 3:
            failures.append(f"case {i}: {len(outcomes)} solutions, wanted x = {value}")
    assert _report(
        4, "print encoding", passed == 100,
        f"{passed}/100 passed; " + "; ".join(failures),
    )


def test_criterion_5_oracle_equivalence():
    rng = random.Random(9005)
    matched = 0
    excluded = 0
    attempts = 0
    counterexample = None
    while matched < 500 and attempts < 8000 and counterexample is None:
        attempts += 1
        program = gen_program(rng)
        report = check_equivalence(program)
        if report.excluded:
            excluded += 1
            continue
        if report.matched:
            matched += 1
            continue

        def still_bad(candidate):
            r = check_equivalence(candidate)
            return not r.excluded and not r.matched

        minimal = shrink(program, still_bad)
        counterexample = (report.describe(), format_program(minimal))
    detail = f"{matched}/500 matched, {excluded} out of bounds, {attempts} drawn"
    if counterexample is not None:
        detail += (
            f"\n  {counterexample[0]}\n  minimal counterexample:\n{counterexample[1]}"
        )
    assert _report(5, "oracle equivalence", matched == 500 and counterexample is None, detail)


def test_criterion_6_unification_suite():
    rng = random.Random(9006)
    failures = []

    for i in range(1_000):
        if i % 2:
            t1, t2, _ = unifiable_pair(rng)
        else:
            t1 = random_term(rng, ("X", "Y", "Z"), depth=3)
            t2 = random_term(rng, ("X", "Y", "W"), depth=3)
        sigma = unify(t1, t2)
        if sigma is None:
            continue
        if apply(sigma, t1) != apply(sigma, t2):
            failures.append(f"unsound on pair {i}")
        if apply(sigma, apply(sigma, t1)) != apply(sigma, t1):
            failures.append(f"apply not idempotent on pair {i}")

    for i in range(100):
        var, context = cyclic_pair(rng)
        if unify(var, context) is not None:
            failures.append(f"accepted cyclic case {i}")

    assert _report(
        6, "unification suite", not failures,
        f"{len(failures)} failures: " + "; ".join(failures[:5]),
    )


def test_criterion_7_failure_purity():
    rng = random.Random(9007)
    checked = 0
    attempts = 0
    impure = []
    budget = SearchBudget(max_depth=2000, max_steps=50_000)
    while checked < 200 and attempts < 8000:
        attempts += 1
        program = gen_program(rng)
        state = ProgramState(program.clauses)
        before = snapshot(state)
        try:
            outcomes = list(Solver(state, budget=budget).records(program.main))
        except Exception:
            continue
        if outcomes:
            continue
        checked += 1
        if snapshot(state) != before:
            impure.append(format_program(program))
    ok = checked == 200 and not impure
    detail = f"{checked}/200 failing programs checked, {len(impure)} left residue"
    if impure:
        detail += "\n" + impure[0]
    assert _report(7, "failure purity", ok, detail)


def test_criterion_8_exit_status_and_determinism():
    def run_suite():
        results = []
        for name, args, _ in GOLDEN_CASES:
            proc = subprocess.run(
                [sys.executable, "-m", "choo.cli", "run",
                 str(GOLDEN / f"{name}.choo"), *args],
                capture_output=True,
                env=CHOO_ENV,
            )
            results.append((name, proc.returncode, proc.stdout, proc.stderr))
        return results

    first = run_suite()
    second = run_suite()

    rules_seen = set()
    for name, args, _ in GOLDEN_CASES:
        proc = subprocess.run(
            [sys.executable, "-m", "choo.cli", "run",
             str(GOLDEN / f"{name}.choo"), "--trace=rules", *args],
            capture_output=True,
            text=True,
            env=CHOO_ENV,
        )
        for line in proc.stderr.splitlines():
            if line.startswith("[rule "):
                rules_seen.add(int(line[6:line.index("]")]))

    statuses = {code for _, code, _, _ in first}
    problems = []
    if first != second:
        diffs = [a[0] for a, b in zip(first, second) if a != b]
        problems.append(f"outputs differ between runs: {diffs}")
    if len(GOLDEN_CASES) < 15:
        problems.append(f"only {len(GOLDEN_CASES)} programs")
    if statuses != {0, 1, 2, 3}:
        problems.append(f"exit statuses seen: {sorted(statuses)}")
    if rules_seen < {1, 2, 3, 4, 5, 6, 7, 8}:
        problems.append(f"rules exercised: {sorted(rules_seen)}")
    sources = " ".join(
        (GOLDEN / f"{name}.choo").read_text() for name, _, _ in GOLDEN_CASES
    )
    if "{1..0}" not in sources and "{}" not in sources:
        problems.append("no empty choice set in the suite")
    if "{2, 1, 2}" not in sources:
        problems.append("no duplicate set elements in the suite")
    if "fact(21)" not in sources:
        problems.append("no fact(21) overflow in the suite")

    assert _report(8, "exit status and determinism", not problems, "; ".join(problems))
