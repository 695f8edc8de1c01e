"""Concrete syntax: shapes, positions, scoping, totality, round-trips.

`tests/golden/parse.sha256` pins what `parse_program` makes of the
golden programs, `programs/`, `gen_program` seeds 0-999 and 5,000
seeded mutations of those: one line per source, the first 16 hex
digits of the SHA-256 of the formatted program, or of `line:col
message` for a parse error. Regenerate it only after a deliberate
change to what the parser accepts or reports, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_parser.py > tests/golden/parse.sha256

`tests/golden/lex.sha256` pins the token stream `lex` makes of those
sources, of 2,000 seeded mutations over a wider alphabet (tabs,
carriage returns, uppercase and non-ASCII letters, `²`, `_`, blanks at
the end of input) and of two named cases. Regenerate it only after a
deliberate change to what the lexer accepts or reports:

    PYTHONPATH=src python tests/test_parser.py --lex > tests/golden/lex.sha256

To see one source, such as a mutation the test names:

    PYTHONPATH=src python tests/test_parser.py --show mutant/0042
"""

import hashlib
import random
import sys
from pathlib import Path

import pytest

from choo import parser
from choo.parser import ParseError, lex, parse_goal, parse_program
from choo.syntax import (
    Assign,
    BinOp,
    BoundedChoose,
    Call,
    Choose,
    Clause,
    Compare,
    Enum,
    FunCall,
    IntLit,
    Range,
    Seq,
    TermLit,
    VarRef,
    format_program,
)
from choo.terms import INT64_MAX, INT64_MIN, Atom, Compound, Int, Var
from proggen import gen_program


def lv(name):
    return TermLit(Var(name))


# --- shapes of the reference programs ------------------------------------------

def test_bounded_search_program_shape():
    program = parse_program("main { choose(x in {1..50}) (5 == fib(x)) }")
    assert program.clauses == ()
    assert program.main == BoundedChoose(
        "x", Range(1, 50), Compare("==", IntLit(5), FunCall("fib", lv("x")))
    )


def test_record_destructuring_program_shape():
    source = (
        "getrecord(emp) { choose(name) choose(age) choose(sex)"
        " (tuple(name,age,sex) == emp) }\n"
        "main { getrecord(tuple(tom,31,male)) }"
    )
    program = parse_program(source)
    match_cond = Compare(
        "==",
        TermLit(Compound("tuple", (Var("name"), Var("age"), Var("sex")))),
        lv("emp"),
    )
    assert program.clauses == (
        Clause("getrecord", ("emp",), Choose("name", Choose("age", Choose("sex", match_cond)))),
    )
    assert program.main == Call(
        "getrecord", (Compound("tuple", (Atom("tom"), Int(31), Atom("male"))),)
    )


def test_assignment_with_arithmetic():
    assert parse_goal("x = 3 + 4") == Assign("x", BinOp("+", IntLit(3), IntLit(4)))


def test_nested_choose_over_a_sequence():
    g = parse_goal("choose(x) choose(y) (x == fib(10); y == fact(20))")
    assert g == Choose(
        "x",
        Choose(
            "y",
            Seq(
                Compare("==", lv("x"), FunCall("fib", IntLit(10))),
                Compare("==", lv("y"), FunCall("fact", IntLit(20))),
            ),
        ),
    )


def test_enum_choose_with_atoms():
    g = parse_goal("choose(x in {tom, bob}) (x == bob)")
    assert g == BoundedChoose(
        "x", Enum((Atom("tom"), Atom("bob"))), Compare("==", lv("x"), TermLit(Atom("bob")))
    )


def test_identifier_classification_follows_scope():
    # a choose-bound name is a logic variable; an assigned name is a
    # store read in expression position; anything else is plain data
    g = parse_goal("t = 1; t == bob")
    assert g == Seq(
        Assign("t", IntLit(1)),
        Compare("==", VarRef("t"), TermLit(Atom("bob"))),
    )
    g2 = parse_goal("choose(t) t == bob")
    assert g2 == Choose("t", Compare("==", lv("t"), TermLit(Atom("bob"))))


def test_assignment_anywhere_makes_a_name_a_store_read():
    # the store is one global namespace, so an assignment in any clause
    # turns the name into a store read across the whole program
    program = parse_program("p() { t = 2 } main { t == 2; p() }")
    assert program.main.first == Compare("==", VarRef("t"), IntLit(2))
    bare = parse_program("main { t == 2 }")
    assert bare.main == Compare("==", TermLit(Atom("t")), IntLit(2))


def test_empty_enum_and_empty_range_parse():
    g = parse_goal("choose(x in {}) x == x")
    assert g.cset == Enum(())
    g2 = parse_goal("choose(x in {3..1}) x == x")
    assert g2.cset == Range(3, 1)


def test_negative_integers_in_terms_ranges_and_expressions():
    g = parse_goal("choose(x in {-2..2}) x == -1")
    assert g.cset == Range(-2, 2)
    assert g.body == Compare("==", lv("x"), IntLit(-1))
    g2 = parse_goal("choose(x in {f(-5), -3}) x == x")
    assert g2.cset == Enum((Compound("f", (Int(-5),)), Int(-3)))


def test_comments_and_whitespace_are_skipped():
    source = "main { // pick a value\n  s = 1 // trailing note\n}"
    assert parse_program(source).main == Assign("s", IntLit(1))


def test_sequence_is_right_associative():
    flat = parse_goal("s = 1; t = 2; u = 3")
    nested = parse_goal("s = 1; (t = 2; u = 3)")
    assert flat == nested
    assert flat == Seq(
        Assign("s", IntLit(1)), Seq(Assign("t", IntLit(2)), Assign("u", IntLit(3)))
    )


def test_call_argument_terms_versus_condition_expressions():
    program = parse_program("p(x) { x == 1 } main { p(f(2)); s = 2 * 3 }")
    call, assign = program.main.first, program.main.second
    assert call == Call("p", (Compound("f", (Int(2),)),))
    assert assign == Assign("s", BinOp("*", IntLit(2), IntLit(3)))


# --- errors with positions -----------------------------------------------------

def test_missing_expression_reports_the_bad_token():
    with pytest.raises(ParseError) as err:
        parse_program("main { x = }")
    assert err.value.line == 1
    assert err.value.column == 12


def test_positions_are_tracked_across_lines():
    with pytest.raises(ParseError) as err:
        parse_program("main {\n  s = 3 +\n}")
    assert err.value.line == 3
    assert err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse_program("main { s = 1 // note")
    assert (err.value.line, err.value.column) == (1, 21)
    assert err.value.message == "expected '}', found end of input"


def test_assigning_to_a_choose_variable_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("main { choose(x) x = 3 }")
    assert "logic variable" in err.value.message


def test_assigning_to_a_clause_parameter_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("p(x) { x = 1 } main { p(1) }")
    assert "logic variable" in err.value.message


def test_duplicate_clause_parameters_are_rejected():
    with pytest.raises(ParseError) as err:
        parse_program("p(x, x) { x == 1 } main { p(1, 2) }")
    assert "duplicate" in err.value.message


def test_keywords_cannot_name_variables():
    with pytest.raises(ParseError):
        parse_program("main { choose(in) in == 1 }")
    with pytest.raises(ParseError):
        parse_program("main { main = 3 }")


@pytest.mark.parametrize("source, column", [
    ("main { choose(_G1) _G1 == 1 }", 15),
    ("p(_G1) { s = 1 } main { p(1) }", 3),
    ("main { choose(x) x == _G1 }", 23),
])
def test_programs_cannot_write_generated_variable_names(source, column):
    # the search names its own variables _G1, _G2, ...; since no source
    # name can be one, a binder's value never mentions a source name
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.line, err.value.column) == (1, column)
    assert err.value.message == "unexpected character '_'"


def test_missing_main_is_an_error():
    with pytest.raises(ParseError):
        parse_program("p() { 1 == 1 }")


def test_unterminated_block_is_an_error():
    with pytest.raises(ParseError):
        parse_program("main { s = 1 ")


def test_integer_literals_are_bounded_to_64_bits():
    assert parse_goal(f"s = {INT64_MAX}") == Assign("s", IntLit(INT64_MAX))
    assert parse_goal(f"s = {INT64_MIN}") == Assign("s", IntLit(INT64_MIN))
    with pytest.raises(ParseError) as err:
        parse_goal(f"s = {INT64_MAX + 1}")
    assert "64-bit" in err.value.message
    with pytest.raises(ParseError):
        parse_goal(f"choose(x in {{{INT64_MIN - 1}..0}}) x == x")


def test_deeply_nested_parentheses_fail_cleanly():
    source = "main { " + "(" * 2000 + "1 == 1" + ")" * 2000 + " }"
    with pytest.raises(ParseError):
        parse_program(source)


def test_a_token_kind_follows_its_first_character():
    # \d and str.isdecimal both cover the Unicode Nd digits, so Arabic-Indic
    # digits make an int; '²' is a digit to str.isdigit, but neither Nd nor a
    # letter, and a titlecase or uppercase letter starts no identifier
    assert format_program(parse_program("main { s = ٣٤ }")) == "main {\n  s = 34\n}"
    for text in ("²", "ǅ", "Zed"):
        with pytest.raises(ParseError) as err:
            parse_program(f"main {{ s = {text} }}")
        assert str(err.value) == f"1:12: unexpected character {text[0]!r}"


def test_only_an_error_that_leaves_the_parser_gets_a_line_and_column(monkeypatch):
    # each "(s + 1) == 1" is read as a goal first, fails at its ")" and is
    # reread as a condition; that failure must not work out where it is
    calls = []
    line_col = parser._line_col
    monkeypatch.setattr(parser, "_line_col",
                        lambda source, offset: calls.append(offset) or line_col(source, offset))
    lines = ["(s + 1) == 1"] * 2000
    program = parse_program("main {\n" + ";\n".join(lines) + "\n}")
    assert format_program(program).count("s + 1 == 1") == 2000
    assert calls == []
    with pytest.raises(ParseError) as err:
        parse_program("main {\n" + ";\n".join(lines + ["(s + 1) =="]) + "\n}")
    assert str(err.value) == "2003:1: expected an expression, found '}'"
    assert len(calls) == 1


# --- totality and round-trip ------------------------------------------------------

def test_round_trip_over_generated_programs():
    rng = random.Random(3001)
    for _ in range(200):
        program = gen_program(rng)
        printed = format_program(program)
        assert parse_program(printed) == program, printed


def test_parsing_never_crashes_on_fuzzed_input():
    rng = random.Random(3002)
    charset = "main{}()=<>!;,.chooseinfbfact0123456789xyzst-+*/ \n\t\"'\\_&|@"
    for i in range(10_000):
        if i % 4 == 0:
            source = "".join(
                chr(rng.randrange(1, 0x2500)) for _ in range(rng.randrange(0, 40))
            )
        else:
            source = "".join(rng.choices(charset, k=rng.randrange(0, 80)))
        try:
            parse_program(source)
        except ParseError:
            pass
    # digits that int() cannot read, such as superscripts and circled digits
    for c in map(chr, range(0x110000)):
        if c.isdigit():
            for source in (f"main {{ s = {c} }}", f"main {{ s = 1{c} }}"):
                try:
                    parse_program(source)
                except ParseError:
                    pass


def test_fuzzed_variations_of_a_valid_program():
    # mutate a working program: deletions and swaps must never escape
    # the ParseError contract
    rng = random.Random(3003)
    base = "p(x) { choose(y in {1..4}) (y == x; s = y * 2) } main { p(3); t = s - 1 }"
    for _ in range(2_000):
        chars = list(base)
        for _ in range(rng.randrange(1, 6)):
            kind = rng.random()
            pos = rng.randrange(len(chars))
            if kind < 0.4 and len(chars) > 1:
                del chars[pos]
            elif kind < 0.8:
                chars[pos] = rng.choice("{}()=;x1 ")
            else:
                chars.insert(pos, rng.choice("{}()=;x1 "))
        try:
            parse_program("".join(chars))
        except ParseError:
            pass


# --- the pinned parser differential ---------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
PARSE_DIGESTS = ROOT / "tests" / "golden" / "parse.sha256"
_MUTATION_CHARS = "{}()=;,x1 -+*/<>!.choosefibinz"


def parse_sources() -> dict:
    """Source id -> text, in a fixed order: the whole differential's input."""
    files = sorted((ROOT / "tests" / "golden").glob("*.choo")) + sorted(
        (ROOT / "programs").glob("*.choo"))
    sources = {f"{p.parent.name}/{p.stem}": p.read_text(encoding="utf-8") for p in files}
    sources.update(
        (f"gen/{seed:03d}", format_program(gen_program(random.Random(seed))))
        for seed in range(1000))
    bases = list(sources.values())
    rng = random.Random(3004)
    for i in range(5000):
        source = _mutate(rng, rng.choice(bases), _MUTATION_CHARS)
        if rng.random() < 0.1:
            source += "// c"
        sources[f"mutant/{i:04d}"] = source
    return sources


def _mutate(rng: random.Random, base: str, alphabet) -> str:
    """base with one to five characters deleted, replaced or inserted."""
    chars = list(base)
    for _ in range(rng.randint(1, 5)):
        kind, pos = rng.random(), rng.randrange(len(chars) + 1)
        if kind < 1 / 3 and pos < len(chars):
            del chars[pos]
        elif kind < 2 / 3 and pos < len(chars):
            chars[pos] = rng.choice(alphabet)
        else:
            chars.insert(pos, rng.choice(alphabet))
    return "".join(chars)


def parse_digest(source: str) -> str:
    try:
        text = format_program(parse_program(source))
    except ParseError as err:
        text = f"{err.line}:{err.column} {err.message}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_parse_results_match_the_pinned_digests():
    pinned = dict(line.split() for line in PARSE_DIGESTS.read_text(encoding="utf-8").splitlines())
    sources = parse_sources()
    wrong = [name for name, source in sources.items() if pinned.get(name) != parse_digest(source)]
    missing = sorted(set(pinned) - set(sources))
    assert not wrong and not missing, (
        f"{len(wrong)} parse results differ from tests/golden/parse.sha256"
        " (print a source with `python tests/test_parser.py --show ID`):\n"
        + "\n".join(wrong[:40] + [f"not parsed: {name}" for name in missing[:40]])
    )


LEX_DIGESTS = ROOT / "tests" / "golden" / "lex.sha256"
# the mutation alphabet plus what it never lexes: tabs, carriage returns,
# uppercase, non-ASCII letters of each case, a digit \d does not match, '_'
_LEX_PIECES = list(_MUTATION_CHARS) + ["\t", "\r", "\r\n", "\n", "A", "Zed", "é", "ǅ", "²", "_"]


def lex_sources() -> dict:
    """Source id -> text: the parser's sources, then the lexer's own."""
    sources = parse_sources()
    bases = list(sources.values())
    sources["lex/trailing_space"] = "main { s = 1 } "
    sources["lex/trailing_tab"] = "main { s = 1 }\t"
    rng = random.Random(1414)
    for i in range(2000):
        source = _mutate(rng, rng.choice(bases), _LEX_PIECES)
        ending = rng.random()
        if ending < 0.1:
            source = source.rstrip("\n") + rng.choice([" ", "\t", "\r", "  \t"])
        elif ending < 0.2:
            source += "// c"
        sources[f"lex/{i:04d}"] = source
    return sources


def lex_digest(source: str) -> str:
    try:
        text = "".join(f"{t.kind} {t.text} {t.line} {t.col}\n" for t in lex(source))
    except ParseError as err:
        text = f"{err.line}:{err.column} {err.message}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_token_streams_match_the_pinned_digests():
    pinned = dict(line.split() for line in LEX_DIGESTS.read_text(encoding="utf-8").splitlines())
    sources = lex_sources()
    wrong = [name for name, source in sources.items() if pinned.get(name) != lex_digest(source)]
    missing = sorted(set(pinned) - set(sources))
    assert not wrong and not missing, (
        f"{len(wrong)} token streams differ from tests/golden/lex.sha256"
        " (print a source with `python tests/test_parser.py --show ID`):\n"
        + "\n".join(wrong[:40] + [f"not lexed: {name}" for name in missing[:40]])
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--show"]:
        print(lex_sources()[sys.argv[2]], end="")
    elif sys.argv[1:2] == ["--lex"]:
        for name, source in lex_sources().items():
            print(name, lex_digest(source))
    else:
        for name, source in parse_sources().items():
            print(name, parse_digest(source))
