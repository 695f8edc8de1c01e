"""Lexer and recursive-descent parser for the surface syntax.

Grammar, where seq binds loosest and associates to the right:

    program  := clause* "main" "{" goal "}"
    clause   := IDENT "(" [IDENT ("," IDENT)*] ")" "{" goal "}"
    goal     := prim (";" goal)?
    prim     := "choose" "(" IDENT ["in" set] ")" prim
              | "(" goal ")"
              | IDENT "=" expr
              | cond
              | IDENT "(" [term ("," term)*] ")"
    cond     := expr ("==" | "!=" | "<" | "<=" | ">" | ">=") expr
    expr     := additive over mul over primary; "+-" then "*/", left assoc
    primary  := INT | "-" INT | "(" expr ")" | ("fib"|"fact") "(" expr ")"
              | IDENT | IDENT "(" term ("," term)* ")"
    term     := INT | "-" INT | IDENT | IDENT "(" term ("," term)* ")"
    set      := "{" "}" | "{" INT ".." INT "}" | "{" term ("," term)* "}"

Identifiers are lowercase-initial; choose, in, main, fib and fact are
reserved. // starts a comment to end of line. A prim starting with an
identifier-and-parenthesis or with a parenthesis is ambiguous between a
call, a parenthesised goal, and a condition operand; the parser commits
to the goal reading unless the next token is an operator, backtracking
to the condition reading otherwise.

Scoping happens here: each parse function carries the set of names
bound by enclosing choose statements or clause parameters. Names in
that set become logic variables. Any other name is an atom in term
position; in expression position it is a store read when the program
assigns the name somewhere (the store is one global namespace, so the
whole token stream decides) and an atom otherwise, which is the only
way a bare atom can reach a condition. Assigning to a bound name is an
error at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
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
    SourceProgram,
    TermLit,
    VarRef,
    seq_of,
)
from .terms import INT64_MAX, INT64_MIN, Atom, Compound, Int, Var

KEYWORDS = frozenset({"choose", "in", "main", "fib", "fact"})

_COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_OPERATOR_KINDS = _COMPARISON_OPS | frozenset({"+", "-", "*", "/"})

_MAX_NESTING = 500


class ParseError(Exception):
    """Syntax or scope error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident", "int", "keyword", "eof", or the punctuation itself
    text: str
    line: int
    col: int


# tried in order at each offset; the last alternative catches any other character
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|//[^\n]*"
    r"|(?P<punct>==|!=|<=|>=|\.\.|[(){};,=<>+\-*/])"
    r"|(?P<int>\d+)|(?P<word>[^\W\d_]\w*)|(?P<other>.)",
    re.DOTALL,
)


def lex(source: str) -> list:
    tokens = []
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:  # blanks and comments
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        col = m.start() - line_start + 1
        if kind == "word" and text[0].isalpha() and text[0].islower():
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "punct":
            kind = text
        elif kind != "int":
            raise ParseError(line, col, f"unexpected character {text[0]!r}")
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


def _show(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    return f"'{tok.text}'"


def _assigned_names(tokens) -> frozenset:
    """Names appearing as assignment targets anywhere in the token stream.

    '=' occurs in the grammar only in IDENT "=" expr, so the bigram
    identifies the store names exactly on any program that parses.
    """
    return frozenset(
        tok.text
        for tok, nxt in zip(tokens, tokens[1:])
        if tok.kind == "ident" and nxt.kind == "="
    )


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.stores = _assigned_names(tokens)
        self.pos = 0
        self.depth = 0

    # --- token helpers ---

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.line, tok.col, f"expected {what}, found {_show(tok)}")
        return self.advance()

    def _error(self, message: str):
        tok = self.peek()
        raise ParseError(tok.line, tok.col, message)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self._error("nesting too deep")

    def _leave(self):
        self.depth -= 1

    # --- program structure ---

    def program(self) -> SourceProgram:
        clauses = []
        while True:
            tok = self.peek()
            if tok.kind == "keyword" and tok.text == "main":
                break
            if tok.kind == "ident":
                clauses.append(self.clause())
            else:
                self._error(f"expected a clause or the main block, found {_show(tok)}")
        self.advance()  # main
        self.expect("{", "'{'")
        main = self.goal(frozenset())
        self.expect("}", "'}'")
        self.expect("eof", "end of input")
        return SourceProgram(tuple(clauses), main)

    def clause(self) -> Clause:
        name = self.expect("ident", "a clause name")
        self.expect("(", "'('")
        params = []
        if self.peek().kind != ")":
            while True:
                p = self.peek()
                if p.kind != "ident":
                    self._error(f"expected a parameter name, found {_show(p)}")
                if p.text in params:
                    raise ParseError(p.line, p.col, f"duplicate parameter '{p.text}'")
                params.append(p.text)
                self.advance()
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect(")", "')'")
        self.expect("{", "'{'")
        body = self.goal(frozenset(params))
        self.expect("}", "'}'")
        return Clause(name.text, tuple(params), body)

    # --- goals ---

    def goal(self, scope):
        # a loop over ";", not recursion: flat programs are long chains
        prims = [self.prim(scope)]
        while self.peek().kind == ";":
            self.advance()
            prims.append(self.prim(scope))
        return seq_of(prims)

    def prim(self, scope):
        self._enter()
        try:
            tok, nxt = self.peek(), self.peek(1)
            if tok.kind == "keyword" and tok.text == "choose":
                return self._choose(scope)
            if tok.kind == "ident" and nxt.kind == "=":
                if tok.text in scope:
                    raise ParseError(
                        tok.line, tok.col,
                        f"cannot assign to logic variable '{tok.text}'",
                    )
                self.advance()
                self.advance()
                return Assign(tok.text, self.expr(scope))
            if tok.kind == "(" or (tok.kind == "ident" and nxt.kind == "("):
                return self._goal_or_cond(scope)
            return self.cond(scope)
        finally:
            self._leave()

    def _choose(self, scope):
        self.advance()  # choose
        self.expect("(", "'('")
        var = self.expect("ident", "a variable name")
        if self.peek().kind == "keyword" and self.peek().text == "in":
            self.advance()
            cset = self.cset(scope)
            self.expect(")", "')'")
            body = self.prim(scope | {var.text})
            return BoundedChoose(var.text, cset, body)
        self.expect(")", "')'")
        body = self.prim(scope | {var.text})
        return Choose(var.text, body)

    def _goal_or_cond(self, scope):
        # IDENT "(" opens a call or a compound operand, and "(" a goal or a
        # parenthesised operand: commit to the goal unless an operator follows
        save = self.pos
        try:
            tok = self.advance()
            if tok.kind == "(":
                goal = self.goal(scope)
                self.expect(")", "')'")
            else:
                self.advance()  # (
                args = []
                if self.peek().kind != ")":
                    args.append(self.term(scope))
                    while self.peek().kind == ",":
                        self.advance()
                        args.append(self.term(scope))
                self.expect(")", "')' or ','")
                goal = Call(tok.text, tuple(args))
        except ParseError as goal_err:
            self.pos = save
            try:
                return self.cond(scope)
            except ParseError as cond_err:
                raise _farther(goal_err, cond_err) from None
        if self.peek().kind in _OPERATOR_KINDS:
            self.pos = save
            return self.cond(scope)
        return goal

    def cond(self, scope):
        lhs = self.expr(scope)
        tok = self.peek()
        if tok.kind not in _COMPARISON_OPS:
            self._error(f"expected a comparison operator, found {_show(tok)}")
        self.advance()
        rhs = self.expr(scope)
        return Compare(tok.kind, lhs, rhs)

    # --- expressions ---

    def expr(self, scope):
        left = self.mul(scope)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            left = BinOp(op, left, self.mul(scope))
        return left

    def mul(self, scope):
        left = self.primary(scope)
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            left = BinOp(op, left, self.primary(scope))
        return left

    def primary(self, scope):
        self._enter()
        try:
            tok = self.peek()
            if tok.kind == "int":
                self.advance()
                return IntLit(self._int_value(tok, negative=False))
            if tok.kind == "-" and self.peek(1).kind == "int":
                self.advance()
                lit = self.advance()
                return IntLit(self._int_value(lit, negative=True))
            if tok.kind == "(":
                self.advance()
                inner = self.expr(scope)
                self.expect(")", "')'")
                return inner
            if tok.kind == "keyword" and tok.text in ("fib", "fact"):
                self.advance()
                self.expect("(", "'('")
                arg = self.expr(scope)
                self.expect(")", "')'")
                return FunCall(tok.text, arg)
            if tok.kind == "ident":
                if self.peek(1).kind == "(":
                    return TermLit(self.compound(scope))
                self.advance()
                if tok.text in scope:
                    return TermLit(Var(tok.text))
                if tok.text in self.stores:
                    return VarRef(tok.text)
                return TermLit(Atom(tok.text))
            self._error(f"expected an expression, found {_show(tok)}")
        finally:
            self._leave()

    # --- terms ---

    def term(self, scope):
        self._enter()
        try:
            tok = self.peek()
            if tok.kind == "int":
                self.advance()
                return Int(self._int_value(tok, negative=False))
            if tok.kind == "-" and self.peek(1).kind == "int":
                self.advance()
                lit = self.advance()
                return Int(self._int_value(lit, negative=True))
            if tok.kind == "ident":
                if self.peek(1).kind == "(":
                    return self.compound(scope)
                self.advance()
                if tok.text in scope:
                    return Var(tok.text)
                return Atom(tok.text)
            self._error(f"expected a term, found {_show(tok)}")
        finally:
            self._leave()

    def compound(self, scope):
        name = self.advance()
        self.advance()  # (
        if self.peek().kind == ")":
            self._error("compound term needs at least one argument")
        args = [self.term(scope)]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.term(scope))
        self.expect(")", "')' or ','")
        return Compound(name.text, tuple(args))

    def _int_value(self, tok: Token, negative: bool) -> int:
        value = -int(tok.text) if negative else int(tok.text)
        if not (INT64_MIN <= value <= INT64_MAX):
            raise ParseError(tok.line, tok.col, "integer literal out of 64-bit range")
        return value

    # --- choice sets ---

    def cset(self, scope):
        self.expect("{", "'{'")
        if self.peek().kind == "}":
            self.advance()
            return Enum(())
        # a leading integer may open a range; look past it for ".."
        save = self.pos
        first = self.peek()
        if first.kind == "int" or (first.kind == "-" and self.peek(1).kind == "int"):
            lo = self._signed_int()
            if self.peek().kind == "..":
                self.advance()
                hi = self._signed_int()
                self.expect("}", "'}'")
                return Range(lo, hi)
            self.pos = save
        elements = [self.term(scope)]
        while self.peek().kind == ",":
            self.advance()
            elements.append(self.term(scope))
        self.expect("}", "'}' or ','")
        return Enum(tuple(elements))

    def _signed_int(self) -> int:
        tok = self.peek()
        if tok.kind == "-" and self.peek(1).kind == "int":
            self.advance()
            lit = self.advance()
            return self._int_value(lit, negative=True)
        if tok.kind == "int":
            self.advance()
            return self._int_value(tok, negative=False)
        self._error(f"expected an integer, found {_show(tok)}")


def _farther(e1: ParseError, e2: ParseError) -> ParseError:
    return e2 if (e2.line, e2.column) >= (e1.line, e1.column) else e1


def parse_program(source: str) -> SourceProgram:
    """Parse a whole program; raises ParseError with position on any fault."""
    p = _Parser(lex(source))
    try:
        return p.program()
    except RecursionError:
        # the explicit depth guard normally fires first; this converts
        # the interpreter's own limit when the platform stack is smaller
        tok = p.peek()
        raise ParseError(tok.line, tok.col, "nesting too deep") from None


def parse_goal(source: str, scope=frozenset()) -> object:
    """Parse a single goal, for tests and the repl-style helpers."""
    p = _Parser(lex(source))
    try:
        g = p.goal(frozenset(scope))
        p.expect("eof", "end of input")
    except RecursionError:
        tok = p.peek()
        raise ParseError(tok.line, tok.col, "nesting too deep") from None
    return g
