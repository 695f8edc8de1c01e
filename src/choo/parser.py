"""Lexer and parser for the surface syntax.

Grammar, where seq binds loosest and associates to the right:

    program  := clause* "main" "{" goal "}"
    clause   := IDENT "(" [IDENT ("," IDENT)*] ")" "{" goal "}"
    goal     := prim (";" goal)?
    prim     := "choose" "(" IDENT ["in" set] ")" prim
              | "(" goal ")"
              | IDENT "=" expr
              | cond
              | IDENT "(" [terms] ")"
    cond     := expr ("==" | "!=" | "<" | "<=" | ">" | ">=") expr
    expr     := additive over mul over primary; "+-" then "*/", left assoc
    primary  := INT | "-" INT | "(" expr ")" | ("fib"|"fact") "(" expr ")"
              | IDENT | IDENT "(" terms ")"
    terms    := term ("," term)*
    term     := INT | "-" INT | IDENT | IDENT "(" terms ")"
    set      := "{" "}" | "{" INT ".." INT "}" | "{" terms "}"

Identifiers are lowercase-initial; choose, in, main, fib and fact are
reserved. // starts a comment to end of line. A prim starting with an
identifier-and-parenthesis or with a parenthesis is ambiguous between a
call, a parenthesised goal, and a condition operand; the parser commits
to the goal reading, and rereads from that token as a condition when an
operator follows it or when the goal reading fails (then the farther of
the two errors wins, and a failed reread moves outward one parenthesis).

Goals, expressions and terms are each read in a loop over an explicit
stack of the constructs open at that point, so nesting costs no Python
frames and the answer does not depend on the caller's stack. At most
_MAX_NESTING constructs may be open at once: parentheses, choose headers
until their statement ends, calls, fib and fact calls, and compound
terms. The token that opens one more fails with "nesting too deep".

Scoping happens here: each reader carries the set of names bound by
enclosing choose statements or clause parameters. Names in that set
become logic variables. Any other name is an atom in term position; in
expression position it is a store read when the program assigns the
name somewhere (the store is one global namespace, so the whole token
stream decides) and an atom otherwise, which is the only way a bare atom
can reach a condition. Assigning to a bound name is an error at parse
time.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


class _TooDeep(ParseError):
    """Final: no reread as a condition gets past the token that raised it."""


class Token(NamedTuple):
    kind: str  # "ident", "int", "keyword", "eof", or the punctuation itself
    text: str
    line: int
    col: int


# one match per token: the blanks before it, then the first alternative that
# fits; \Z takes trailing blanks, and the catch-all . any other character
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|//[^\n]*"
    r"|(?P<punct>==|!=|<=|>=|\.\.|[(){};,=<>+\-*/])"
    r"|(?P<int>\d+)|(?P<word>[^\W\d_]\w*)|(?P<other>.)|\Z)",
    re.DOTALL,
)


def lex(source: str) -> list:
    tokens = []
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:  # comments and the end of input
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        text = m[kind]
        col = m.end() - len(text) - line_start + 1
        if kind == "word" and text[0].isalpha() and text[0].islower():
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "punct":
            kind = text
        elif kind != "int":
            raise ParseError(line, col, f"unexpected character {text[0]!r}")
        # tuple.__new__ skips the argument handling of Token(...)
        tokens.append(tuple.__new__(Token, (kind, text, line, col)))
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
        self.tokens = tokens + tokens[-1:]  # a second eof, for peek(1) at the end
        self.stores = _assigned_names(tokens)
        self.pos = 0

    # --- token helpers ---

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

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

    def _error(self, message: str, error=ParseError):
        tok = self.peek()
        raise error(tok.line, tok.col, message)

    def _nest(self, depth: int):
        """Fail at the current token if it opens construct number depth."""
        if depth > _MAX_NESTING:
            self._error("nesting too deep", _TooDeep)

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
        # open "(" goals, calls and choose headers, innermost last: (where a
        # "(" or call is reread from as a condition, the scope and statements
        # outside it, and (var, set) for a choose header, else None)
        stack, prims, g = [], [], None
        while True:
            try:
                if g is None:  # read a statement, or open one more construct
                    tok, nxt = self.peek(), self.peek(1)
                    if tok.kind == "keyword" and tok.text == "choose":
                        self._nest(len(stack) + 1)
                        self.advance()
                        self.expect("(", "'('")
                        var = self.expect("ident", "a variable name").text
                        cset = None
                        if self.peek().kind == "keyword" and self.peek().text == "in":
                            self.advance()
                            cset = self.cset(scope, len(stack) + 1)
                        self.expect(")", "')'")
                        stack.append((None, scope, prims, (var, cset)))
                        scope = scope | {var}
                    elif tok.kind == "(" or tok.kind == "ident" and nxt.kind == "(":
                        stack.append((self.pos, scope, prims, None))
                        self._nest(len(stack))
                        self.advance()
                        if tok.kind == "(":
                            prims = []
                            continue
                        self.advance()
                        args = self.terms(scope, len(stack)) if self.peek().kind != ")" else []
                        self.expect(")", "')' or ','")
                        g, scope, prims = self._close(stack, Call(tok.text, tuple(args)))
                    elif tok.kind == "ident" and nxt.kind == "=":
                        if tok.text in scope:
                            raise ParseError(
                                tok.line, tok.col,
                                f"cannot assign to logic variable '{tok.text}'",
                            )
                        self.advance()
                        self.advance()
                        g = Assign(tok.text, self.expr(scope, len(stack)))
                    else:
                        g = self.cond(scope, len(stack))
                    continue
                while stack and stack[-1][3]:  # a statement ends the chooses it is the body of
                    _, scope, prims, (var, cset) = stack.pop()
                    g = Choose(var, g) if cset is None else BoundedChoose(var, cset, g)
                prims.append(g)
                g = None
                # a loop over ";", not nesting: flat programs are long chains
                if self.peek().kind == ";":
                    self.advance()
                    continue
                if not stack:
                    return seq_of(prims)
                self.expect(")", "')'")
                g, scope, prims = self._close(stack, seq_of(prims))
            except _TooDeep:
                raise
            except ParseError as err:
                # reread the innermost open "(" or call as a condition, and
                # move outward while that fails too; the farther error wins
                while True:
                    while stack and stack[-1][3]:
                        stack.pop()
                    if not stack:
                        raise err from None
                    start, scope, prims, _ = stack.pop()
                    self.pos = start
                    try:
                        g = self.cond(scope, len(stack))
                        break
                    except ParseError as cond_err:
                        err = _farther(err, cond_err)

    def _close(self, stack, goal):
        """Pop the "(" or call that read goal; a following operator makes it
        a condition's operand instead. Returns the statement, and the scope
        and statements outside it."""
        start, scope, prims, _ = stack.pop()
        if self.peek().kind in _OPERATOR_KINDS:
            self.pos = start
            goal = self.cond(scope, len(stack))
        return goal, scope, prims

    def cond(self, scope, depth):
        lhs = self.expr(scope, depth)
        tok = self.peek()
        if tok.kind not in _COMPARISON_OPS:
            self._error(f"expected a comparison operator, found {_show(tok)}")
        self.advance()
        rhs = self.expr(scope, depth)
        return Compare(tok.kind, lhs, rhs)

    # --- expressions ---

    def expr(self, scope, depth):
        # open "(" and fib/fact calls, innermost last, each with the partial
        # sum and product outside it: (name or None, sum, op, product, op)
        stack = []
        total = add = product = mul = None
        while True:
            tok = self.peek()
            if tok.kind == "(" or tok.kind == "keyword" and tok.text in ("fib", "fact"):
                self._nest(depth + len(stack) + 1)
                self.advance()
                if tok.kind != "(":
                    self.expect("(", "'('")
                stack.append((tok.text if tok.kind != "(" else None, total, add, product, mul))
                total = add = product = mul = None
                continue
            operand = self._operand(tok, scope, depth + len(stack))
            while True:
                product = operand if mul is None else BinOp(mul, product, operand)
                if self.peek().kind in ("*", "/"):
                    mul = self.advance().kind
                    break
                total = product if add is None else BinOp(add, total, product)
                if self.peek().kind in ("+", "-"):
                    add, mul = self.advance().kind, None
                    break
                if not stack:
                    return total
                self.expect(")", "')'")
                name, outer_total, add, product, mul = stack.pop()
                operand = total if name is None else FunCall(name, total)
                total = outer_total

    def _operand(self, tok, scope, depth):
        if tok.kind == "int" or tok.kind == "-" and self.peek(1).kind == "int":
            return IntLit(self._signed_int())
        if tok.kind == "ident":
            if self.peek(1).kind == "(":
                return TermLit(self.terms(scope, depth, many=False)[0])
            self.advance()
            if tok.text in scope:
                return TermLit(Var(tok.text))
            if tok.text in self.stores:
                return VarRef(tok.text)
            return TermLit(Atom(tok.text))
        self._error(f"expected an expression, found {_show(tok)}")

    # --- terms ---

    def terms(self, scope, depth, many=True):
        """term ("," term)*, or one term if not many."""
        stack = [(None, [])]  # the list, then the open compounds: (name, args)
        while True:
            tok = self.peek()
            if tok.kind == "ident" and self.peek(1).kind == "(":
                self._nest(depth + len(stack))
                self.advance()
                self.advance()
                if self.peek().kind == ")":
                    self._error("compound term needs at least one argument")
                stack.append((tok.text, []))
                continue
            if tok.kind == "int" or tok.kind == "-" and self.peek(1).kind == "int":
                term = Int(self._signed_int())
            elif tok.kind == "ident":
                self.advance()
                term = Var(tok.text) if tok.text in scope else Atom(tok.text)
            else:
                self._error(f"expected a term, found {_show(tok)}")
            while True:
                name, args = stack[-1]
                args.append(term)
                if self.peek().kind == "," and (many or name is not None):
                    self.advance()
                    break
                if name is None:
                    return args
                self.expect(")", "')' or ','")
                stack.pop()
                term = Compound(name, tuple(args))

    def _signed_int(self) -> int:
        tok = self.peek()
        negative = tok.kind == "-" and self.peek(1).kind == "int"
        if negative:
            self.advance()
            tok = self.peek()
        if tok.kind != "int":
            self._error(f"expected an integer, found {_show(tok)}")
        self.advance()
        value = -int(tok.text) if negative else int(tok.text)
        if not (INT64_MIN <= value <= INT64_MAX):
            raise ParseError(tok.line, tok.col, "integer literal out of 64-bit range")
        return value

    # --- choice sets ---

    def cset(self, scope, depth):
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
        elements = self.terms(scope, depth)
        self.expect("}", "'}' or ','")
        return Enum(tuple(elements))


def _farther(e1: ParseError, e2: ParseError) -> ParseError:
    return e2 if (e2.line, e2.column) >= (e1.line, e1.column) else e1


def parse_program(source: str) -> SourceProgram:
    """Parse a whole program; raises ParseError with position on any fault."""
    return _Parser(lex(source)).program()


def parse_goal(source: str, scope=frozenset()) -> object:
    """Parse a single goal, with the names in scope bound; used by tests."""
    p = _Parser(lex(source))
    g = p.goal(frozenset(scope))
    p.expect("eof", "end of input")
    return g
