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

One re.split makes the tokens, as parallel lists of kinds and texts read
by index. An error inside the parser names a token index; its offset,
line and column are worked out only when it leaves parse_program or
parse_goal, so a reread that fails inside a valid program costs none.
"""

from __future__ import annotations

import re
from itertools import accumulate

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


class _Fault(Exception):
    """A ParseError inside the parser; its args are a token index and the message."""


class _TooDeep(_Fault):
    """Final: no reread as a condition gets past the token that raised it."""


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "ident", "int", "keyword", "eof", or the punctuation itself
        self.text = text
        self.line = line
        self.col = col


# one capturing group: the odd pieces of a split are the tokens, the
# comments and any other character but a blank; the even ones are blanks
_SPLIT = re.compile(r"(//[^\n]*|==|!=|<=|>=|\.\.|[(){};,=<>+\-*/]|\d+|[^\W\d_]\w*|[^ \t\r\n])")

# the kind of a punctuation or keyword text; of any other text, its first
# character decides: a \d one starts an int, a lowercase letter an identifier
_KINDS = {p: p for p in ("==", "!=", "<=", ">=", "..", *"(){};,=<>+-*/")}
_KINDS.update(dict.fromkeys(KEYWORDS, "keyword"))


def _scan(source: str) -> tuple:
    """The kinds and texts of source's tokens, each list ending in eof, and the
    pieces of the split; raises ParseError at an unexpected character."""
    pieces = _SPLIT.split(source)
    texts = _uncommented(source, pieces, pieces[1::2])
    kind_of = {  # each distinct text once
        text: "int" if text[0].isdecimal() else "ident" if text[0].isalpha() and text[0].islower() else ""
        for text in set(texts).difference(_KINDS)
    }
    kind_of.update(_KINDS)
    kinds = list(map(kind_of.__getitem__, texts))
    if "" in kinds:
        i = kinds.index("")
        message = f"unexpected character {texts[i][0]!r}"
        raise ParseError(*_line_col(source, _offsets(source, pieces)[i]), message)
    kinds.append("eof")
    texts.append("")
    return kinds, texts, pieces


def _uncommented(source: str, pieces: list, items: list) -> list:
    """items, one per odd piece of source's split (and the eof), less the comments'."""
    if "//" not in source:
        return items
    return [item for item, text in zip(items, pieces[1::2] + [""]) if text[:2] != "//"]


def _offsets(source: str, pieces: list) -> list:
    """The start offsets of the tokens _scan makes of source's pieces, eof included."""
    return _uncommented(source, pieces, list(accumulate(map(len, pieces), initial=0))[1::2])


def _line_col(source: str, offset: int) -> tuple:
    """The 1-based line and column of offset in source."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, line_start) + 1, offset - line_start + 1


def lex(source: str) -> list:
    """The tokens of source, eof included, with their lines and columns."""
    kinds, texts, pieces = _scan(source)
    tokens = []
    line, line_start, newline = 1, 0, source.find("\n")
    for kind, text, offset in zip(kinds, texts, _offsets(source, pieces)):
        while 0 <= newline < offset:
            line += 1
            line_start = newline + 1
            newline = source.find("\n", line_start)
        tokens.append(Token(kind, text, line, offset - line_start + 1))
    return tokens


def _assigned_names(kinds, texts) -> frozenset:
    """Names appearing as assignment targets anywhere in the token stream.

    '=' occurs in the grammar only in IDENT "=" expr, so the bigram
    identifies the store names exactly on any program that parses.
    """
    return frozenset(text for kind, nxt, text in zip(kinds, kinds[1:], texts)
                     if nxt == "=" and kind == "ident")


def _nest(depth: int, at: int):
    """Fail at token index at if that token opens construct number depth."""
    if depth > _MAX_NESTING:
        raise _TooDeep(at, "nesting too deep")


class _Parser:
    def __init__(self, source: str):
        kinds, texts, self.pieces = _scan(source)
        self.stores = _assigned_names(kinds, texts)
        self.end = len(kinds) - 1  # the eof; a second one follows, for the look-ahead
        kinds.append("eof")
        texts.append("")
        self.kinds, self.texts = kinds, texts
        self.pos = 0

    # --- token helpers ---

    def _fail(self, i: int, what: str) -> _Fault:
        found = "end of input" if self.kinds[i] == "eof" else f"'{self.texts[i]}'"
        return _Fault(i, f"expected {what}, found {found}")

    def expect(self, kind: str, what: str) -> str:
        """Read a token of kind at the current position; returns its text."""
        i = self.pos
        if self.kinds[i] != kind:
            raise self._fail(i, what)
        self.pos = i + 1
        return self.texts[i]

    # --- program structure ---

    def program(self) -> SourceProgram:
        kinds, texts = self.kinds, self.texts
        clauses = []
        while not (kinds[self.pos] == "keyword" and texts[self.pos] == "main"):
            if kinds[self.pos] != "ident":
                raise self._fail(self.pos, "a clause or the main block")
            clauses.append(self.clause())
        self.pos += 1  # main
        self.expect("{", "'{'")
        main = self.goal(frozenset())
        self.expect("}", "'}'")
        self.expect("eof", "end of input")
        return SourceProgram(tuple(clauses), main)

    def clause(self) -> Clause:
        name = self.expect("ident", "a clause name")
        self.expect("(", "'('")
        params = []
        if self.kinds[self.pos] != ")":
            while True:
                at = self.pos
                param = self.expect("ident", "a parameter name")
                if param in params:
                    raise _Fault(at, f"duplicate parameter '{param}'")
                params.append(param)
                if self.kinds[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")", "')'")
        self.expect("{", "'{'")
        body = self.goal(frozenset(params))
        self.expect("}", "'}'")
        return Clause(name, tuple(params), body)

    # --- goals ---

    def goal(self, scope):
        kinds, texts = self.kinds, self.texts
        # open "(" goals, calls and choose headers, innermost last: (where a
        # "(" or call is reread from as a condition, the scope and statements
        # outside it, and (var, set) for a choose header, else None)
        stack, prims, g = [], [], None
        while True:
            try:
                if g is None:  # read a statement, or open one more construct
                    i = self.pos
                    kind, nxt = kinds[i], kinds[i + 1]
                    if kind == "keyword" and texts[i] == "choose":
                        _nest(len(stack) + 1, i)
                        self.pos = i + 1
                        self.expect("(", "'('")
                        var = self.expect("ident", "a variable name")
                        cset = None
                        if kinds[self.pos] == "keyword" and texts[self.pos] == "in":
                            self.pos += 1
                            cset = self.cset(scope, len(stack) + 1)
                        self.expect(")", "')'")
                        stack.append((None, scope, prims, (var, cset)))
                        scope = scope | {var}
                    elif kind == "(" or kind == "ident" and nxt == "(":
                        stack.append((i, scope, prims, None))
                        _nest(len(stack), i)
                        if kind == "(":
                            self.pos = i + 1
                            prims = []
                            continue
                        self.pos = i + 2
                        args = self.terms(scope, len(stack)) if kinds[i + 2] != ")" else []
                        self.expect(")", "')' or ','")
                        g, scope, prims = self._close(stack, Call(texts[i], tuple(args)))
                    elif kind == "ident" and nxt == "=":
                        if texts[i] in scope:
                            raise _Fault(i, f"cannot assign to logic variable '{texts[i]}'")
                        self.pos = i + 2
                        g = Assign(texts[i], self.expr(scope, len(stack)))
                    else:
                        g = self.cond(scope, len(stack))
                    continue
                while stack and stack[-1][3]:  # a statement ends the chooses it is the body of
                    _, scope, prims, (var, cset) = stack.pop()
                    g = Choose(var, g) if cset is None else BoundedChoose(var, cset, g)
                prims.append(g)
                g = None
                # a loop over ";", not nesting: flat programs are long chains
                if kinds[self.pos] == ";":
                    self.pos += 1
                    continue
                if not stack:
                    return seq_of(prims)
                self.expect(")", "')'")
                g, scope, prims = self._close(stack, seq_of(prims))
            except _TooDeep:
                raise
            except _Fault as err:
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
                    except _Fault as cond_err:  # the look-ahead eof ties with the eof
                        if min(cond_err.args[0], self.end) >= min(err.args[0], self.end):
                            err = cond_err

    def _close(self, stack, goal):
        """Pop the "(" or call that read goal; a following operator makes it
        a condition's operand instead. Returns the statement, and the scope
        and statements outside it."""
        start, scope, prims, _ = stack.pop()
        if self.kinds[self.pos] in _OPERATOR_KINDS:
            self.pos = start
            goal = self.cond(scope, len(stack))
        return goal, scope, prims

    def cond(self, scope, depth):
        lhs = self.expr(scope, depth)
        i = self.pos
        op = self.kinds[i]
        if op not in _COMPARISON_OPS:
            raise self._fail(i, "a comparison operator")
        self.pos = i + 1
        return Compare(op, lhs, self.expr(scope, depth))

    # --- expressions ---

    def expr(self, scope, depth):
        kinds, texts, stores = self.kinds, self.texts, self.stores
        i = self.pos
        # open "(" and fib/fact calls, innermost last, each with the partial
        # sum and product outside it: (name or None, sum, op, product, op)
        stack = []
        total = add = product = mul = None
        while True:
            kind = kinds[i]
            if kind == "(" or kind == "keyword" and texts[i] in ("fib", "fact"):
                _nest(depth + len(stack) + 1, i)
                if kind != "(":
                    i += 1
                    if kinds[i] != "(":
                        raise self._fail(i, "'('")
                stack.append((texts[i - 1] if kind != "(" else None, total, add, product, mul))
                total = add = product = mul = None
                i += 1
                continue
            if kind == "int" or kind == "-" and kinds[i + 1] == "int":
                operand = IntLit(self._signed_int(i))
                i = self.pos
            elif kind == "ident":
                name = texts[i]
                if kinds[i + 1] == "(":
                    self.pos = i
                    operand = TermLit(self.terms(scope, depth + len(stack), many=False)[0])
                    i = self.pos
                else:
                    i += 1
                    operand = (TermLit(Var(name)) if name in scope
                               else VarRef(name) if name in stores else TermLit(Atom(name)))
            else:
                raise self._fail(i, "an expression")
            while True:
                product = operand if mul is None else BinOp(mul, product, operand)
                kind = kinds[i]
                if kind == "*" or kind == "/":
                    mul = kind
                    i += 1
                    break
                total = product if add is None else BinOp(add, total, product)
                if kind == "+" or kind == "-":
                    add, mul = kind, None
                    i += 1
                    break
                if not stack:
                    self.pos = i
                    return total
                if kind != ")":
                    raise self._fail(i, "')'")
                i += 1
                name, outer_total, add, product, mul = stack.pop()
                operand = total if name is None else FunCall(name, total)
                total = outer_total

    # --- terms ---

    def terms(self, scope, depth, many=True):
        """term ("," term)*, or one term if not many."""
        kinds, texts = self.kinds, self.texts
        i = self.pos
        stack = [(None, [])]  # the list, then the open compounds: (name, args)
        while True:
            kind = kinds[i]
            if kind == "ident" and kinds[i + 1] == "(":
                _nest(depth + len(stack), i)
                if kinds[i + 2] == ")":
                    raise _Fault(i + 2, "compound term needs at least one argument")
                stack.append((texts[i], []))
                i += 2
                continue
            if kind == "int" or kind == "-" and kinds[i + 1] == "int":
                term = Int(self._signed_int(i))
                i = self.pos
            elif kind == "ident":
                term = Var(texts[i]) if texts[i] in scope else Atom(texts[i])
                i += 1
            else:
                raise self._fail(i, "a term")
            while True:
                name, args = stack[-1]
                args.append(term)
                kind = kinds[i]
                if kind == "," and (many or name is not None):
                    i += 1
                    break
                if name is None:
                    self.pos = i
                    return args
                if kind != ")":
                    raise self._fail(i, "')' or ','")
                i += 1
                stack.pop()
                term = Compound(name, tuple(args))

    def _signed_int(self, i: int) -> int:
        """The integer at token i, after a '-' if one is there; the
        position moves past it."""
        kinds = self.kinds
        negative = kinds[i] == "-" and kinds[i + 1] == "int"
        if negative:
            i += 1
        if kinds[i] != "int":
            raise self._fail(i, "an integer")
        self.pos = i + 1
        value = -int(self.texts[i]) if negative else int(self.texts[i])
        if not (INT64_MIN <= value <= INT64_MAX):
            raise _Fault(i, "integer literal out of 64-bit range")
        return value

    # --- choice sets ---

    def cset(self, scope, depth):
        self.expect("{", "'{'")
        kinds = self.kinds
        i = self.pos
        if kinds[i] == "}":
            self.pos = i + 1
            return Enum(())
        # a leading integer may open a range; look past it for ".."
        if kinds[i] == "int" or kinds[i] == "-" and kinds[i + 1] == "int":
            lo = self._signed_int(i)
            if kinds[self.pos] == "..":
                hi = self._signed_int(self.pos + 1)
                self.expect("}", "'}'")
                return Range(lo, hi)
            self.pos = i
        elements = self.terms(scope, depth)
        self.expect("}", "'}' or ','")
        return Enum(tuple(elements))


def _parse(source: str, read):
    """read(parser) over source; an escaping fault becomes a ParseError."""
    p = _Parser(source)
    try:
        return read(p)
    except _Fault as err:
        at, message = err.args
        offset = _offsets(source, p.pieces)[min(at, p.end)]  # the look-ahead eof stands at the real one
        raise ParseError(*_line_col(source, offset), message) from None


def parse_program(source: str) -> SourceProgram:
    """Parse a whole program; raises ParseError with position on any fault."""
    return _parse(source, _Parser.program)


def parse_goal(source: str, scope=frozenset()) -> object:
    """Parse a single goal, with the names in scope bound; used by tests."""
    def read(p):
        g = p.goal(frozenset(scope))
        p.expect("eof", "end of input")
        return g
    return _parse(source, read)
