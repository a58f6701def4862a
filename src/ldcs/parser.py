"""Concrete syntax for logical forms.

Grammar, loosest binding first:

    unary   := inter { "|" inter }
    inter   := uatom { "&" uatom }
    uatom   := "!" uatom | binary "." uatom | primary
    primary := IDENT | INT | "count" "(" unary ")"
             | ("argmax" | "argmin") "(" unary "," binary ")"
             | "(" "mu" IDENT "." unary ")" | "(" unary ")"
    binary  := IDENT | "R" "[" binary "]" | "(" "lam" IDENT "." unary ")"

Identifiers may contain ':' for namespacing. A '.' always acts as the join
operator, so a dotted name like `Children.PlaceOfBirth.Seattle` reads as a
join chain; identifiers themselves cannot contain dots in expression text.

Parsing produces a raw tree whose leaves are Unresolved names; `resolve`
classifies each leaf as a variable, entity, or property from its position
and the binders in scope.

Nesting is limited to MAX_DEPTH levels. Each `!`, join, parenthesis,
binder, `R[`, `count(`, `argmax(` and `argmin(` opens one level; `&` and
`|` open none. Deeper text raises ParseError at the token that opens the
first level too many, where it would otherwise exhaust Python's recursion
limit in the parser or in the tree walks that follow it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    INT64_MAX,
    INT64_MIN,
    Aggregate,
    BinaryForm,
    Entity,
    EntityLit,
    Intersect,
    Join,
    Lambda,
    Mu,
    Negate,
    Number,
    Property,
    Reverse,
    Superlative,
    UnaryForm,
    Union,
    Var,
    render_value,
)
from .errors import (
    ParseError,
    ShadowedVariable,
    UnbalancedDelimiter,
    UnknownProperty,
    VariableInBinaryPosition,
)

KEYWORDS = {"mu", "lam", "count", "argmax", "argmin"}

MAX_DEPTH = 100


@dataclass(frozen=True)
class UnresolvedUnary(UnaryForm):
    """An identifier in unary position, not yet classified."""

    name: str


@dataclass(frozen=True)
class UnresolvedBinary(BinaryForm):
    """An identifier in binary position, not yet classified."""

    name: str


# --- lexing -------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:.]*")
_INT_RE = re.compile(r"-?[0-9]+")

_SYMBOLS = {
    ".": "DOT", "&": "AMP", "|": "PIPE", "!": "BANG",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def _lex(text: str) -> list[Token]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            toks.append(Token(_SYMBOLS[c], c, i))
            i += 1
            continue
        if c.isdigit() or c == "-":
            m = _INT_RE.match(text, i)
            if not m:
                raise ParseError(i, "an integer literal")
            toks.append(Token("INT", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            # Identifier characters include '.', but in expressions the dot
            # is the join operator: split the munched run back apart.
            pos = i
            for k, part in enumerate(m.group().split(".")):
                if k > 0:
                    toks.append(Token("DOT", ".", pos))
                    pos += 1
                if part:
                    # An empty segment leaves a bare DOT for the parser to
                    # reject with a position.
                    if _INT_RE.fullmatch(part):
                        toks.append(Token("INT", part, pos))
                    elif part[0].isdigit():
                        raise ParseError(pos, "a name or an integer")
                    else:
                        toks.append(Token("IDENT", part, pos))
                    pos += len(part)
            i = m.end()
            continue
        raise ParseError(i, f"a token (found {c!r})")
    toks.append(Token("EOF", "", n))
    return toks


# --- parsing ------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            if kind in ("RPAREN", "RBRACKET"):
                raise UnbalancedDelimiter(tok.pos, what)
            raise ParseError(tok.pos, what)
        return self.advance()

    def nest(self, tok: Token) -> None:
        """Enter the level of nesting that `tok` opens; the caller leaves it
        by decrementing `depth`."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(tok.pos, f"at most {MAX_DEPTH} levels of nesting")

    def parse(self) -> UnaryForm:
        u = self.union()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(tok.pos, "end of input")
        return u

    def union(self) -> UnaryForm:
        left = self.inter()
        while self.peek().kind == "PIPE":
            self.advance()
            left = Union(left, self.inter())
        return left

    def inter(self) -> UnaryForm:
        left = self.uatom()
        while self.peek().kind == "AMP":
            self.advance()
            left = Intersect(left, self.uatom())
        return left

    def uatom(self) -> UnaryForm:
        tok = self.peek()
        if tok.kind == "BANG":
            self.nest(tok)
            self.advance()
            u = Negate(self.uatom())
        elif self._binary_ahead():
            self.nest(tok)
            b = self.binary()
            self.expect("DOT", "'.' after a binary form")
            u = Join(b, self.uatom())
        else:
            return self.primary()
        self.depth -= 1
        return u

    def _binary_ahead(self) -> bool:
        tok = self.peek()
        nxt = self.peek(1)
        if tok.kind == "IDENT" and tok.text == "R" and nxt.kind == "LBRACKET":
            return True
        if tok.kind == "IDENT" and tok.text not in KEYWORDS and nxt.kind == "DOT":
            return True
        if tok.kind == "LPAREN" and nxt.kind == "IDENT" and nxt.text == "lam":
            return True
        return False

    def binary(self) -> BinaryForm:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "R" and self.peek(1).kind == "LBRACKET":
            self.nest(tok)
            self.advance()
            self.advance()
            inner = self.binary()
            self.expect("RBRACKET", "']' closing R[")
            self.depth -= 1
            return Reverse(inner)
        if tok.kind == "LPAREN" and self.peek(1).kind == "IDENT" and self.peek(1).text == "lam":
            self.nest(tok)
            self.advance()
            self.advance()
            name = self.binder_name()
            self.expect("DOT", "'.' after lam binder")
            body = self.union()
            self.expect("RPAREN", "')' closing lam")
            self.depth -= 1
            return Lambda(name, body)
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            self.advance()
            return UnresolvedBinary(tok.text)
        raise ParseError(tok.pos, "a binary form")

    def binder_name(self) -> str:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in KEYWORDS:
            raise ParseError(tok.pos, "a variable name")
        return self.advance().text

    def primary(self) -> UnaryForm:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            n = int(tok.text)
            if not (INT64_MIN <= n <= INT64_MAX):
                raise ParseError(tok.pos, "an integer in 64-bit range")
            return EntityLit(Number(n))
        if tok.kind == "IDENT":
            if tok.text == "count":
                self.nest(tok)
                self.advance()
                self.expect("LPAREN", "'(' after count")
                inner = self.union()
                self.expect("RPAREN", "')' closing count")
                self.depth -= 1
                return Aggregate("count", inner)
            if tok.text in ("argmax", "argmin"):
                self.nest(tok)
                self.advance()
                self.expect("LPAREN", f"'(' after {tok.text}")
                source = self.union()
                self.expect("COMMA", "',' between superlative arguments")
                degree = self.binary()
                self.expect("RPAREN", f"')' closing {tok.text}")
                self.depth -= 1
                return Superlative(tok.text, source, degree)
            if tok.text in KEYWORDS:
                raise ParseError(tok.pos, f"a unary form (found keyword {tok.text!r})")
            self.advance()
            return UnresolvedUnary(tok.text)
        if tok.kind == "LPAREN":
            self.nest(tok)
            if self.peek(1).kind == "IDENT" and self.peek(1).text == "mu":
                self.advance()
                self.advance()
                name = self.binder_name()
                self.expect("DOT", "'.' after mu binder")
                u = Mu(name, self.union())
                self.expect("RPAREN", "')' closing mu")
            else:
                self.advance()
                u = self.union()
                self.expect("RPAREN", "')'")
            self.depth -= 1
            return u
        raise ParseError(tok.pos, "a unary form")


def parse_unary(text: str) -> UnaryForm:
    """Parse expression text into a raw tree with Unresolved leaves.

    Raises ParseError past MAX_DEPTH levels of nesting.
    """
    return _Parser(_lex(text)).parse()


# --- resolution -----------------------------------------------------------------

def resolve(raw: UnaryForm, kb=None, strict: bool = False) -> UnaryForm:
    """Classify Unresolved leaves as variables, entities, or properties.

    A name bound by an enclosing mu/lam binder becomes a Var; any other
    unary-position name becomes an EntityLit; binary-position names become
    Properties. With strict=True every property must exist in `kb`.
    """
    if strict and kb is None:
        raise ValueError("strict resolution needs a knowledge base")
    return _resolve_unary(raw, kb, strict, frozenset())


def _resolve_unary(u, kb, strict, scope):
    if isinstance(u, UnresolvedUnary):
        if u.name in scope:
            return Var(u.name)
        return EntityLit(Entity(u.name))
    if isinstance(u, (EntityLit, Var)):
        return u
    if isinstance(u, Join):
        return Join(
            _resolve_binary(u.binary, kb, strict, scope),
            _resolve_unary(u.unary, kb, strict, scope),
        )
    if isinstance(u, Intersect):
        return Intersect(
            _resolve_unary(u.left, kb, strict, scope),
            _resolve_unary(u.right, kb, strict, scope),
        )
    if isinstance(u, Union):
        return Union(
            _resolve_unary(u.left, kb, strict, scope),
            _resolve_unary(u.right, kb, strict, scope),
        )
    if isinstance(u, Negate):
        return Negate(_resolve_unary(u.inner, kb, strict, scope))
    if isinstance(u, Aggregate):
        return Aggregate(u.op, _resolve_unary(u.inner, kb, strict, scope))
    if isinstance(u, Superlative):
        return Superlative(
            u.op,
            _resolve_unary(u.source, kb, strict, scope),
            _resolve_binary(u.degree, kb, strict, scope),
        )
    if isinstance(u, Mu):
        if u.var in scope:
            raise ShadowedVariable(u.var)
        return Mu(u.var, _resolve_unary(u.body, kb, strict, scope | {u.var}))
    raise TypeError(f"not a unary form: {u!r}")


def _resolve_binary(b, kb, strict, scope):
    if isinstance(b, UnresolvedBinary):
        if b.name in scope:
            raise VariableInBinaryPosition(b.name)
        if strict and b.name not in kb.property_set:
            raise UnknownProperty(b.name)
        return Property(b.name)
    if isinstance(b, Property):
        return b
    if isinstance(b, Reverse):
        return Reverse(_resolve_binary(b.inner, kb, strict, scope))
    if isinstance(b, Lambda):
        if b.var in scope:
            raise ShadowedVariable(b.var)
        return Lambda(b.var, _resolve_unary(b.body, kb, strict, scope | {b.var}))
    raise TypeError(f"not a binary form: {b!r}")


# --- printing -------------------------------------------------------------------

_UNION = 0
_INTER = 1
_UATOM = 2
_JOIN = 3
_PRIMARY = 4


def _level(u: UnaryForm) -> int:
    if isinstance(u, Union):
        return _UNION
    if isinstance(u, Intersect):
        return _INTER
    if isinstance(u, Negate):
        return _UATOM
    if isinstance(u, Join):
        return _JOIN
    return _PRIMARY


def format_unary(u: UnaryForm) -> str:
    """Render with minimal parentheses; parses back to an equal tree."""
    return _fmt_unary(u, _UNION)


def _fmt_unary(u, min_level) -> str:
    if _level(u) < min_level:
        return f"({_fmt_unary(u, _UNION)})"
    if isinstance(u, Union):
        return f"{_fmt_unary(u.left, _UNION)} | {_fmt_unary(u.right, _INTER)}"
    if isinstance(u, Intersect):
        return f"{_fmt_unary(u.left, _INTER)} & {_fmt_unary(u.right, _UATOM)}"
    if isinstance(u, Negate):
        return f"!{_fmt_unary(u.inner, _UATOM)}"
    if isinstance(u, Join):
        return f"{format_binary(u.binary)}.{_fmt_unary(u.unary, _UATOM)}"
    if isinstance(u, EntityLit):
        return render_value(u.value)
    if isinstance(u, (Var, UnresolvedUnary)):
        return u.name
    if isinstance(u, Aggregate):
        return f"{u.op}({_fmt_unary(u.inner, _UNION)})"
    if isinstance(u, Superlative):
        return f"{u.op}({_fmt_unary(u.source, _UNION)}, {format_binary(u.degree)})"
    if isinstance(u, Mu):
        return f"(mu {u.var} . {_fmt_unary(u.body, _UNION)})"
    raise TypeError(f"not a unary form: {u!r}")


def format_binary(b: BinaryForm) -> str:
    if isinstance(b, (Property, UnresolvedBinary)):
        return b.name
    if isinstance(b, Reverse):
        return f"R[{format_binary(b.inner)}]"
    if isinstance(b, Lambda):
        return f"(lam {b.var} . {_fmt_unary(b.body, _UNION)})"
    raise TypeError(f"not a binary form: {b!r}")
