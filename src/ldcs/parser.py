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

Where a name stands decides what it is, and the parser classifies each
name as it reads it: under an enclosing mu or lam binder of that name it
is a Var; elsewhere an EntityLit in unary and a Property in binary
position. A binder reusing an enclosing binder's name raises
ShadowedVariable, and a bound name in binary position
VariableInBinaryPosition. `resolve` then checks properties against a KB.

Nesting is limited to MAX_DEPTH levels. Each `!`, join, parenthesis,
binder, `R[`, `count(`, `argmax(` and `argmin(` opens one level; `&` and
`|` open none. Deeper text raises ParseError at the token that opens the
first level too many, where it would otherwise exhaust Python's recursion
limit in the parser or in the tree walks that follow it.

The lexer and the token cursor here serve the lambda-term parser in `lc`
as well, each grammar bringing its own token table.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

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


# --- lexing -------------------------------------------------------------------

class Token(NamedTuple):
    kind: str
    text: str
    pos: int


class Lexicon:
    """A grammar's token table, compiled into one regular expression.

    `rules` maps each token kind to its regex, tried in order at each
    position; `errors` maps a regex, tried after them, to what the
    ParseError at its match says was expected. The regexes use no
    capturing groups. Whitespace separates tokens; any other text that
    nothing matches is a ParseError too.
    """

    def __init__(self, rules: dict[str, str], errors: dict[str, str] | None = None):
        groups = {"SPACE": r"\s+", **rules}
        self.errors: dict[str, str | None] = {}
        for i, (regex, expected) in enumerate((errors or {}).items()):
            groups[f"ERROR{i}"] = regex
            self.errors[f"ERROR{i}"] = expected
        groups["UNKNOWN"] = "."
        self.errors["UNKNOWN"] = None  # expected: "a token (found ...)"
        self.regex = re.compile(
            "|".join(f"(?P<{kind}>{regex})" for kind, regex in groups.items()), re.DOTALL
        )


# Token(kind, text, pos) without the Python-level __new__ of a NamedTuple.
_token = partial(tuple.__new__, Token)


def lex(text: str, lexicon: Lexicon) -> list[Token]:
    """The tokens of `text`, ending with an EOF token at its end."""
    toks = []
    errors = lexicon.errors
    for m in lexicon.regex.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        if kind in errors:
            raise ParseError(m.start(), errors[kind] or f"a token (found {m.group()!r})")
        toks.append(_token((kind, m.group(), m.start())))
    toks.append(Token("EOF", "", len(text)))
    return toks


# Integers and identifiers read the same in both grammars. Identifiers may
# contain ':' for namespacing; a '.' is always a token of its own.
INT_RULE = r"-?[0-9]+"
IDENT_RULE = r"[A-Za-z_][A-Za-z0-9_:]*"

class Cursor:
    """Recursive descent over a token list: the parsers of both grammars
    read their tokens through this.

    `nest` guards the depth of the recursion. Each construct that makes a
    parser recurse opens a level with `nest` and closes it by decrementing
    `depth`; past `MAX_DEPTH` levels the text is a ParseError at the token
    that opens the first level too many, where it would otherwise exhaust
    Python's recursion limit in the parser or in the tree walks that follow.
    """

    # Each grammar's parser sets these.
    LEXICON: Lexicon
    KEYWORDS: frozenset[str]
    MAX_DEPTH: int

    def __init__(self, text: str):
        self.toks = lex(text, self.LEXICON)
        self.i = 0
        self.depth = 0

    def peek(self, k: int = 0) -> Token:
        try:
            return self.toks[self.i + k]
        except IndexError:
            return self.toks[-1]

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
        """Enter the level of nesting that `tok` opens."""
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise ParseError(tok.pos, f"at most {self.MAX_DEPTH} levels of nesting")

    def whole(self, rule):
        """The result of `rule`, which must read every token."""
        result = rule()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(tok.pos, "end of input")
        return result

    def binder_name(self) -> str:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text in self.KEYWORDS:
            raise ParseError(tok.pos, "a variable name")
        return self.advance().text

    def integer(self) -> int:
        tok = self.advance()
        n = int(tok.text)
        if not (INT64_MIN <= n <= INT64_MAX):
            raise ParseError(tok.pos, "an integer in 64-bit range")
        return n


# --- parsing ------------------------------------------------------------------

class _Parser(Cursor):
    LEXICON = Lexicon({
        "INT": INT_RULE, "IDENT": IDENT_RULE,
        "DOT": r"\.", "AND": "&", "OR": r"\|", "NOT": "!", "COMMA": ",",
        "LPAREN": r"\(", "RPAREN": r"\)", "LBRACKET": r"\[", "RBRACKET": r"\]",
    }, errors={"-": "an integer literal"})
    KEYWORDS = KEYWORDS
    MAX_DEPTH = MAX_DEPTH
    # The names bound by the binders enclosing the current token.
    scope: frozenset[str] = frozenset()

    def union(self) -> UnaryForm:
        left = self.inter()
        while self.peek().kind == "OR":
            self.advance()
            left = Union(left, self.inter())
        return left

    def inter(self) -> UnaryForm:
        left = self.uatom()
        while self.peek().kind == "AND":
            self.advance()
            left = Intersect(left, self.uatom())
        return left

    def uatom(self) -> UnaryForm:
        tok = self.peek()
        if tok.kind == "NOT":
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
            b = Lambda(*self._binder("lam"))
            self.depth -= 1
            return b
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            if tok.text in self.scope:
                raise VariableInBinaryPosition(tok.text)
            self.advance()
            return Property(tok.text)
        raise ParseError(tok.pos, "a binary form")

    def _binder(self, word: str) -> tuple[str, UnaryForm]:
        """The name and body of a `word` binder, read after its '(' and
        keyword up to its ')'; the body is read with the name in scope."""
        name = self.binder_name()
        if name in self.scope:
            raise ShadowedVariable(name)
        self.expect("DOT", f"'.' after {word} binder")
        outer = self.scope
        self.scope = outer | {name}
        body = self.union()
        self.scope = outer
        self.expect("RPAREN", f"')' closing {word}")
        return name, body

    def primary(self) -> UnaryForm:
        tok = self.peek()
        if tok.kind == "INT":
            return EntityLit(Number(self.integer()))
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
            return Var(tok.text) if tok.text in self.scope else EntityLit(Entity(tok.text))
        if tok.kind == "LPAREN":
            self.nest(tok)
            if self.peek(1).kind == "IDENT" and self.peek(1).text == "mu":
                self.advance()
                self.advance()
                u = Mu(*self._binder("mu"))
            else:
                self.advance()
                u = self.union()
                self.expect("RPAREN", "')'")
            self.depth -= 1
            return u
        raise ParseError(tok.pos, "a unary form")


def parse_unary(text: str) -> UnaryForm:
    """Parse expression text into a form with every name classified.

    Raises ParseError on malformed text, past MAX_DEPTH levels of nesting
    among others, and ShadowedVariable or VariableInBinaryPosition at the
    first misused name.
    """
    parser = _Parser(text)
    return parser.whole(parser.union)


# --- property check ------------------------------------------------------------

def resolve(form: UnaryForm, kb=None, strict: bool = False) -> UnaryForm:
    """Check a parsed form against `kb` and return the form itself.

    Parsing has classified every name already. With strict=True every
    property must exist in `kb`: the first unknown one in text order
    raises UnknownProperty.
    """
    if not strict:
        return form
    if kb is None:
        raise ValueError("strict resolution needs a knowledge base")
    stack = [form]
    while stack:
        f = stack.pop()
        if isinstance(f, Property) and f.name not in kb.property_set:
            raise UnknownProperty(f.name)
        # Reversed, so that the leftmost child is popped first.
        stack.extend(reversed(f.children()))
    return form


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
    if isinstance(u, Var):
        return u.name
    if isinstance(u, Aggregate):
        return f"{u.op}({_fmt_unary(u.inner, _UNION)})"
    if isinstance(u, Superlative):
        return f"{u.op}({_fmt_unary(u.source, _UNION)}, {format_binary(u.degree)})"
    if isinstance(u, Mu):
        return f"(mu {u.var} . {_fmt_unary(u.body, _UNION)})"
    raise TypeError(f"not a unary form: {u!r}")


def format_binary(b: BinaryForm) -> str:
    if isinstance(b, Property):
        return b.name
    if isinstance(b, Reverse):
        return f"R[{format_binary(b.inner)}]"
    if isinstance(b, Lambda):
        return f"(lam {b.var} . {_fmt_unary(b.body, _UNION)})"
    raise TypeError(f"not a binary form: {b!r}")
