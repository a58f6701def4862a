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
No keyword of either grammar (KEYWORDS) is a name.

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
as well, each grammar bringing its own punctuation.
"""

from __future__ import annotations

import re
from typing import NoReturn

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

# The words of both grammars: a form uses none of them as a name, so that
# its translation to a lambda term reads back as the same term.
KEYWORDS = frozenset({"mu", "lam", "count", "argmax", "argmin", "lambda", "exists", "in"})

MAX_DEPTH = 100


# --- lexing -------------------------------------------------------------------

# Integers and identifiers read the same in both grammars. Identifiers may
# contain ':' for namespacing; a '.' is always a token of its own.
INT_RULE = r"-?[0-9]+"
IDENT_RULE = r"[A-Za-z_][A-Za-z0-9_:]*"

# The kind of a token that is not punctuation, by its first character. A
# lone '-' is in every grammar's table as an error, so a text that starts
# with '-' here has digits after it.
_KIND_BY_START = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT"),
    **dict.fromkeys("-0123456789", "INT"),
}


class Lexicon:
    """A grammar's punctuation, compiled with the shared rules into one scan.

    `scan.findall` gives the texts of the tokens, whitespace skipped. A
    punctuation token's kind is its text; other tokens are INT or IDENT by
    their first character. `errors` maps a text that is no token to what
    the ParseError at it says was expected; any other non-space character
    that no rule matches is a ParseError too.
    """

    def __init__(self, punctuation: tuple[str, ...], errors: dict[str, str] | None = None):
        self.errors = errors or {}
        self.kinds = {p: p for p in punctuation} | dict.fromkeys(("-", *self.errors), "ERROR")
        longest_first = map(re.escape, sorted(punctuation, key=len, reverse=True))
        self.scan = re.compile("|".join((INT_RULE, IDENT_RULE, *longest_first, r"\S")))

    def kinds_of(self, texts: list[str]) -> list[str]:
        table = self.kinds
        return [table.get(t) or _KIND_BY_START.get(t[0], "ERROR") for t in texts]


class Cursor:
    """Recursive descent over the tokens of a text: the parsers of both
    grammars read `kinds[i]` and `texts[i]` directly. Both lists end in two
    EOF tokens, so that looking one token ahead needs no bounds check.

    No token keeps its position: `fail` finds the offset of token `i` by
    scanning the text again, on the error path only. A text with a character
    that is no token fails at the first one before anything is parsed.

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
        self.text = text
        self.texts = self.LEXICON.scan.findall(text)
        self.kinds = self.LEXICON.kinds_of(self.texts)
        self.i = 0
        self.depth = 0
        if "ERROR" in self.kinds:
            self.i = self.kinds.index("ERROR")
            bad = self.texts[self.i]
            self.fail(self.LEXICON.errors.get(bad) or f"a token (found {bad!r})")
        self.kinds += ("EOF", "EOF")
        self.texts += ("", "")

    def fail(self, what: str, error: type[ParseError] = ParseError) -> NoReturn:
        """Raise `error` at token `i`, saying that `what` was expected there."""
        for n, m in enumerate(self.LEXICON.scan.finditer(self.text)):
            if n == self.i:
                raise error(m.start(), what)
        raise error(len(self.text), what)

    def expect(self, punct: str, what: str) -> None:
        if self.texts[self.i] != punct:
            self.fail(what, UnbalancedDelimiter if punct in (")", "]") else ParseError)
        self.i += 1

    def nest(self) -> None:
        """Enter the level of nesting that token `i` opens."""
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            self.fail(f"at most {self.MAX_DEPTH} levels of nesting")

    def whole(self, rule):
        """The result of `rule`, which must read every token."""
        result = rule()
        if self.kinds[self.i] != "EOF":
            self.fail("end of input")
        return result

    def binder_name(self) -> str:
        name = self.texts[self.i]
        if self.kinds[self.i] != "IDENT" or name in self.KEYWORDS:
            self.fail("a variable name")
        self.i += 1
        return name

    def integer(self) -> int:
        try:
            n = int(self.texts[self.i])
        except ValueError:  # more digits than int() converts
            n = INT64_MAX + 1
        if not (INT64_MIN <= n <= INT64_MAX):
            self.fail("an integer in 64-bit range")
        self.i += 1
        return n


# --- parsing ------------------------------------------------------------------

class _Parser(Cursor):
    LEXICON = Lexicon((".", "&", "|", "!", ",", "(", ")", "[", "]"),
                      errors={"-": "an integer literal"})
    KEYWORDS = KEYWORDS
    MAX_DEPTH = MAX_DEPTH
    # The names bound by the binders enclosing the current token.
    scope: frozenset[str] = frozenset()

    def union(self) -> UnaryForm:
        left = self.inter()
        while self.texts[self.i] == "|":
            self.i += 1
            left = Union(left, self.inter())
        return left

    def inter(self) -> UnaryForm:
        left = self.uatom()
        while self.texts[self.i] == "&":
            self.i += 1
            left = Intersect(left, self.uatom())
        return left

    def uatom(self) -> UnaryForm:
        i = self.i
        text, after = self.texts[i], self.texts[i + 1]
        if text == "!":
            self.nest()
            self.i = i + 1
            u = Negate(self.uatom())
        elif ((after == "." and self.kinds[i] == "IDENT" and text not in KEYWORDS)
              or (text == "R" and after == "[") or (text == "(" and after == "lam")):
            self.nest()
            b = self.binary()
            self.expect(".", "'.' after a binary form")
            u = Join(b, self.uatom())
        else:
            return self.primary()
        self.depth -= 1
        return u

    def binary(self) -> BinaryForm:
        i = self.i
        text, after = self.texts[i], self.texts[i + 1]
        if text == "R" and after == "[":
            self.nest()
            self.i = i + 2
            inner = self.binary()
            self.expect("]", "']' closing R[")
            self.depth -= 1
            return Reverse(inner)
        if text == "(" and after == "lam":
            self.nest()
            self.i = i + 2
            b = Lambda(*self._binder("lam"))
            self.depth -= 1
            return b
        if self.kinds[i] == "IDENT" and text not in KEYWORDS:
            if text in self.scope:
                raise VariableInBinaryPosition(text)
            self.i = i + 1
            return Property(text)
        self.fail("a binary form")

    def _binder(self, word: str) -> tuple[str, UnaryForm]:
        """The name and body of a `word` binder, read after its '(' and
        keyword up to its ')'; the body is read with the name in scope."""
        name = self.binder_name()
        if name in self.scope:
            raise ShadowedVariable(name)
        self.expect(".", f"'.' after {word} binder")
        outer = self.scope
        self.scope = outer | {name}
        body = self.union()
        self.scope = outer
        self.expect(")", f"')' closing {word}")
        return name, body

    def primary(self) -> UnaryForm:
        i = self.i
        kind, text = self.kinds[i], self.texts[i]
        if kind == "INT":
            return EntityLit(Number(self.integer()))
        if kind == "IDENT" and text not in KEYWORDS:
            self.i = i + 1
            return Var(text) if text in self.scope else EntityLit(Entity(text))
        if text == "count":
            self.nest()
            self.i = i + 1
            self.expect("(", "'(' after count")
            inner = self.union()
            self.expect(")", "')' closing count")
            self.depth -= 1
            return Aggregate("count", inner)
        if text in ("argmax", "argmin"):
            self.nest()
            self.i = i + 1
            self.expect("(", f"'(' after {text}")
            source = self.union()
            self.expect(",", "',' between superlative arguments")
            degree = self.binary()
            self.expect(")", f"')' closing {text}")
            self.depth -= 1
            return Superlative(text, source, degree)
        if kind == "IDENT":
            self.fail(f"a unary form (found keyword {text!r})")
        if text == "(":
            self.nest()
            if self.texts[i + 1] == "mu":
                self.i = i + 2
                u = Mu(*self._binder("mu"))
            else:
                self.i = i + 1
                u = self.union()
                self.expect(")", "')'")
            self.depth -= 1
            return u
        self.fail("a unary form")


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
