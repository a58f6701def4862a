"""Lambda-calculus terms: the target language of conversion.

Terms denote booleans (formulas), single values, sets (one-argument
lambdas), or pair sets (two-argument lambdas). This module holds the tree
types, alpha-equivalence, and the concrete text syntax:

    lambda x . body      exists y . body      P(t1,t2)      [t1 = t2]
    a & b      a || b      !a      count(t)      argmax(t1, t2)      in(x, t)

`!` binds tightest, then `&`, then `||`; binders extend as far right as
possible.
"""

from __future__ import annotations

from .core import SUPERLATIVE_OPS, Entity, Node, Number, Value, Variable, node, render_value
from .core import free_vars  # noqa: F401  (one walker for both trees; lc.free_vars)
from .parser import MAX_DEPTH, Cursor, Lexicon


class LCTerm(Node):
    """Base class for lambda-calculus terms."""


@node
class Var(LCTerm, Variable):
    name: str


@node
class Const(LCTerm):
    value: Value


@node
class Pred(LCTerm):
    """p(t1,t2): the property p relates the two element terms."""

    property: str
    arg1: LCTerm
    arg2: LCTerm


@node
class Eq(LCTerm):
    left: LCTerm
    right: LCTerm


@node
class And(LCTerm):
    left: LCTerm
    right: LCTerm


@node
class Or(LCTerm):
    left: LCTerm
    right: LCTerm


@node
class Not(LCTerm):
    inner: LCTerm


@node
class Exists(LCTerm):
    var: str
    body: LCTerm


@node
class Lam(LCTerm):
    var: str
    body: LCTerm


@node
class CountApp(LCTerm):
    """count(set_term): the cardinality of a one-argument lambda."""

    set_term: LCTerm


@node
class SupApp(LCTerm):
    """argmax/argmin over a set term by a two-argument degree term."""

    op: str
    set_term: LCTerm
    degree_term: LCTerm

    def __post_init__(self):
        if self.op not in SUPERLATIVE_OPS:
            raise ValueError(f"unknown superlative op: {self.op}")


@node
class In(LCTerm):
    """[element in set_expr]: membership of an element in a set term."""

    element: LCTerm
    set_expr: LCTerm


def _is_element(t: LCTerm) -> bool:
    # Element-level terms denote a single value. count(...) counts as one
    # because it denotes a number, which makes [x = count(...)] expressible.
    return isinstance(t, (Var, Const)) or (
        isinstance(t, CountApp) and well_formed(t)
    )


def _lam_arity(t: LCTerm, n: int) -> bool:
    for _ in range(n):
        if not isinstance(t, Lam):
            return False
        t = t.body
    return not isinstance(t, Lam)


def well_formed(t: LCTerm) -> bool:
    """Structural sanity: element positions hold elements, set positions lambdas."""
    if isinstance(t, (Var, Const)):
        return True
    if isinstance(t, Pred):
        return isinstance(t.arg1, (Var, Const)) and isinstance(t.arg2, (Var, Const))
    if isinstance(t, Eq):
        return _is_element(t.left) and _is_element(t.right)
    if isinstance(t, CountApp):
        return _lam_arity(t.set_term, 1) and well_formed(t.set_term)
    if isinstance(t, SupApp):
        return (
            _lam_arity(t.set_term, 1)
            and _lam_arity(t.degree_term, 2)
            and well_formed(t.set_term)
            and well_formed(t.degree_term)
        )
    if isinstance(t, In):
        return _is_element(t.element) and well_formed(t.set_expr)
    return isinstance(t, (And, Or, Not, Exists, Lam)) and all(map(well_formed, t.children()))


def alpha_eq(a: LCTerm, b: LCTerm) -> bool:
    """Structural equality up to consistent renaming of bound variables."""
    # Pairs of subterms still to compare, each with the renamings in scope
    # there: l2r maps a's bound names to b's, r2l the reverse.
    stack = [(a, b, {}, {})]
    while stack:
        a, b, l2r, r2l = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if a.name in l2r or b.name in r2l:
                if l2r.get(a.name) != b.name or r2l.get(b.name) != a.name:
                    return False
            elif a.name != b.name:
                return False
            continue
        if a.binds:
            l2r = {**l2r, a.var: b.var}
            r2l = {**r2l, b.var: a.var}
        if a.labels() != b.labels():
            return False
        for x, y in zip(a.children(), b.children()):
            stack.append((x, y, l2r, r2l))
    return True


# --- printing -----------------------------------------------------------------

_OR_LEVEL = 0
_AND_LEVEL = 1
_NOT_LEVEL = 2
_ATOM_LEVEL = 3


def format_lc(t: LCTerm) -> str:
    return _fmt(t, 0, True)


def _fmt(t: LCTerm, min_level: int, trailing: bool) -> str:
    # trailing: nothing follows this subterm before the region closes, so a
    # bare binder here cannot capture material that belongs to the parent
    if isinstance(t, (Lam, Exists)):
        word = "lambda" if isinstance(t, Lam) else "exists"
        text = f"{word} {t.var} . {_fmt(t.body, 0, True)}"
        return f"({text})" if min_level > 0 or not trailing else text
    if isinstance(t, Or):
        wrap = min_level > _OR_LEVEL
        text = (f"{_fmt(t.left, _OR_LEVEL, False)} || "
                f"{_fmt(t.right, _AND_LEVEL, wrap or trailing)}")
        return f"({text})" if wrap else text
    if isinstance(t, And):
        wrap = min_level > _AND_LEVEL
        text = (f"{_fmt(t.left, _AND_LEVEL, False)} & "
                f"{_fmt(t.right, _NOT_LEVEL, wrap or trailing)}")
        return f"({text})" if wrap else text
    if isinstance(t, Not):
        return f"!{_fmt(t.inner, _ATOM_LEVEL, True)}"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return render_value(t.value)
    if isinstance(t, Pred):
        return f"{t.property}({_fmt(t.arg1, 0, True)},{_fmt(t.arg2, 0, True)})"
    if isinstance(t, Eq):
        return f"[{_fmt(t.left, 0, True)} = {_fmt(t.right, 0, True)}]"
    if isinstance(t, CountApp):
        return f"count({_fmt(t.set_term, 0, True)})"
    if isinstance(t, SupApp):
        return f"{t.op}({_fmt(t.set_term, 0, True)}, {_fmt(t.degree_term, 0, True)})"
    if isinstance(t, In):
        return f"in({_fmt(t.element, 0, True)}, {_fmt(t.set_expr, 0, True)})"
    raise TypeError(f"not an LC term: {t!r}")


# --- parsing ------------------------------------------------------------------

# The printed translation of any form within parser.MAX_DEPTH must read
# back. It opens at most three levels here per level of the form (a
# superlative opens `in(`, `argmax(` and a `lambda`) and three more at the
# root and the innermost leaf: 303 for 100 nested superlatives.
LC_MAX_DEPTH = 3 * MAX_DEPTH + 10


class _LcParser(Cursor):
    """Recursive descent over the LC surface syntax.

    Identifiers are classified while parsing: names bound by an enclosing
    lambda/exists become Var, everything else becomes an entity Const.
    Each `!`, binder, `(`, `[` and `name(` opens a level of nesting.
    """

    LEXICON = Lexicon(("||", "&", "!", "=", ".", ",", "(", ")", "[", "]"))
    KEYWORDS = frozenset({"lambda", "exists", "count", "argmax", "argmin", "in"})
    MAX_DEPTH = LC_MAX_DEPTH

    def term(self, scope: frozenset[str]) -> LCTerm:
        """Binders, then a disjunction of conjunctions of atoms."""
        texts = self.texts
        binders = []
        while texts[self.i] in ("lambda", "exists"):
            word = texts[self.i]
            self.nest()
            self.i += 1
            name = self.binder_name()
            self.expect(".", "'.' after binder")
            binders.append((word, name))
            scope = scope | {name}
        t = None
        while True:
            conj = self.atom(scope)
            while texts[self.i] == "&":
                self.i += 1
                conj = And(conj, self.atom(scope))
            t = conj if t is None else Or(t, conj)
            if texts[self.i] != "||":
                break
            self.i += 1
        for word, name in reversed(binders):
            t = Lam(name, t) if word == "lambda" else Exists(name, t)
        self.depth -= len(binders)
        return t

    def atom(self, scope) -> LCTerm:
        i = self.i
        kind, text = self.kinds[i], self.texts[i]
        if kind == "INT":
            return Const(Number(self.integer()))
        if kind == "IDENT":
            if text in ("lambda", "exists"):
                self.fail(f"a term (found keyword {text!r})")
            if text not in self.KEYWORDS and self.texts[i + 1] != "(":
                self.i = i + 1
                return Var(text) if text in scope else Const(Entity(text))
        elif text not in ("!", "[", "("):
            self.fail("a term")
        self.nest()
        self.i = i + 1
        if text == "!":
            t = Not(self.atom(scope))
        elif text == "[":
            left = self.element(scope)
            self.expect("=", "'=' in equality")
            right = self.element(scope)
            self.expect("]", "']' closing equality")
            t = Eq(left, right)
        elif text == "(":
            t = self.term(scope)
            self.expect(")", "')'")
        elif text == "count":
            self.expect("(", "'(' after count")
            t = CountApp(self.term(scope))
            self.expect(")", "')' closing count")
        elif text in ("argmax", "argmin"):
            self.expect("(", f"'(' after {text}")
            set_term = self.term(scope)
            self.expect(",", "',' between superlative arguments")
            degree = self.term(scope)
            self.expect(")", f"')' closing {text}")
            t = SupApp(text, set_term, degree)
        elif text == "in":
            self.expect("(", "'(' after in")
            element = self.element(scope)
            self.expect(",", "',' in membership")
            set_expr = self.term(scope)
            self.expect(")", "')' closing in")
            t = In(element, set_expr)
        else:
            self.i += 1
            a1 = self.element(scope)
            self.expect(",", "',' between predicate arguments")
            a2 = self.element(scope)
            self.expect(")", "')' closing predicate")
            t = Pred(text, a1, a2)
        self.depth -= 1
        return t

    def element(self, scope) -> LCTerm:
        i = self.i
        kind, text = self.kinds[i], self.texts[i]
        if kind == "INT" or text == "count":
            return self.atom(scope)
        if kind == "IDENT" and text not in self.KEYWORDS:
            self.i = i + 1
            return Var(text) if text in scope else Const(Entity(text))
        self.fail("an element (variable, constant, or count)")


def parse_lc(text: str) -> LCTerm:
    """Parse lambda-term text; past LC_MAX_DEPTH levels of nesting it is a
    ParseError."""
    parser = _LcParser(text)
    return parser.whole(lambda: parser.term(frozenset()))
