"""Translation of set-denoting forms into explicit lambda terms.

Each unary form u becomes a one-argument predicate `lambda x . body` that is
true exactly of the members of u; each binary form becomes a two-argument
predicate. The translation is compositional and introduces an existential
for every join, so the raw output is verbose; `simplify` collapses the
bureaucratic quantifiers without changing the denotation.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat

from . import core, lc
from .errors import UnboundVariable

__all__ = ["fresh_var", "to_lc_unary", "to_lc_binary", "simplify"]


def fresh_var(hint: str, used) -> str:
    """Return `hint` if free, else the first hintN (N = 1, 2, ...) that is."""
    if hint not in used:
        return hint
    i = 1
    while f"{hint}{i}" in used:
        i += 1
    return f"{hint}{i}"


def _identifiers(form) -> set[str]:
    """Every name occurring in a form; seeds the fresh-name pool."""
    out: set[str] = set()
    for f in core.subterms(form):
        if isinstance(f, (core.Var, core.Property)):
            out.add(f.name)
        elif isinstance(f, core.EntityLit) and isinstance(f.value, core.Entity):
            out.add(f.value.entity_id)
        elif f.binds:
            out.add(f.var)
    return out


class _Names:
    def __init__(self, used: set[str]):
        self.used = set(used)

    def fresh(self, hint: str) -> str:
        name = fresh_var(hint, self.used)
        self.used.add(name)
        return name


def to_lc_unary(u: core.UnaryForm) -> lc.Lam:
    names = _Names(_identifiers(u))
    x = names.fresh("x")
    return lc.Lam(x, _unary_body(u, x, {}, names))


def to_lc_binary(b: core.BinaryForm) -> lc.Lam:
    names = _Names(_identifiers(b))
    x = names.fresh("x")
    y = names.fresh("y")
    return lc.Lam(x, lc.Lam(y, _binary_pred(b, x, y, {}, names)))


def _unary_body(u, subj: str, env: dict, names: _Names) -> lc.LCTerm:
    """A term asserting that the value of variable `subj` belongs to u."""
    if isinstance(u, core.EntityLit):
        return lc.Eq(lc.Var(subj), lc.Const(u.value))
    if isinstance(u, core.Var):
        if u.name not in env:
            raise UnboundVariable(u.name)
        return lc.Eq(lc.Var(env[u.name]), lc.Var(subj))
    if isinstance(u, core.Join):
        y = names.fresh("y")
        return lc.Exists(y, lc.And(
            _binary_pred(u.binary, subj, y, env, names),
            _unary_body(u.unary, y, env, names),
        ))
    if isinstance(u, core.Intersect):
        return lc.And(
            _unary_body(u.left, subj, env, names),
            _unary_body(u.right, subj, env, names),
        )
    if isinstance(u, core.Union):
        return lc.Or(
            _unary_body(u.left, subj, env, names),
            _unary_body(u.right, subj, env, names),
        )
    if isinstance(u, core.Negate):
        return lc.Not(_unary_body(u.inner, subj, env, names))
    if isinstance(u, core.Aggregate):
        y = names.fresh("y")
        inner = lc.Lam(y, _unary_body(u.inner, y, env, names))
        return lc.Eq(lc.Var(subj), lc.CountApp(inner))
    if isinstance(u, core.Superlative):
        y = names.fresh("y")
        source = lc.Lam(y, _unary_body(u.source, y, env, names))
        s = names.fresh("s")
        d = names.fresh("d")
        degree = lc.Lam(s, lc.Lam(d, _binary_pred(u.degree, s, d, env, names)))
        return lc.In(lc.Var(subj), lc.SupApp(u.op, source, degree))
    if isinstance(u, core.Mu):
        g = names.fresh(u.var)
        body = _unary_body(u.body, subj, {**env, u.var: g}, names)
        return lc.Exists(g, lc.And(lc.Eq(lc.Var(g), lc.Var(subj)), body))
    raise TypeError(f"not a resolved unary form: {u!r}")


def _binary_pred(b, x: str, y: str, env: dict, names: _Names) -> lc.LCTerm:
    """A term asserting that the pair (x, y) belongs to b."""
    if isinstance(b, core.Property):
        return lc.Pred(b.name, lc.Var(x), lc.Var(y))
    if isinstance(b, core.Reverse):
        return _binary_pred(b.inner, y, x, env, names)
    if isinstance(b, core.Lambda):
        # (x, y) is in (lam a . u) exactly when x is in u with a bound to y.
        return _unary_body(b.body, x, {**env, b.var: y}, names)
    raise TypeError(f"not a resolved binary form: {b!r}")


# --- simplification ---------------------------------------------------------

def simplify(t: lc.LCTerm) -> lc.LCTerm:
    """Collapse redundant structure without changing meaning.

    Rules:
      * exists y . (... & [y = c] & ...)  ->  conjunction with c for y,
        when c is a constant or another variable (never the result of an
        aggregate, which cannot appear as a predicate argument);
      * [c = v] -> [v = c] when v is a variable and c is not;
      * right-nested conjunctions rebuilt left-associated;
      * double negation dropped.

    One bottom-up pass is a fixpoint: children are normalised before their
    parent's rules run, and substituting an element for a variable keeps
    every rule except orientation, which `_subst` restores.
    """
    return _simp(t)


def _simp(t: lc.LCTerm) -> lc.LCTerm:
    """The pass of `simplify`; returns t itself when nothing changes."""
    kind = type(t)
    if kind is lc.Not:
        inner = _simp(t.inner)
        if type(inner) is lc.Not:
            return inner.inner
        return t.rebuild((inner,))
    if kind is lc.Exists:
        body = _simp(t.body)
        collapsed = _eliminate_exists(t.var, body)
        if collapsed is not None:
            return collapsed
        return t.rebuild((body,))
    kids = t.children()
    if not kids:
        return t
    t = t.rebuild(tuple(map(_simp, kids)))
    if kind is lc.And and type(t.right) is lc.And:
        # Each side is a left-associated chain by now; join them into one.
        return reduce(lc.And, core.operands(t, lc.And))
    return _orient(t)


def _orient(t: lc.LCTerm) -> lc.LCTerm:
    """[c = v] -> [v = c] when v is a variable and c is not; t otherwise."""
    if type(t) is lc.Eq and type(t.right) is lc.Var and type(t.left) is not lc.Var:
        return lc.Eq(t.right, t.left)
    return t


def _witness(var: str, conjunct: lc.LCTerm):
    """The element `var` must equal, if this conjunct pins it down."""
    if not isinstance(conjunct, lc.Eq):
        return None
    for a, b in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
        if isinstance(a, lc.Var) and a.name == var:
            if isinstance(b, lc.Const):
                return b
            if isinstance(b, lc.Var) and b.name != var:
                return b
    return None


def _eliminate_exists(var: str, body: lc.LCTerm):
    """exists var . body with a pinning equation becomes the body itself."""
    parts = core.operands(body, lc.And)
    if len(parts) < 2:
        return None
    for i, part in enumerate(parts):
        w = _witness(var, part)
        if w is not None:
            rest = parts[:i] + parts[i + 1:]
            return reduce(lc.And, [_subst(p, var, w) for p in rest])
    return None


def _subst(t: lc.LCTerm, name: str, repl: lc.LCTerm) -> lc.LCTerm:
    """Capture-avoiding substitution of an element term for a variable."""
    if isinstance(t, lc.Var):
        return repl if t.name == name else t
    if t.binds:
        if t.var == name:
            return t
        if isinstance(repl, lc.Var) and repl.name == t.var:
            renamed = fresh_var(t.var, core.free_vars(t.body) | {name, repl.name})
            body = _subst(t.body, t.var, lc.Var(renamed))
            return type(t)(renamed, _subst(body, name, repl))
    return _orient(t.rebuild(tuple(map(_subst, t.children(), repeat(name), repeat(repl)))))
