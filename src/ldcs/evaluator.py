"""Direct set-valued evaluation of logical forms against a knowledge base.

A unary form denotes a set of values, a binary form a set of pairs. Joins
dispatch through the KB indexes instead of materializing relations, so
evaluation stays linear in the touched triples. A join through a property
reads that property's map once and takes the union of the sets it gives
the joined values in one C-level call. A superlative by a property over a
source large next to that property's map searches the KB's cached degree
order of the map (`KnowledgeBase.degree_order`) instead of scoring every
member.

Each call compiles the form once, in one walk (`_unary`), into closures
of the environment, a mapping from names to values that is never changed,
and runs them. Binders are where variables come back. The set definitions
evaluate a binder's body once per entity of the domain, and with it every
subterm of the body, whether or not it mentions the binder's variable.
Instead, the largest subterms under a binder that do not mention its
variable are memoised, for the length of the call, by the values of their
own free variables, so a closed one runs once; a superlative whose degree
is not a property memoises each member's related set the same way. Nodes
outside every binder get no memo. Where a binder's body is simple enough
(see `_decidable`), `mu` and the `lam` joins instead ask whether each
candidate is a member (`_contains`), which probes the indexes from that
candidate and never builds a complement; each candidate is bound in a new
mapping. Where they do build the body's set, a binder copies the
environment once each time it runs and sets its variable in place for
each binding.

A superlative's member has the largest (for argmin, the smallest) number
its degree relates it to as its degree; a member related to no number has
none and drops out. So a superlative never raises, and the one error left
is `UnboundVariable`, which no parsed form reaches. The compile walk raises
it for the leftmost unbound variable of the printed form, whatever the KB,
and a compiled closure never raises.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType

from .core import (
    Aggregate,
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
    Union,
    Var,
    free_vars,
)
from .errors import UnboundVariable
from .kb import KnowledgeBase

__all__ = ["eval_unary", "eval_binary", "degree_of"]

_EMPTY: frozenset = frozenset()
_NO_NAMES: frozenset = frozenset()
_NO_BINDINGS = MappingProxyType({})


def eval_unary(u, kb: KnowledgeBase, env=_NO_BINDINGS) -> frozenset:
    """The set of values denoted by u, with its free variables bound by the
    mapping `env` from names to values (which is never changed)."""
    return _unary(u, kb, frozenset(env) if env else _NO_NAMES, _NO_NAMES)[0](env)


def eval_binary(b, kb: KnowledgeBase, env=_NO_BINDINGS) -> frozenset:
    """The set of (subject, object) pairs denoted by b under `env`."""
    forward = True
    while type(b) is Reverse:
        b, forward = b.inner, not forward
    if type(b) is Property:
        pairs = _map(kb, b.name, forward)
        return frozenset((x, y) for x, ys in pairs.items() for y in ys)
    if type(b) is not Lambda:
        raise TypeError(f"not a resolved binary form: {b!r}")
    bound = _bind(_body(b, kb, frozenset(env), _NO_NAMES)[0], b.var, env)
    each = [(y, bound(y)) for y in kb.entity_domain]
    if forward:
        return frozenset((x, y) for y, xs in each for x in xs)
    return frozenset((y, x) for y, xs in each for x in xs)


def degree_of(x, b, kb: KnowledgeBase, env=_NO_BINDINGS, collapse: str = "max"):
    """The number b relates x to, or None if it relates x to no number.

    An element related to several numbers collapses to the largest (or the
    smallest, with collapse="min"); the values that are not numbers are
    skipped.
    """
    join = _binary(b, kb, frozenset(env), _NO_NAMES, True)[0]
    return _degree(join(env, frozenset((x,))), collapse)


# --- the compile walk ---------------------------------------------------------
#
# A unary form compiles to `env -> frozenset`, and a binary form, read in
# one direction, to `(env, xs) -> frozenset`, the values it relates to those
# of xs. Each step also returns the node's free variables, which only the
# memos under a binder read (outside every binder it returns none). Each
# node is compiled knowing `scope`, the names env binds when the closure
# runs, and `binders`, those of them that the binders it is under bind. An
# unbound variable raises `UnboundVariable` in the walk, which compiles the
# children of a node in the order of its printed text. A left-nested `&` or
# `|` chain takes one frame per operand, both in the walk and when its
# closures run.


def _unary(u, kb: KnowledgeBase, scope: frozenset, binders: frozenset):
    """(env -> the set u denotes, u's free variables)."""
    kind = type(u)
    if kind is Join:
        pairs = _pairs(u.binary, kb, False)
        if pairs is None:
            join, join_free = _binary(u.binary, kb, scope, binders, False)
            inner, inner_free = _unary(u.unary, kb, scope, binders)
            free = _NO_NAMES
            if binders:
                free = inner_free | join_free
                inner = _memo(inner, inner_free, free, binders)
            return (lambda env: join(env, inner(env))), free
        if type(u.unary) is EntityLit:
            joined = pairs.get(u.unary.value, _EMPTY)
            return (lambda env: joined), _NO_NAMES
        inner, free = _unary(u.unary, kb, scope, binders)
        return (lambda env: _image(pairs, inner(env))), free
    if kind is EntityLit:
        value = frozenset((u.value,))
        return (lambda env: value), _NO_NAMES
    if kind is Union or kind is Intersect:
        a, b, negated = u.left, u.right, None
        if kind is Intersect:
            # A & !B is (A & domain) - B: the complement of B is never built.
            if type(b) is Negate:
                b, negated = b.inner, "right"
            elif type(a) is Negate:
                a, negated = a.inner, "left"
        left, left_free = _unary(a, kb, scope, binders)
        right, right_free = _unary(b, kb, scope, binders)
        free = _NO_NAMES
        if binders:  # outside every binder, free variables are never read
            free = left_free | right_free
            left = _memo(left, left_free, free, binders)
            right = _memo(right, right_free, free, binders)
        if kind is Union:
            return (lambda env: left(env) | right(env)), free
        if negated is None:
            return (lambda env: left(env) & right(env)), free
        domain = kb.entity_domain
        if negated == "right":
            return (lambda env: (left(env) & domain) - right(env)), free

        def kept_minus_dropped(env):
            dropped = left(env)
            return (right(env) & domain) - dropped

        return kept_minus_dropped, free
    if kind is Var:
        name = u.name
        if name not in scope:
            raise UnboundVariable(name)
        return (lambda env: frozenset((env[name],))), frozenset((name,))
    if kind is Negate:
        inner, free = _unary(u.inner, kb, scope, binders)
        domain = kb.entity_domain
        return (lambda env: domain - inner(env)), free
    if kind is Aggregate:
        inner, free = _unary(u.inner, kb, scope, binders)
        return (lambda env: frozenset((Number(len(inner(env))),))), free
    if kind is Superlative:
        return _superlative(u, kb, scope, binders)
    if kind is Mu:
        return _mu(u, kb, scope, binders)
    raise TypeError(f"not a resolved unary form: {u!r}")


def _body(binder, kb: KnowledgeBase, scope: frozenset, binders: frozenset):
    """(env -> the set the body of a mu or lam denotes, with its variable
    bound in env; the binder's free variables). A body that does not
    mention the variable is memoised."""
    var = frozenset((binder.var,))
    scope, binders = scope | var, binders | var
    body, free = _unary(binder.body, kb, scope, binders)
    return _memo(body, free, var, binders), free - var


def _mu(u: Mu, kb: KnowledgeBase, scope: frozenset, binders: frozenset):
    var, domain, form = u.var, kb.entity_domain, u.body
    if not _decidable(form, scope | {var}):
        body, free = _body(u, kb, scope, binders)

        def mu(env):
            bound = _bind(body, var, env)
            return frozenset(x for x in domain if x in bound(x))

        return mu, free
    # The membership test reads the form itself: its body is not compiled.
    free = free_vars(u) if binders else _NO_NAMES
    return (lambda env: frozenset(
        x for x in domain if _contains(x, form, kb, {**env, var: x})
    )), free


def _binary(b, kb: KnowledgeBase, scope: frozenset, binders: frozenset, forward: bool):
    """((env, xs) -> {y | some x in xs has (x, y) in b}, or (x, y) swapped
    when not `forward`; b's free variables)."""
    while type(b) is Reverse:
        b, forward = b.inner, not forward
    if type(b) is Property:
        pairs = _map(kb, b.name, forward)
        return (lambda env, xs: _image(pairs, xs)), _NO_NAMES
    if type(b) is not Lambda:
        raise TypeError(f"not a resolved binary form: {b!r}")
    var, domain = b.var, kb.entity_domain
    body, free = _body(b, kb, scope, binders)
    if not forward:
        def objects(env, xs):
            bound = _bind(body, var, env)
            return _EMPTY.union(*map(bound, xs & domain))

        return objects, free
    form = b.body
    decidable = _decidable(form, scope | {var})

    def subjects(env, xs):
        # With one subject, a membership test per binding replaces building
        # the body's set. With more, a test per binding and subject can
        # cost more than the set, so those keep the set path.
        if decidable and len(xs) == 1:
            (x,) = xs
            return frozenset(y for y in domain if _contains(x, form, kb, {**env, var: y}))
        bound = _bind(body, var, env)
        return frozenset(y for y in domain if not xs.isdisjoint(bound(y)))

    return subjects, free


def _superlative(u: Superlative, kb: KnowledgeBase, scope: frozenset, binders: frozenset):
    collapse = "max" if u.op == "argmax" else "min"
    source, source_free = _unary(u.source, kb, scope, binders)
    prop = _property(u.degree)
    free = source_free
    if prop is None:
        join, degree_free = _binary(u.degree, kb, scope, binders, True)
        if binders:
            free = source_free | degree_free
        related_to = _memo_member(join, degree_free, free, binders)
    else:
        pairs = _map(kb, *prop)
    if binders:
        source = _memo(source, source_free, free, binders)

    def superlative(env):
        xs = source(env)
        if prop is None:
            return _best(xs, [related_to(env, x) for x in xs], collapse)
        # A degree through a property is read from that property's map. For
        # a source large next to the map, the KB's degree order of the map
        # is searched for the first member of the source instead (the order
        # is built once per map, at a cost of a few scans).
        if pairs and 8 * len(xs) >= len(pairs):
            if pairs.keys().isdisjoint(xs):  # runs over the smaller side
                return _EMPTY
            return _first_ranked(*kb.degree_order(*prop, collapse), xs)
        return _best(xs, map(pairs.get, xs), collapse)

    return superlative, free


def _memo(fn, free: frozenset, mentions: frozenset, binders: frozenset):
    """fn, the closure of a node with these free variables whose parent
    mentions the names `mentions`; memoised, when one of `binders` is
    among those and not among its own, by the values of its free variables
    (once, if it has none)."""
    if (binders & mentions) <= free:
        return fn
    names = tuple(free)
    if not names:
        done = []

        def once(env):
            if not done:
                done.append(fn(env))
            return done[0]

        return once
    key, memo = itemgetter(*names), {}

    def memoised(env):
        k = key(env)
        value = memo.get(k)
        if value is None:
            value = memo[k] = fn(env)
        return value

    return memoised


def _memo_member(join, free: frozenset, mentions: frozenset, binders: frozenset):
    """(env, x) -> the values a degree's join relates x to, memoised by x
    and the values of its free variables by the rule of `_memo`."""
    if (binders & mentions) <= free:
        return lambda env, x: join(env, frozenset((x,)))
    names = tuple(free)
    key, memo = (itemgetter(*names) if names else (lambda env: ())), {}

    def related_to(env, x):
        k = (x, key(env))
        value = memo.get(k)
        if value is None:
            value = memo[k] = join(env, frozenset((x,)))
        return value

    return related_to


def _bind(body, var: str, env):
    """The function from a value y to the set body denotes with var bound
    to y, set in place in one copy of env."""
    inner = {**env}

    def bound(y):
        inner[var] = y
        return body(inner)

    return bound


def _decidable(u, bound) -> bool:
    """Whether `_contains` decides membership in u exactly.

    It does for forms built from literals, variables named in `bound`,
    joins through a property or R[...] of one, &, |, ! and mu. Evaluating
    such a form cannot raise, so testing candidates one at a time gives the
    same set, and the same errors, as building it.
    """
    if isinstance(u, EntityLit):
        return True
    if isinstance(u, Var):
        return u.name in bound
    if isinstance(u, Join):
        b = u.binary
        while isinstance(b, Reverse):
            b = b.inner
        return isinstance(b, Property) and _decidable(u.unary, bound)
    if isinstance(u, (Intersect, Union)):
        return _decidable(u.left, bound) and _decidable(u.right, bound)
    if isinstance(u, Negate):
        return _decidable(u.inner, bound)
    if isinstance(u, Mu):
        return _decidable(u.body, bound | {u.var})
    return False


def _contains(x, u, kb: KnowledgeBase, env) -> bool:
    """Whether x is in the set u denotes, for a u that `_decidable` accepts.

    Values are interned, so a literal or a variable matches by identity.
    The most frequent forms are tested first.
    """
    if isinstance(u, Join):
        related = _pairs(u.binary, kb).get(x, _EMPTY)
        inner = u.unary
        if isinstance(inner, EntityLit):
            return inner.value in related
        if isinstance(inner, Var):
            return env[inner.name] in related
        for y in related:
            if _contains(y, inner, kb, env):
                return True
        return False
    if isinstance(u, Union):
        return _contains(x, u.left, kb, env) or _contains(x, u.right, kb, env)
    if isinstance(u, Intersect):
        return _contains(x, u.left, kb, env) and _contains(x, u.right, kb, env)
    if isinstance(u, Negate):
        return x in kb.entity_domain and not _contains(x, u.inner, kb, env)
    if isinstance(u, Var):
        return x is env[u.name]
    if isinstance(u, EntityLit):
        return x is u.value
    if isinstance(u, Mu):
        return x in kb.entity_domain and _contains(x, u.body, kb, {**env, u.var: x})
    raise TypeError(f"not a decidable unary form: {u!r}")


def _pairs(b, kb: KnowledgeBase, forward: bool = True):
    """The map {x: {y | (x, y) in b}} of a property under any number of
    R[...] (of its reverse when not `forward`), or None for any other b.
    Its sets are never empty."""
    while isinstance(b, Reverse):
        b = b.inner
        forward = not forward
    if not isinstance(b, Property):
        return None
    return (kb.forward if forward else kb.backward).get(b.name, {})


def _property(b):
    """(name, forward) of the map `_pairs` reads for b, or None."""
    forward = True
    while type(b) is Reverse:
        b, forward = b.inner, not forward
    return (b.name, forward) if type(b) is Property else None


def _map(kb: KnowledgeBase, name: str, forward: bool):
    """A property's map: `kb.forward[name]`, or `kb.backward[name]` when
    not `forward`; empty for an unknown property."""
    return (kb.forward if forward else kb.backward).get(name, {})


def _image(pairs, xs: frozenset) -> frozenset:
    """{y | some x in xs has y in pairs[x]}"""
    if len(xs) == 1:
        (x,) = xs
        return pairs.get(x, _EMPTY)
    return _EMPTY.union(*filter(None, map(pairs.get, xs)))


def _degree(related: frozenset, collapse: str):
    """The collapsed number in `related`, or None if it holds none."""
    if len(related) == 1:
        (v,) = related
        return v.n if type(v) is Number else None
    ns = [v.n for v in related if type(v) is Number]
    if not ns:
        return None
    return max(ns) if collapse == "max" else min(ns)


def _best(source: frozenset, related, collapse: str) -> frozenset:
    """The members of source whose related set, in `related` (one per
    member, in the source's order), collapses to the best degree."""
    xs, ds = [], []
    for x, ys in zip(source, related):
        if ys:
            d = _degree(ys, collapse)
            if d is not None:
                xs.append(x)
                ds.append(d)
    if not ds:
        return _EMPTY
    best = max(ds) if collapse == "max" else min(ds)
    return frozenset(x for x, d in zip(xs, ds) if d == best)


def _first_ranked(degrees: tuple, keys: tuple, source: frozenset) -> frozenset:
    """The members of source that come first in `keys`, ranked best first
    with their `degrees`, and every member tied with them. The search for
    the first runs at C speed; the walk stops at the first degree after
    theirs."""
    first = next(filter(source.__contains__, keys), None)
    if first is None:
        return _EMPTY
    start = keys.index(first)
    best, end = degrees[start], start + 1
    while end < len(keys) and degrees[end] == best:
        end += 1
    return source.intersection(keys[start:end])
