"""Direct set-valued evaluation of logical forms against a knowledge base.

A unary form denotes a set of values, a binary form a set of pairs. Joins
dispatch through the KB indexes instead of materializing relations, so
evaluation stays linear in the touched triples. A join through a property
reads that property's map once and takes the union of the sets it gives
the joined values in one C-level call. A superlative by a property over a
source large next to that property's map searches the KB's cached degree
order of the map (`KnowledgeBase.degree_order`) instead of scoring every
member.

Binders are where variables come back. They are bound in a plain dict
from names to values: a binder evaluates its body under `{**env, var: x}`
and never changes the mapping it was given. Every binary is read through
one join (`_join`), in either direction. The set definitions would
rebuild the body's whole set once per entity of the domain. Where the body
is simple enough (see `_decidable`), `mu` and the `lam` joins instead ask
whether each candidate is a member (`_contains`), which probes the indexes
from that candidate and never builds a complement. Where they do build the
body's set per binding, and where a superlative reads each member's degree
through a binder, a body that raises for several bindings raises the error
of the least of them by `value_sort_key` (see `_each`).
"""

from __future__ import annotations

from types import MappingProxyType

from .core import (
    Aggregate,
    EntityLit,
    Entity,
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
    value_sort_key,
)
from .errors import EvalError, NonNumericDegree, UnboundVariable
from .kb import KnowledgeBase

__all__ = ["eval_unary", "eval_binary", "degree_of"]

_EMPTY: frozenset = frozenset()
_NO_BINDINGS = MappingProxyType({})


def eval_unary(u, kb: KnowledgeBase, env=_NO_BINDINGS) -> frozenset:
    """The set of values denoted by u, with its free variables bound by the
    mapping `env` from names to values (which is never changed)."""
    if isinstance(u, EntityLit):
        return frozenset({u.value})
    if isinstance(u, Var):
        try:
            return frozenset({env[u.name]})
        except KeyError:
            raise UnboundVariable(u.name) from None
    if isinstance(u, Join):
        return _join(u.binary, eval_unary(u.unary, kb, env), kb, env, False)
    if isinstance(u, Intersect):
        # A & !B is (A & domain) - B: the complement of B is never built.
        if isinstance(u.right, Negate):
            kept = eval_unary(u.left, kb, env) & kb.entity_domain
            return kept - eval_unary(u.right.inner, kb, env)
        if isinstance(u.left, Negate):
            dropped = eval_unary(u.left.inner, kb, env)
            return (eval_unary(u.right, kb, env) & kb.entity_domain) - dropped
        return eval_unary(u.left, kb, env) & eval_unary(u.right, kb, env)
    if isinstance(u, Union):
        return eval_unary(u.left, kb, env) | eval_unary(u.right, kb, env)
    if isinstance(u, Negate):
        return kb.entity_domain - eval_unary(u.inner, kb, env)
    if isinstance(u, Aggregate):
        return frozenset({Number(len(eval_unary(u.inner, kb, env)))})
    if isinstance(u, Superlative):
        return _superlative(u, kb, env)
    if isinstance(u, Mu):
        if _decidable(u.body, {*env, u.var}):
            return frozenset(
                x for x in kb.entity_domain
                if _contains(x, u.body, kb, {**env, u.var: x})
            )
        return frozenset(x for x, xs in _each(_body(u, kb, env), kb.entity_domain) if x in xs)
    raise TypeError(f"not a resolved unary form: {u!r}")


def _body(binder, kb: KnowledgeBase, env):
    """The function from a value y to the set the body of a mu or lam
    denotes when its variable is bound to y."""
    body, var = binder.body, binder.var
    return lambda y: eval_unary(body, kb, {**env, var: y})


def _each(f, xs):
    """(x, f(x)) for each x of xs, in set order.

    Should f raise an EvalError, it is called again on xs in
    `value_sort_key` order and the least x's error is raised, so that the
    error does not follow the set order of xs.
    """
    try:
        for x in xs:
            yield x, f(x)
    except EvalError:
        for x in sorted(xs, key=value_sort_key):
            f(x)
        raise


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
    """(name, forward) of the map `_pairs` reads for b, or None. `_pairs`
    does not call it: joins call `_pairs` once per candidate."""
    forward = True
    while isinstance(b, Reverse):
        b = b.inner
        forward = not forward
    return (b.name, forward) if isinstance(b, Property) else None


def _image(pairs, xs: frozenset) -> frozenset:
    """{y | some x in xs has y in pairs[x]}"""
    if len(xs) == 1:
        (x,) = xs
        return pairs.get(x, _EMPTY)
    return _EMPTY.union(*filter(None, map(pairs.get, xs)))


def eval_binary(b, kb: KnowledgeBase, env=_NO_BINDINGS) -> frozenset:
    """The set of (subject, object) pairs denoted by b under `env`."""
    if isinstance(b, Property):
        return frozenset(
            (x, y) for x, ys in kb.forward.get(b.name, {}).items() for y in ys
        )
    if isinstance(b, Reverse):
        return frozenset((y, x) for x, y in eval_binary(b.inner, kb, env))
    if isinstance(b, Lambda):
        return frozenset(
            (x, y) for y, xs in _each(_body(b, kb, env), kb.entity_domain) for x in xs
        )
    raise TypeError(f"not a resolved binary form: {b!r}")


def _join(b, xs: frozenset, kb, env, forward: bool) -> frozenset:
    """{y | some x in xs has (x, y) in b}, or (x, y) swapped when not
    `forward`."""
    pairs = _pairs(b, kb, forward)
    if pairs is not None:
        return _image(pairs, xs)
    while isinstance(b, Reverse):
        b = b.inner
        forward = not forward
    if not isinstance(b, Lambda):
        raise TypeError(f"not a resolved binary form: {b!r}")
    if not forward:
        out = set()
        for _, ys in _each(_body(b, kb, env), xs & kb.entity_domain):
            out |= ys
        return frozenset(out)
    # With one subject, a membership test per binding replaces building the
    # body's set. With more, a test per binding and subject can cost more
    # than the set, so those keep the set path.
    if len(xs) == 1 and _decidable(b.body, {*env, b.var}):
        (x,) = xs
        return frozenset(
            y for y in kb.entity_domain if _contains(x, b.body, kb, {**env, b.var: y})
        )
    return frozenset(y for y, ys in _each(_body(b, kb, env), kb.entity_domain) if ys & xs)


def degree_of(x, b, kb: KnowledgeBase, env=_NO_BINDINGS, collapse: str = "max"):
    """The number b relates x to, or None if there is none.

    An element related to several numbers collapses to the largest (or the
    smallest, with collapse="min"). Any non-numeric related value raises
    NonNumericDegree, naming the least such value by `value_sort_key`.
    """
    bad = []
    d = _degree(_join(b, frozenset({x}), kb, env, True), collapse, bad)
    if bad:
        raise NonNumericDegree(min(bad, key=value_sort_key))
    return d


def _degree(related: frozenset, collapse: str, bad: list):
    """The collapsed number in `related`, or None; non-numbers go to `bad`."""
    if len(related) == 1:
        (v,) = related
        if isinstance(v, Number):
            return v.n
        bad.append(v)
        return None
    ns = [v.n for v in related if isinstance(v, Number)]
    if len(ns) < len(related):
        bad.extend(v for v in related if not isinstance(v, Number))
        return None
    if not ns:
        return None
    return max(ns) if collapse == "max" else min(ns)


def _superlative(u: Superlative, kb, env) -> frozenset:
    collapse = "max" if u.op == "argmax" else "min"
    source = eval_unary(u.source, kb, env)
    prop = _property(u.degree)
    if prop is None:
        joined = _each(lambda x: _join(u.degree, frozenset({x}), kb, env, True), source)
        related = [ys for _, ys in joined]
    else:
        # A degree through a property is read from that property's map. For
        # a source large next to the map, the KB's degree order of the map
        # is searched for the first member of the source instead (the order
        # is built once per map, at a cost of a few scans). Where the source
        # holds a key with a non-number degree the scan below runs, so that
        # it alone raises NonNumericDegree; the first key found in the
        # source tells, before any order is built, whether it surely does.
        name, forward = prop
        pairs = (kb.forward if forward else kb.backward).get(name, {})
        if pairs and 8 * len(source) >= len(pairs):
            first = next(filter(pairs.__contains__, source), None)  # C speed
            if first is None:
                return _EMPTY
            if all(isinstance(y, Number) for y in pairs[first]):
                degrees, keys, mixed = kb.degree_order(name, forward, collapse)
                if source.isdisjoint(mixed):
                    return _first_ranked(degrees, keys, source)
        related = map(pairs.get, source)
    # Every degree is computed before any error is raised, so that a
    # non-numeric degree is reported the same way whatever the set order.
    xs, ds, bad = [], [], []
    for x, ys in zip(source, related):
        if ys:
            d = _degree(ys, collapse, bad)
            if d is not None:
                xs.append(x)
                ds.append(d)
    if bad:
        raise NonNumericDegree(min(bad, key=value_sort_key))
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
