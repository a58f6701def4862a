"""Brute-force reference semantics for lambda terms, plus a random form
generator and an agreement checker.

`lc_eval` evaluates a translated term by exhaustive enumeration over finite
domains, with no reference to the direct evaluator: it reads only
`kb.triples` and `kb.entity_domain`, and a predicate is a membership test in
`kb.triples`. It compiles the term once per call, in one walk, into
closures of the environment and runs those.
`check_equivalence` generates random forms, runs both semantics, and
reports any disagreement.
"""

from __future__ import annotations

import random
from bisect import insort
from operator import itemgetter
from typing import NamedTuple

from . import core, lc
from .convert import simplify, to_lc_unary
from .errors import IllTyped, UnboundVariable
from .evaluator import eval_unary
from .kb import KnowledgeBase
from .parser import MAX_DEPTH, format_unary

__all__ = [
    "lc_eval",
    "GenSchema",
    "gen_term",
    "Mismatch",
    "EquivalenceReport",
    "check_equivalence",
]


def lc_eval(term: lc.Lam, kb: KnowledgeBase) -> frozenset:
    """Enumerate the denotation of a one- or two-argument lambda term.

    A one-argument term yields a set of values, a two-argument term a set
    of pairs. The domain is the KB's entities plus every constant mentioned
    in the term, widened where a position can hold a number (aggregate
    results, degree values).
    """
    if not isinstance(term, lc.Lam):
        raise IllTyped("only lambda terms denote sets")
    return _OracleEval(kb).compile(term)({})


_FORMULAS = frozenset((lc.Pred, lc.Eq, lc.And, lc.Or, lc.Not, lc.Exists, lc.In))


class _OracleEval:
    """Compiles one term, in one walk, into closures of the environment, a
    dict from variable names to values: a formula becomes `env -> bool`,
    an element term `env -> value`, and a one-argument lambda or a
    superlative application `env -> frozenset`.
    Each node is compiled knowing the names its enclosing binders bind,
    so a variable reads the environment directly. An unbound variable or
    an ill-typed subterm compiles to a closure that raises
    `UnboundVariable` or `IllTyped` when it is reached, and only then.
    Each compile step also returns the node's free variables and its
    count subterms, as triples of free variables, closure and node, in
    `core.subterms` order. The domains widened with the term's constants
    (`base`, `candidates`, `rich`, `rich_candidates`) are set when the
    walk ends, and read by the closures when they run.

    Every loop over candidates copies the environment once and sets its
    variable in place, and tries the candidates in `value_sort_key`
    order: an existential stops at its first witness, and the first
    candidate that reaches an error raises it, so neither the work nor the
    error depends on set order. A loop whose leftmost conjunct pins its
    variable (an existential's, a one-argument lambda's, or a
    superlative's degree loop) tries only the candidates that satisfy it
    (`_witnesses`). Existentials, one-argument lambdas and superlative
    applications are memoized per binding of their free variables: a
    memo key is the values of those the node's scope binds, and a memo
    belongs to a node (by identity, stable while the term is alive) and
    that set of names.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb, self.facts = kb, kb.derived(_KbFacts.build)
        self.triples, self.related = kb.triples, self.facts.related
        self._constants: set = set()
        self._memos: dict = {}

    def compile(self, root: lc.Lam):
        """env -> the denotation of root. The closures refer to the
        evaluator and it to none of them, so reference counting frees them."""
        if type(root.body) is lc.Lam and type(root.body.body) in _FORMULAS:
            run = self.pair_set(root)
        else:
            run = self.value_set(root, _NO_NAMES)[0]
        facts, constants, domain = self.facts, self._constants, self.kb.entity_domain
        self.base = domain.union(constants)
        self.candidates = _sorted_in(facts.candidates, constants - domain)
        self.rich = facts.rich.union(constants)
        self.rich_candidates = _sorted_in(facts.rich_candidates, constants - facts.rich)
        return run

    def _memo(self, t, names: frozenset, scope: frozenset):
        """The key function and the memo in scope of node t, free in names."""
        names = tuple(sorted(names & scope))
        key = itemgetter(*names) if names else (lambda env: ())
        return key, self._memos.setdefault((id(t), names), {})

    def _ill_typed(self, t, scope: frozenset, message: str, shown=None):
        """A closure that raises IllTyped(message), followed by the text of
        shown when given, with the free variables and count subterms of t:
        t widens domains as if it were well typed, its constants included."""
        if type(t) in (lc.Var, lc.Const, lc.CountApp):
            _, names, counts = self.element(t, scope)
        else:
            inner = scope | {t.var} if t.binds else scope
            names, counts = _NO_NAMES, ()
            for kid in t.children():
                _, kid_names, kid_counts = self._ill_typed(kid, inner, message)
                names, counts = names | kid_names, kid_counts + counts
            if t.binds:
                names = names - {t.var}
        return _fails(IllTyped, message, shown), names, counts

    # -- formulas ------------------------------------------------------------

    def formula(self, t, scope: frozenset):
        """(env -> bool, free variables, count subterms)."""
        kind = type(t)
        if kind is lc.Pred:
            return self._pred(t, scope)
        if kind is lc.Eq:
            return self._eq(t, scope)
        if kind is lc.And or kind is lc.Or:
            left, left_names, left_counts = self.formula(t.left, scope)
            right, right_names, right_counts = self.formula(t.right, scope)
            names, counts = left_names | right_names, right_counts + left_counts
            if kind is lc.And:
                return (lambda env: left(env) and right(env)), names, counts
            return (lambda env: left(env) or right(env)), names, counts
        if kind is lc.Not:
            inner, names, counts = self.formula(t.inner, scope)
            return (lambda env: not inner(env)), names, counts
        if kind is lc.Exists:
            return self._exists(t, scope)
        if kind is lc.In:
            element, element_names, element_counts = self.element(t.element, scope)
            winners, set_names, set_counts = self.sup_set(t.set_expr, scope)
            names, counts = element_names | set_names, set_counts + element_counts
            return (lambda env: element(env) in winners(env)), names, counts
        return self._ill_typed(t, scope, "not a formula: ", t)

    def _pred(self, t: lc.Pred, scope):
        # A triple's subject is always an entity (`kb.Triple`), so a number
        # subject finds no triple.
        prop, triples = t.property, self.triples
        s, o = _bound_name(t.arg1, scope), _bound_name(t.arg2, scope)
        if s and o:
            return (lambda env: (env[s], prop, env[o]) in triples), frozenset((s, o)), ()
        if s and type(t.arg2) is lc.Const:
            value = t.arg2.value
            self._constants.add(value)
            return (lambda env: (env[s], prop, value) in triples), frozenset((s,)), ()
        subject, subject_names, subject_counts = self.element(t.arg1, scope)
        obj, obj_names, obj_counts = self.element(t.arg2, scope)
        names, counts = subject_names | obj_names, obj_counts + subject_counts
        if o and type(t.arg1) is lc.Const:
            value = t.arg1.value
            return (lambda env: (value, prop, env[o]) in triples), names, counts
        return (lambda env: (subject(env), prop, obj(env)) in triples), names, counts

    def _eq(self, t: lc.Eq, scope):
        a, b = _bound_name(t.left, scope), _bound_name(t.right, scope)
        if a and b:
            return (lambda env: env[a] == env[b]), frozenset((a, b)), ()
        if a and type(t.right) is lc.Const:
            value = t.right.value
            self._constants.add(value)
            return (lambda env: env[a] == value), frozenset((a,)), ()
        left, left_names, left_counts = self.element(t.left, scope)
        right, right_names, right_counts = self.element(t.right, scope)
        names, counts = left_names | right_names, right_counts + left_counts
        return (lambda env: left(env) == right(env)), names, counts

    def _exists(self, t: lc.Exists, scope):
        var = t.var
        body, names, counts = self.formula(t.body, scope | {var})
        names = names - {var}
        candidates = self._witnesses(var, t.body, scope)
        key, memo = self._memo(t, names, scope)

        def exists(env):
            k = key(env)
            found = memo.get(k)
            if found is None:
                found = False
                env = env.copy()
                for v in candidates(env):
                    env[var] = v
                    if body(env):
                        found = True
                        break
                memo[k] = found
            return found

        return exists, names, counts

    def _witnesses(self, var: str, body, scope: frozenset, counts: tuple = (), rich: bool = False):
        """env -> the candidates a loop binding var over body tries, in
        `value_sort_key` order: the domain (`_domain`, of these count
        subterms), or only those of its members that satisfy the leftmost
        conjunct of body (through left-nested `&`) where that conjunct
        pins var. It does when it is `[var = t]`, `[t = var]`, `p(t, var)`
        or `p(var, t)`, with t a constant or another variable that scope
        binds, or, in a loop whose domain the counts widen, `[var = c]` or
        `[c = var]` with c one of them whose free variables scope binds.
        The members tried are then t's value, its objects or subjects
        under p, or c's value. Every other candidate fails the conjunct,
        and `&` stops there, before anything that could raise; so the
        result, the memos and the errors are those of trying every
        candidate. The counts that widen the domain still run first, so
        that their errors come first, and the whole body still runs on
        each candidate, so a predicate's witness is confirmed in
        `kb.triples`."""
        first = body
        while type(first) is lc.And:
            first = first.left
        if type(first) is not lc.Eq and type(first) is not lc.Pred:
            return self._domain(counts, rich)
        ends = first.children()
        at = tuple(type(e) is lc.Var and e.name == var for e in ends)
        anchor = ends[at[0]]  # the other end when var is at one of them
        if at[0] == at[1]:
            return self._domain(counts, rich)
        kind = type(anchor)
        if kind is lc.Const:
            value = anchor.value

            def value_of(env):
                return value
        elif _bound_name(anchor, scope):
            value_of = itemgetter(anchor.name)
        elif kind is lc.CountApp and type(first) is lc.Eq:
            value_of = next((
                count for names, count, node in reversed(counts)
                if node is anchor and var not in names and names <= scope
            ), None)
            if value_of is None:
                return self._domain(counts, rich)
        else:
            return self._domain(counts, rich)
        extra = self._extra(counts, rich) if counts else None
        if type(first) is lc.Pred:
            lists, outside = self.related.get((first.property, at[1]), _NO_RELATED)
            # Every subject is an entity, and every object is in `rich`.
            if rich or not outside:
                if extra is not None:
                    def listed(env):
                        extra(env)  # first, so that a count's error comes first
                        return lists.get(value_of(env), ())

                    return listed
                if kind is lc.Const:
                    found = lists.get(value, ())
                    return lambda env: found
                return lambda env: lists.get(value_of(env), ())

            def objects_kept(env):
                more = extra(env) if extra is not None else _NO_NAMES
                kept = self.rich if rich else self.base
                return [w for w in lists.get(value_of(env), ()) if w in kept or w in more]

            return objects_kept
        if kind is lc.Const and extra is None:
            return lambda env: (value,)  # the term's constants are in every domain

        def value_kept(env):
            more = extra(env) if extra is not None else _NO_NAMES
            v = value_of(env)
            return (v,) if v in (self.rich if rich else self.base) or v in more else ()

        return value_kept

    # -- element terms ---------------------------------------------------------

    def element(self, t, scope: frozenset):
        """(env -> value, free variables, count subterms)."""
        kind = type(t)
        if kind is lc.Var:
            name = t.name
            fn = itemgetter(name) if name in scope else _fails(UnboundVariable, name)
            return fn, frozenset((name,)), ()
        if kind is lc.Const:
            value = t.value
            self._constants.add(value)
            return (lambda env: value), _NO_NAMES, ()
        if kind is lc.CountApp:
            members, names, counts = self.value_set(t.set_term, scope)

            def count(env):
                return core.Number(len(members(env)))

            return count, names, ((names, count, t),) + counts
        return self._ill_typed(t, scope, "not an element term: ", t)

    # -- sets ------------------------------------------------------------------

    def value_set(self, term, scope: frozenset):
        """(env -> a one-argument lambda term's set, free variables, count subterms)."""
        if not (type(term) is lc.Lam and type(term.body) in _FORMULAS):
            return self._ill_typed(term, scope, "expected a one-argument lambda term")
        var = term.var
        body, names, counts = self.formula(term.body, scope | {var})
        names = names - {var}
        candidates = self._witnesses(var, term.body, scope, counts)
        key, memo = self._memo(term, names, scope)

        def value_set(env):
            k = key(env)
            members = memo.get(k)
            if members is None:
                inner = env.copy()
                members = []
                for v in candidates(env):
                    inner[var] = v
                    if body(inner):
                        members.append(v)
                members = memo[k] = frozenset(members)
            return members

        return value_set, names, counts

    def pair_set(self, term: lc.Lam):
        """env -> the denotation of a two-argument lambda term, both nesting orders."""
        xv, yv, body_t = term.var, term.body.var, term.body.body
        body, _, counts = self.formula(body_t, frozenset((xv, yv)))
        domain = self._domain(counts, rich=True)

        def pair_set(env):
            found = set()
            for x in domain(env):
                inner = {**env, xv: x}
                # The domain is computed before the loop sets yv.
                for y in domain(inner):
                    inner[yv] = y
                    if body(inner):
                        found.add((x, y))
            for y in domain(env):
                inner = {**env, yv: y}
                for x in domain(inner):
                    # Both set, in this order, so that y wins when xv == yv.
                    inner[xv] = x
                    inner[yv] = y
                    if body(inner):
                        found.add((x, y))
            return frozenset(found)

        return pair_set

    def sup_set(self, t, scope: frozenset):
        """(env -> a superlative application's winners, free variables, count subterms)."""
        if type(t) is not lc.SupApp:
            return self._ill_typed(t, scope, "not a superlative application: ", t)
        members_of, names, counts = self.value_set(t.set_term, scope)
        deg = t.degree_term
        if not (type(deg) is lc.Lam and type(deg.body) is lc.Lam):
            fail, deg_names, deg_counts = self._ill_typed(
                deg, scope, "degree of a superlative must take two arguments")

            def ill_typed(env):
                members_of(env)  # the set's errors come first
                fail(env)

            return ill_typed, names | deg_names, deg_counts + counts
        sv, dv, body_t = deg.var, deg.body.var, deg.body.body
        body, body_names, body_counts = self.formula(body_t, scope | {sv, dv})
        names = names | (body_names - {sv, dv})
        candidates = self._witnesses(dv, body_t, scope | {sv}, body_counts, rich=True)
        best_of = max if t.op == "argmax" else min
        key, memo = self._memo(t, names, scope)

        def sup_set(env):
            k = key(env)
            winners = memo.get(k)
            if winners is not None:
                return winners
            scored = []
            outer = env.copy()
            for m in sorted(members_of(env), key=core.value_sort_key):
                outer[sv] = m
                inner = outer.copy()
                ns = []
                for v in candidates(outer):
                    inner[dv] = v
                    if body(inner) and type(v) is core.Number:
                        ns.append(v.n)
                if ns:
                    scored.append((m, best_of(ns)))
            best = best_of(d for _, d in scored) if scored else None
            winners = memo[k] = frozenset(m for m, d in scored if d == best)
            return winners

        return sup_set, names, body_counts + counts

    def _domain(self, counts: tuple, rich: bool):
        """env -> the domain of a variable bound over a body with these
        count subterms: the candidates (`rich_candidates` if rich) and the
        values of the counts whose free variables env binds."""
        if not counts:
            return (lambda env: self.rich_candidates) if rich else (lambda env: self.candidates)
        extra = self._extra(counts, rich)
        if rich:
            return lambda env: _sorted_in(self.rich_candidates, extra(env))
        return lambda env: _sorted_in(self.candidates, extra(env))

    def _extra(self, counts: tuple, rich: bool):
        """env -> the values of the counts whose free variables env binds
        that are not candidates (`rich_candidates` if rich), running those
        counts in order. Every name env binds is in the scope its count
        was compiled in."""

        def extra(env):
            bound = env.keys()
            found = {count(env) for names, count, _ in counts if names <= bound}
            return found - (self.rich if rich else self.base)

        return extra


_NO_NAMES: frozenset = frozenset()
_NO_RELATED = ({}, frozenset())


class _KbFacts(NamedTuple):
    """What `lc_eval` reads of a KB whatever the term, built from
    `kb.triples` and `kb.entity_domain` once per KB (`build`, through
    `KnowledgeBase.derived`): the entity domain in `value_sort_key` order;
    `rich`, the entity domain and every object, and the same in that
    order; and `related[p, forward]`, a pair of a map from each subject
    of p to its objects (forward) or from each object to its subjects, in
    that order, and the frozenset of the values in that map's lists that
    are outside the entity domain."""

    candidates: tuple
    rich: frozenset
    rich_candidates: tuple
    related: dict

    @staticmethod
    def build(kb: KnowledgeBase) -> "_KbFacts":
        groups: dict = {}
        for s, p, o in kb.triples:
            groups.setdefault((p, True), {}).setdefault(s, []).append(o)
            groups.setdefault((p, False), {}).setdefault(o, []).append(s)
        domain = kb.entity_domain
        related = {}
        for key, lists in groups.items():
            related[key] = (
                {k: tuple(sorted(vs, key=core.value_sort_key)) for k, vs in lists.items()},
                frozenset(v for vs in lists.values() for v in vs if v not in domain),
            )
        rich = domain.union(o for _, _, o in kb.triples)
        return _KbFacts(
            candidates=tuple(sorted(domain, key=core.value_sort_key)),
            rich=rich,
            rich_candidates=tuple(sorted(rich, key=core.value_sort_key)),
            related=related,
        )


def _sorted_in(ordered, extra):
    """`ordered`, values in `value_sort_key` order, with the values of
    `extra` (none of them in `ordered`) sorted in."""
    if not extra:
        return ordered
    out = list(ordered)
    for v in extra:
        insort(out, v, key=core.value_sort_key)
    return out


def _bound_name(t, scope):
    """t's name if t is a variable that scope binds, else None."""
    return t.name if type(t) is lc.Var and t.name in scope else None


def _fails(error, message: str, t=None):
    """A closure that raises error(message), followed by the text of t
    when given, each time it is reached."""

    def fail(env):
        raise error(message if t is None else message + lc.format_lc(t))

    return fail


# --- random form generation ---------------------------------------------------

class GenSchema(NamedTuple):
    """What the generator may draw from: the KB's own vocabulary.

    Reversed joins are limited to properties whose objects are all
    entities, and degrees to properties whose objects are all numbers,
    so generated forms always denote sets the KB can express.
    """

    entities: tuple
    properties: tuple
    entity_valued: tuple
    number_valued: tuple

    @staticmethod
    def from_kb(kb: KnowledgeBase) -> "GenSchema":
        objects = kb.backward  # each property's map is keyed by its objects
        entity_valued = tuple(
            p for p in sorted(objects)
            if all(isinstance(o, core.Entity) for o in objects[p])
        )
        number_valued = tuple(
            p for p in sorted(objects)
            if all(isinstance(o, core.Number) for o in objects[p])
        )
        return GenSchema(
            entities=tuple(sorted(kb.entity_domain, key=core.value_sort_key)),
            properties=tuple(sorted(kb.property_set)),
            entity_valued=entity_valued,
            number_valued=number_valued,
        )


def gen_term(seed: int, max_depth: int, schema: GenSchema) -> core.UnaryForm:
    """A random closed unary form, deterministic in the seed. Raises
    ValueError for a depth outside 0..MAX_DEPTH or a schema with no entities."""
    if not 0 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"--depth must be between 0 and {MAX_DEPTH}")
    if not schema.entities:
        raise ValueError("the KB has no triples to draw forms from")
    rng = random.Random(seed)
    return _gen_unary(rng, schema, max_depth, scope=(), agg_ok=True)


def _gen_unary(rng, sc: GenSchema, depth, scope, agg_ok) -> core.UnaryForm:
    if depth <= 0:
        return _gen_leaf(rng, sc, scope)
    choices = ["leaf", "intersect", "union", "negate"]
    if sc.properties:
        choices += ["join", "join"]
    if depth >= 2:
        choices += ["mu"]
        if sc.number_valued or sc.entity_valued:
            choices += ["superlative"]
        if agg_ok:
            choices += ["count"]
    kind = rng.choice(choices)
    if kind == "leaf":
        return _gen_leaf(rng, sc, scope)
    if kind == "join":
        return core.Join(
            _gen_binary(rng, sc, depth - 1, scope),
            _gen_unary(rng, sc, depth - 1, scope, agg_ok=False),
        )
    if kind == "intersect":
        return core.Intersect(
            _gen_unary(rng, sc, depth - 1, scope, agg_ok=False),
            _gen_unary(rng, sc, depth - 1, scope, agg_ok=False),
        )
    if kind == "union":
        return core.Union(
            _gen_unary(rng, sc, depth - 1, scope, agg_ok=False),
            _gen_unary(rng, sc, depth - 1, scope, agg_ok=False),
        )
    if kind == "negate":
        return core.Negate(_gen_unary(rng, sc, depth - 1, scope, agg_ok=False))
    if kind == "count":
        return core.Aggregate(
            "count", _gen_unary(rng, sc, depth - 1, scope, agg_ok=True)
        )
    if kind == "superlative":
        op = rng.choice(core.SUPERLATIVE_OPS)
        source = _gen_unary(rng, sc, depth - 1, scope, agg_ok=False)
        return core.Superlative(op, source, _gen_degree(rng, sc, scope))
    if kind == "mu":
        var = f"v{len(scope)}"
        body = _gen_unary(rng, sc, depth - 1, scope + (var,), agg_ok=False)
        return core.Mu(var, body)
    raise AssertionError(kind)


def _gen_leaf(rng, sc: GenSchema, scope) -> core.UnaryForm:
    if scope and rng.random() < 0.3:
        return core.Var(rng.choice(scope))
    return core.EntityLit(rng.choice(sc.entities))


def _gen_binary(rng, sc: GenSchema, depth, scope) -> core.BinaryForm:
    roll = rng.random()
    if roll < 0.55 or depth <= 0:
        return core.Property(rng.choice(sc.properties))
    if roll < 0.8 and sc.entity_valued:
        return core.Reverse(core.Property(rng.choice(sc.entity_valued)))
    var = f"v{len(scope)}"
    body = _gen_unary(rng, sc, depth - 1, scope + (var,), agg_ok=False)
    return core.Lambda(var, body)


def _gen_degree(rng, sc: GenSchema, scope) -> core.BinaryForm:
    if sc.number_valued and (not sc.entity_valued or rng.random() < 0.5):
        return core.Property(rng.choice(sc.number_valued))
    var = f"v{len(scope)}"
    prop = core.Property(rng.choice(sc.entity_valued))
    body = core.Aggregate("count", core.Join(core.Reverse(prop), core.Var(var)))
    return core.Reverse(core.Lambda(var, body))


# --- agreement checking ---------------------------------------------------------

class Mismatch(NamedTuple):
    seed: int
    text: str
    direct: frozenset
    raw: frozenset
    simplified: frozenset

    def render(self) -> str:
        def show(s):
            return "{" + ", ".join(
                core.render_value(v) for v in sorted(s, key=core.value_sort_key)
            ) + "}"

        return (
            f"seed={self.seed} form: {self.text}\n"
            f"  direct:     {show(self.direct)}\n"
            f"  raw:        {show(self.raw)}\n"
            f"  simplified: {show(self.simplified)}"
        )


class EquivalenceReport(NamedTuple):
    trials: int
    mismatches: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [m.render() for m in self.mismatches]
        lines.append(f"trials={self.trials} mismatches={len(self.mismatches)}")
        return "\n".join(lines)


def check_equivalence(
    kb: KnowledgeBase, trials: int, max_depth: int = 4, seed: int = 0
) -> EquivalenceReport:
    """Compare direct evaluation against enumeration on random forms.

    Every form is checked both as translated and after simplification;
    any disagreement is reported with the form's text and all three sets.
    Raises ValueError for a negative number of trials, and as `gen_term`
    does.
    """
    if trials < 0:
        raise ValueError("--trials must be at least 0")
    schema = kb.derived(GenSchema.from_kb)
    mismatches = []
    for i in range(trials):
        u = gen_term(seed + i, max_depth, schema)
        direct = eval_unary(u, kb)
        term = to_lc_unary(u)
        raw = lc_eval(term, kb)
        simp = lc_eval(simplify(term), kb)
        if direct != raw or direct != simp:
            mismatches.append(
                Mismatch(seed + i, format_unary(u), direct, raw, simp)
            )
    return EquivalenceReport(trials, tuple(mismatches))
