"""Brute-force reference semantics for lambda terms, plus a random form
generator and an agreement checker.

`lc_eval` evaluates a translated term by exhaustive enumeration over finite
domains, with no reference to the direct evaluator. `check_equivalence`
generates random forms, runs both semantics, and reports any disagreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import core, lc
from .convert import simplify, to_lc_unary
from .errors import IllTyped, NonNumericDegree, UnboundVariable
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
    ev = _OracleEval(term, kb)
    if isinstance(term.body, lc.Lam) and _is_formula(term.body.body):
        return ev.pair_set(term)
    return ev.value_set(term, {})


def _is_formula(t) -> bool:
    return isinstance(t, (lc.Pred, lc.Eq, lc.And, lc.Or, lc.Not, lc.Exists, lc.In))


class _OracleEval:
    """Enumeration is exponential in nesting depth, so set-valued subterms
    (count sets, superlative winners) are memoized per binding of their
    free variables; the memo keys subterms by identity, which is stable
    for the lifetime of one evaluation."""

    def __init__(self, root: lc.LCTerm, kb: KnowledgeBase):
        self.kb = kb
        self.triples = kb.triples
        self.base = frozenset(kb.entity_domain) | _constants(root)
        # Exists stops at its first witness: trying candidates in a fixed
        # order keeps the work independent of set order.
        self.candidates = tuple(sorted(self.base, key=core.value_sort_key))
        self.rich = self.base.union(*kb.backward.values())
        self._memo: dict = {}
        self._fv: dict = {}
        self._counts: dict = {}

    def _key(self, tag: str, t, env: dict):
        if id(t) not in self._fv:
            self._fv[id(t)] = frozenset(lc.free_vars(t))
        fv = self._fv[id(t)]
        return (tag, id(t), tuple(sorted((v, env[v]) for v in fv if v in env)))

    # -- formulas ------------------------------------------------------------

    def truth(self, t, env: dict) -> bool:
        if isinstance(t, lc.Pred):
            s = self.element(t.arg1, env)
            o = self.element(t.arg2, env)
            if not isinstance(s, core.Entity):
                return False
            return (s, t.property, o) in self.triples
        if isinstance(t, lc.Eq):
            return self.element(t.left, env) == self.element(t.right, env)
        if isinstance(t, lc.And):
            return self.truth(t.left, env) and self.truth(t.right, env)
        if isinstance(t, lc.Or):
            return self.truth(t.left, env) or self.truth(t.right, env)
        if isinstance(t, lc.Not):
            return not self.truth(t.inner, env)
        if isinstance(t, lc.Exists):
            key = self._key("ex", t, env)
            if key not in self._memo:
                self._memo[key] = any(
                    self.truth(t.body, {**env, t.var: v}) for v in self.candidates
                )
            return self._memo[key]
        if isinstance(t, lc.In):
            return self.element(t.element, env) in self.sup_set(t.set_expr, env)
        raise IllTyped(f"not a formula: {lc.format_lc(t)}")

    # -- element terms ---------------------------------------------------------

    def element(self, t, env: dict):
        if isinstance(t, lc.Var):
            if t.name not in env:
                raise UnboundVariable(t.name)
            return env[t.name]
        if isinstance(t, lc.Const):
            return t.value
        if isinstance(t, lc.CountApp):
            return core.Number(len(self.value_set(t.set_term, env)))
        raise IllTyped(f"not an element term: {lc.format_lc(t)}")

    # -- sets ------------------------------------------------------------------

    def value_set(self, term, env: dict) -> frozenset:
        """Denotation of a one-argument lambda term."""
        if not (isinstance(term, lc.Lam) and _is_formula(term.body)):
            raise IllTyped("expected a one-argument lambda term")
        key = self._key("set", term, env)
        if key not in self._memo:
            domain = self.base | self._countable(term.body, env)
            self._memo[key] = frozenset(
                v for v in domain if self.truth(term.body, {**env, term.var: v})
            )
        return self._memo[key]

    def pair_set(self, term: lc.Lam) -> frozenset:
        """Denotation of a two-argument lambda term, both nesting orders."""
        xv, inner = term.var, term.body
        yv, body = inner.var, inner.body
        found = set()
        for x in self.rich | self._countable(body, {}):
            for y in self.rich | self._countable(body, {xv: x}):
                if self.truth(body, {xv: x, yv: y}):
                    found.add((x, y))
        for y in self.rich | self._countable(body, {}):
            for x in self.rich | self._countable(body, {yv: y}):
                if self.truth(body, {xv: x, yv: y}):
                    found.add((x, y))
        return frozenset(found)

    def sup_set(self, t, env: dict) -> frozenset:
        if not isinstance(t, lc.SupApp):
            raise IllTyped(f"not a superlative application: {lc.format_lc(t)}")
        key = self._key("sup", t, env)
        if key in self._memo:
            return self._memo[key]
        members = self.value_set(t.set_term, env)
        deg = t.degree_term
        if not (isinstance(deg, lc.Lam) and isinstance(deg.body, lc.Lam)):
            raise IllTyped("degree of a superlative must take two arguments")
        sv, dv, body = deg.var, deg.body.var, deg.body.body
        scored = []
        bad = []
        for m in members:
            env2 = {**env, sv: m}
            cands = [
                v for v in self.rich | self._countable(body, env2)
                if self.truth(body, {**env2, dv: v})
            ]
            ns = [v.n for v in cands if isinstance(v, core.Number)]
            if len(ns) < len(cands):
                bad.extend(v for v in cands if not isinstance(v, core.Number))
            elif ns:
                scored.append((m, max(ns) if t.op == "argmax" else min(ns)))
        # Raised once every member is scored, naming the least non-number,
        # so that the error does not depend on set order.
        if bad:
            raise NonNumericDegree(min(bad, key=core.value_sort_key))
        if not scored:
            self._memo[key] = frozenset()
            return self._memo[key]
        best = (
            max(d for _, d in scored)
            if t.op == "argmax"
            else min(d for _, d in scored)
        )
        self._memo[key] = frozenset(m for m, d in scored if d == best)
        return self._memo[key]

    def _countable(self, t, env: dict) -> frozenset:
        """Values of aggregate subterms whose free variables are all bound."""
        if id(t) not in self._counts:
            self._counts[id(t)] = _count_subterms(t)
        out = set()
        bound = set(env)
        for sub in self._counts[id(t)]:
            if id(sub) not in self._fv:
                self._fv[id(sub)] = frozenset(lc.free_vars(sub))
            if self._fv[id(sub)] <= bound:
                out.add(self.element(sub, env))
        return frozenset(out)


def _constants(t) -> frozenset:
    return frozenset(s.value for s in core.subterms(t) if isinstance(s, lc.Const))


def _count_subterms(t) -> list:
    return [s for s in core.subterms(t) if isinstance(s, lc.CountApp)]


# --- random form generation ---------------------------------------------------

@dataclass(frozen=True)
class GenSchema:
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

@dataclass(frozen=True)
class Mismatch:
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


@dataclass(frozen=True)
class EquivalenceReport:
    trials: int
    mismatches: tuple = field(default_factory=tuple)

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
    """
    schema = GenSchema.from_kb(kb)
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
