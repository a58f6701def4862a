"""Reference semantics the benchmark checks the program against.

Nothing here imports `ldcs`. `RefKB` evaluates the tuple forms of `gen`
straight from the set definitions over the generated triples; it keeps its
own subject and object indexes only so that checking a 100k-triple run
does not take longer than the run. `sparql_supported` restates the
documented SPARQL subset as a rule over the same tuples. `shape` and
`lc_canonical` read the program's trees by class and attribute name.
"""

from __future__ import annotations

from collections import defaultdict


class RefKB:
    def __init__(self, triples):
        self.triples = set(triples)
        self.objects = defaultdict(set)  # (p, s) -> {o}
        self.subjects = defaultdict(set)  # (p, o) -> {s}
        self.domain = set()
        for s, p, o in self.triples:
            self.objects[(p, s)].add(o)
            self.subjects[(p, o)].add(s)
            self.domain.add(s)
            if isinstance(o, str):
                self.domain.add(o)

    def unary(self, u, env=None) -> set:
        """The set a unary form denotes; entities are str, numbers int."""
        env = env or {}
        tag = u[0]
        if tag in ("ent", "num"):
            return {u[1]}
        if tag == "var":
            return {env[u[1]]}
        if tag == "join":
            return self.subjects_of(u[1], self.unary(u[2], env), env)
        if tag == "and":
            return self.unary(u[1], env) & self.unary(u[2], env)
        if tag == "or":
            return self.unary(u[1], env) | self.unary(u[2], env)
        if tag == "not":
            return self.domain - self.unary(u[1], env)
        if tag == "count":
            return {len(self.unary(u[1], env))}
        if tag in ("argmax", "argmin"):
            # Each member's degree is its largest related number for argmax,
            # its smallest for argmin; members with no degree drop out.
            pick = max if tag == "argmax" else min
            scored = {}
            for x in self.unary(u[1], env):
                degrees = self.objects_of(u[2], {x}, env)
                if degrees:
                    scored[x] = pick(degrees)
            if not scored:
                return set()
            best = pick(scored.values())
            return {x for x, d in scored.items() if d == best}
        if tag == "mu":
            return {x for x in self.domain if x in self.unary(u[2], {**env, u[1]: x})}
        raise ValueError(f"not a unary form: {u!r}")

    def subjects_of(self, b, objs, env) -> set:
        """{x | (x, y) in b for some y in objs}"""
        tag = b[0]
        if tag == "prop":
            out = set()
            for y in objs:
                out |= self.subjects.get((b[1], y), set())
            return out
        if tag == "rev":
            return self.objects_of(b[1], objs, env)
        if tag == "lam":
            # (x, y) is in (lam v . u) when y is an entity and x is in u[v := y].
            out = set()
            for y in objs & self.domain:
                out |= self.unary(b[2], {**env, b[1]: y})
            return out
        raise ValueError(f"not a binary form: {b!r}")

    def objects_of(self, b, subjs, env) -> set:
        """{y | (x, y) in b for some x in subjs}"""
        tag = b[0]
        if tag == "prop":
            out = set()
            for x in subjs:
                out |= self.objects.get((b[1], x), set())
            return out
        if tag == "rev":
            return self.subjects_of(b[1], subjs, env)
        if tag == "lam":
            return {y for y in self.domain if self.unary(b[2], {**env, b[1]: y}) & subjs}
        raise ValueError(f"not a binary form: {b!r}")


def plain(values) -> set:
    """The program's values as the reference's: entities str, numbers int."""
    return {v.entity_id if hasattr(v, "entity_id") else v.n for v in values}


def sparql_supported(u) -> bool:
    """Whether a form lies in the documented SPARQL subset.

    At the root: a count of a group, or a superlative over a group by a
    plain property. A group is an intersection of parts with at least one
    positive part; negated parts are groups. A positive part is an entity
    or number, a union of groups, or a join through a property (reversed
    any number of times) into an entity, a number or a group. Variables,
    `mu`, `lam`, and counts or superlatives below the root fall outside.
    """
    if u[0] == "count":
        return _group(u[1])
    if u[0] in ("argmax", "argmin"):
        return u[2][0] == "prop" and _group(u[1])
    return _group(u)


def _group(u) -> bool:
    parts = _flatten(u, "and")
    positives = [p for p in parts if p[0] != "not"]
    return bool(positives) and all(
        _group(p[1]) if p[0] == "not" else _positive(p) for p in parts
    )


def _positive(u) -> bool:
    if u[0] in ("ent", "num"):
        return True
    if u[0] == "or":
        return all(_group(branch) for branch in _flatten(u, "or"))
    if u[0] == "join":
        b = u[1]
        while b[0] == "rev":
            b = b[1]
        return b[0] == "prop" and _group(u[2])
    return False


def _flatten(u, tag) -> list:
    if u[0] == tag:
        return _flatten(u[1], tag) + _flatten(u[2], tag)
    return [u]


# --- reading the program's trees by attribute name -----------------------------

_SHAPE = {"Intersect": "and", "Union": "or", "Negate": "not", "Join": "join",
          "Reverse": "rev", "Mu": "mu", "Lambda": "lam"}


def shape(u):
    """A resolved tree of the program as a tuple form of `gen`."""
    kind = type(u).__name__
    if kind == "EntityLit":
        v = u.value
        return ("ent", v.entity_id) if hasattr(v, "entity_id") else ("num", v.n)
    if kind == "Var":
        return ("var", u.name)
    if kind == "Property":
        return ("prop", u.name)
    if kind == "Aggregate":
        return (u.op, shape(u.inner))
    if kind == "Superlative":
        return (u.op, shape(u.source), shape(u.degree))
    if kind in ("Mu", "Lambda"):
        return (_SHAPE[kind], u.var, shape(u.body))
    return (_SHAPE[kind],) + tuple(shape(child) for child in vars(u).values())


def lc_canonical(t, free: set, bound=None, depth=0):
    """A lambda term with bound names replaced by binder depth.

    Two terms are alpha-equal exactly when their canonical forms are
    equal. Names used but not bound are added to `free`. Binders are the
    nodes with a `var` and a `body`; child terms are the attributes whose
    type comes from the same module as the node.
    """
    bound = bound or {}
    kind = type(t).__name__
    if kind == "Var":
        if t.name in bound:
            return ("bound", bound[t.name])
        free.add(t.name)
        return ("free", t.name)
    fields = vars(t)
    if set(fields) == {"var", "body"}:
        return (kind, lc_canonical(t.body, free, {**bound, t.var: depth}, depth + 1))
    return (kind,) + tuple(
        lc_canonical(v, free, bound, depth) if type(v).__module__ == type(t).__module__ else v
        for v in fields.values()
    )
