"""Seeded input generators for the benchmark.

Every input is built here from a `random.Random`, with no call into
`ldcs`, so a change to the program cannot change what the benchmark feeds
it. Forms are plain tuples rather than the program's own tree types:

    ("ent", name)  ("num", n)  ("var", name)  ("join", b, u)  ("and", u, v)
    ("or", u, v)  ("not", u)  ("count", u)  ("argmax" | "argmin", u, b)
    ("mu", var, u)  ("prop", name)  ("rev", b)  ("lam", var, u)

Entity values are `str`, numbers are `int`.
"""

from __future__ import annotations

import random

CLASSES = ("City", "Person", "Film", "Org")

# --- knowledge bases -----------------------------------------------------------


def synthetic_kb(rng: random.Random, n_entities: int, links=("Link", "Link", "Near")):
    """Entity names and triples of a synthetic KB.

    Every entity gets a `Type` (one of CLASSES), a number-valued `Area` and
    one entity-valued triple per name in `links`, pointing at a uniformly
    drawn entity. Repeated triples collapse in a set, so a KB of n entities
    holds a little under (2 + len(links)) * n distinct triples.
    """
    names = [f"E{i}" for i in range(n_entities)]
    triples = []
    for name in names:
        triples.append((name, "Type", rng.choice(CLASSES)))
        triples.append((name, "Area", rng.randrange(1, 1_000_000)))
        for prop in links:
            triples.append((name, prop, rng.choice(names)))
    return names, triples


def kb_text(triples) -> str:
    return "".join(f"{s}\t{p}\t{o}\n" for s, p, o in triples)


def read_tsv(text: str):
    """Triples of a TSV KB file, objects that look like integers as int."""
    triples = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        s, p, o = line.split("\t")
        triples.append((s, p, int(o) if o.lstrip("-").isdigit() else o))
    return triples


# --- rendering -----------------------------------------------------------------


def text(u) -> str:
    """Concrete syntax for a tuple form; parses back to the same tree."""
    tag = u[0]
    if tag in ("ent", "var"):
        return u[1]
    if tag == "num":
        return str(u[1])
    if tag == "join":
        return f"{btext(u[1])}.{_operand(u[2])}"
    if tag == "not":
        return f"!{_operand(u[1])}"
    if tag == "and":
        return f"{_operand(u[1])} & {_operand(u[2])}"
    if tag == "or":
        return f"{_operand(u[1])} | {_operand(u[2])}"
    if tag == "count":
        return f"count({text(u[1])})"
    if tag in ("argmax", "argmin"):
        return f"{tag}({text(u[1])}, {btext(u[2])})"
    if tag == "mu":
        return f"(mu {u[1]} . {text(u[2])})"
    raise ValueError(f"not a unary form: {u!r}")


def btext(b) -> str:
    tag = b[0]
    if tag == "prop":
        return b[1]
    if tag == "rev":
        return f"R[{btext(b[1])}]"
    if tag == "lam":
        return f"(lam {b[1]} . {text(b[2])})"
    raise ValueError(f"not a binary form: {b!r}")


def _operand(u) -> str:
    # Binary set operators always get parentheses below another operator,
    # so the text never leans on precedence or associativity.
    return f"({text(u)})" if u[0] in ("and", "or") else text(u)


# --- query mixes over a synthetic KB ------------------------------------------


def _j(prop, u):
    return ("join", ("prop", prop), u)


def _rj(prop, u):
    return ("join", ("rev", ("prop", prop)), u)


class Unique:
    """Draws from a form maker until the text has not been seen in this run."""

    def __init__(self):
        self.seen: set[str] = set()

    def draw(self, make):
        while True:
            form = make()
            t = text(form)
            if t not in self.seen:
                self.seen.add(t)
                return form, t


class QueryMix:
    """The `kb_query` mix: every class anchored at entities, and class-wide.

    A round holds POINT_PER_CLASS anchored queries and CLASS_PER_CLASS
    class-wide queries of each class, shuffled. Anchored queries touch a few
    index entries, so their time is mostly parsing and resolution;
    class-wide queries walk a whole `Type` class and are mostly evaluation.
    """

    KINDS = ("join", "chain", "reverse", "setop", "negate", "count", "superlative")
    POINT_PER_CLASS = 10
    CLASS_PER_CLASS = 2

    def __init__(self, seed: int, names, areas):
        self.rng = random.Random(seed)
        self.names = names
        self.areas = areas
        self.unique = Unique()

    def round(self):
        """One round: a list of (class, scope, form, text)."""
        plan = [(k, "point") for k in self.KINDS for _ in range(self.POINT_PER_CLASS)]
        plan += [(k, "class") for k in self.KINDS for _ in range(self.CLASS_PER_CLASS)]
        self.rng.shuffle(plan)
        out = []
        for kind, scope in plan:
            make = getattr(self, f"_{scope}_{kind}")
            form, t = self.unique.draw(make)
            out.append((kind, scope, form, t))
        return out

    def _e(self):
        return ("ent", self.rng.choice(self.names))

    def _p(self):
        return self.rng.choice(("Link", "Near"))

    def _c(self):
        return ("ent", self.rng.choice(CLASSES))

    def _sup(self):
        return self.rng.choice(("argmax", "argmin"))

    # anchored at one or two entities

    def _point_join(self):
        if self.rng.random() < 0.25:
            return _j("Area", ("num", self.rng.choice(self.areas)))
        return _j(self._p(), self._e())

    def _point_chain(self):
        return _j(self._p(), _j(self._p(), self._e()))

    def _point_reverse(self):
        roll = self.rng.random()
        if roll < 0.25:
            return _rj("Area", self._e())
        if roll < 0.5:
            return _rj(self._p(), _rj(self._p(), self._e()))
        return _rj(self._p(), self._e())

    def _point_setop(self):
        op = self.rng.choice(("and", "or"))
        return (op, _j(self._p(), self._e()), _rj(self._p(), self._e()))

    def _point_negate(self):
        return ("and", _j(self._p(), self._e()), ("not", _j(self._p(), self._e())))

    def _point_count(self):
        return ("count", ("or", _j(self._p(), self._e()), _rj(self._p(), self._e())))

    def _point_superlative(self):
        e = self._e()
        return (self._sup(), ("or", _j(self._p(), e), _rj(self._p(), e)), ("prop", "Area"))

    # walking a whole class; the anchor only keeps the text unique

    def _class_join(self):
        return ("or", _j("Type", self._c()), self._e())

    def _class_chain(self):
        return ("or", _j(self._p(), _j("Type", self._c())), self._e())

    def _class_reverse(self):
        return ("or", _rj(self._p(), _j("Type", self._c())), self._e())

    def _class_setop(self):
        return ("or", _j("Type", self._c()), ("and", _j("Type", self._c()), _j(self._p(), self._e())))

    def _class_negate(self):
        return ("not", ("or", _j("Type", self._c()), _j(self._p(), self._e())))

    def _class_count(self):
        return ("count", ("and", _j("Type", self._c()), ("not", _j(self._p(), self._e()))))

    def _class_superlative(self):
        return (self._sup(), ("or", _j("Type", self._c()), self._e()), ("prop", "Area"))


class BinderMix:
    """The `kb_binder` mix: `mu` and `lam` bodies, and negation under a binder.

    The evaluator computes a `mu`, and a `lam` joined from its object side,
    by evaluating the body once per entity of the domain; a negation there
    builds a complement of the whole domain each time.
    """

    PLAN = ("mu",) * 4 + ("lam",) * 4 + ("negate",) * 2

    def __init__(self, seed: int, names):
        self.rng = random.Random(seed)
        self.names = names
        self.unique = Unique()
        self.flip = False

    def round(self):
        plan = list(self.PLAN)
        self.rng.shuffle(plan)
        out = []
        for kind in plan:
            form, t = self.unique.draw(getattr(self, f"_{kind}"))
            out.append((kind, "binder", form, t))
        return out

    def _e(self):
        return ("ent", self.rng.choice(self.names))

    def _p(self):
        return self.rng.choice(("Link", "Near"))

    def _mu(self):
        body = ("or", _j(self._p(), _j(self._p(), ("var", "x"))), _j(self._p(), self._e()))
        return ("mu", "x", body)

    def _lam(self):
        lam = ("lam", "y", _j(self._p(), _j(self._p(), ("var", "y"))))
        return ("join", ("rev", lam), self._e())

    def _negate(self):
        # Alternates the two binders, so each round negates under both.
        self.flip = not self.flip
        if self.flip:
            return ("mu", "x", ("not", ("or", _j(self._p(), ("var", "x")), _j(self._p(), self._e()))))
        lam = ("lam", "y", ("not", ("or", _j(self._p(), ("var", "y")), _j(self._p(), self._e()))))
        return ("join", ("rev", lam), self._e())


# --- random forms over a small vocabulary --------------------------------------


class FormGen:
    """Random closed forms of bounded depth.

    Draws alternate between full forms, which may hold any construct, and
    plain forms: joins through properties and their reverses, `&`, `|` and
    `!`, with at most a count or a superlative by a property at the root,
    so that a good share of them lie in the SPARQL subset. Variables are
    named by binder depth (v0, v1, ...), so no binder shadows another;
    degrees are `number_props` or a count of `entity_props` objects, so
    every superlative has numeric degrees.
    """

    FULL = ("leaf", "join", "join", "join", "and", "or", "not", "count", "sup", "mu")
    PLAIN = ("leaf", "join", "join", "join", "and", "or", "not")

    def __init__(self, seed: int, entities, numbers, entity_props, number_props, depth=4):
        self.rng = random.Random(seed)
        self.entities = list(entities)
        self.numbers = list(numbers)
        self.entity_props = list(entity_props)
        self.number_props = list(number_props)
        self.depth = depth
        self.unique = Unique()
        self.plain = False

    def draw(self):
        self.plain = not self.plain
        return self.unique.draw(self.root)

    def root(self):
        r = self.rng
        if self.plain and r.random() < 0.2:
            inner = self.unary(self.depth - 1, ())
            op = r.choice(("count", "argmax", "argmin"))
            if op == "count":
                return ("count", inner)
            return (op, inner, ("prop", r.choice(self.number_props)))
        return self.unary(self.depth, ())

    def unary(self, depth, scope):
        r = self.rng
        if depth <= 0:
            return self.leaf(scope)
        kind = r.choice(self.PLAIN if self.plain else self.FULL)
        if kind == "leaf":
            return self.leaf(scope)
        if kind == "join":
            return ("join", self.binary(depth - 1, scope), self.unary(depth - 1, scope))
        if kind in ("and", "or"):
            return (kind, self.unary(depth - 1, scope), self.unary(depth - 1, scope))
        if kind == "not":
            return ("not", self.unary(depth - 1, scope))
        if kind == "count":
            return ("count", self.unary(depth - 1, scope))
        if kind == "sup":
            op = r.choice(("argmax", "argmin"))
            return (op, self.unary(depth - 1, scope), self.degree(scope))
        var = f"v{len(scope)}"
        return ("mu", var, self.unary(depth - 1, scope + (var,)))

    def leaf(self, scope):
        r = self.rng
        roll = r.random()
        if scope and roll < 0.3:
            return ("var", r.choice(scope))
        if roll > 0.9 and self.numbers:
            return ("num", r.choice(self.numbers))
        return ("ent", r.choice(self.entities))

    def binary(self, depth, scope):
        r = self.rng
        roll = r.random()
        props = self.entity_props + self.number_props
        if roll < 0.6 or depth <= 0:
            return ("prop", r.choice(props))
        if roll < 0.8 or self.plain:
            return ("rev", ("prop", r.choice(self.entity_props)))
        var = f"v{len(scope)}"
        return ("lam", var, self.unary(depth - 1, scope + (var,)))

    def degree(self, scope):
        r = self.rng
        if r.random() < 0.5:
            return ("prop", r.choice(self.number_props))
        var = f"v{len(scope)}"
        prop = ("prop", r.choice(self.entity_props))
        return ("rev", ("lam", var, ("count", ("join", ("rev", prop), ("var", var)))))
