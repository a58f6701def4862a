"""Compilation of a safe subset of logical forms to SPARQL text.

Supported: entity literals, property joins (reversed included), chains of
intersections with negated conjuncts, unions, and at the top level a count
or a superlative with a plain property degree. Everything else (bound
variables, computed binaries, aggregates below the root, negation with
nothing positive beside it) raises UnsupportedConstruct.

`!` is a complement against the entity domain, the IRIs that occur as a
subject or object in the graph. A group with a negated part keeps only
members of that domain: a join that puts the group's variable in a
triple's subject place does so already, and without one the group gets
an isIRI filter and an EXISTS over both places.

Output is deterministic: the target variable is always ?x, helper
variables are numbered in order of first use, indentation is two spaces
per block.
"""

from __future__ import annotations

import re

from .core import (
    Aggregate,
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
    Union,
    Var,
    operands,
)
from .errors import UnsupportedConstruct

__all__ = ["compile_sparql"]

# What the IRIREF rule of SPARQL 1.1 (grammar rule [139]) forbids between
# the angle brackets of an IRI.
_NOT_IN_IRI = re.compile(r'[<>"{}|^`\\\x00-\x20]')


class _Emitter:
    def __init__(self, prefix):
        self.prefix = prefix
        self.lines: list[str] = []
        self.depth = 0
        self.counter = 0

    def fresh(self) -> str:
        name = f"?v{self.counter}"
        self.counter += 1
        return name

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    def term(self, value) -> str:
        if isinstance(value, Number):
            return str(value.n)
        return self.iri(value.entity_id)

    def iri(self, name: str) -> str:
        if self.prefix is None:
            return f":{name}"
        return f"<{self.prefix}{name}>"


def compile_sparql(u, prefix: str | None = None) -> str:
    """Render a resolved unary form as a SELECT query for ?x. A prefix
    holding a character that an IRI cannot raises ValueError."""
    bad = _NOT_IN_IRI.search(prefix) if prefix is not None else None
    if bad:
        raise ValueError(f"an IRI prefix cannot hold {bad.group()!r}")
    em = _Emitter(prefix)
    em.emit("SELECT DISTINCT ?x WHERE {")
    em.depth += 1
    if isinstance(u, Aggregate):
        _count_root(em, u)
    elif isinstance(u, Superlative):
        _superlative_root(em, u)
    else:
        _group(em, u, "?x")
    em.depth -= 1
    em.emit("}")
    return "\n".join(em.lines) + "\n"


def _count_root(em: _Emitter, u: Aggregate) -> None:
    subj = em.fresh()
    em.emit("{")
    em.depth += 1
    em.emit(f"SELECT (COUNT(DISTINCT {subj}) AS ?x) WHERE {{")
    em.depth += 1
    _group(em, u.inner, subj)
    em.depth -= 1
    em.emit("}")
    em.depth -= 1
    em.emit("}")


def _superlative_root(em: _Emitter, u: Superlative) -> None:
    degree = u.degree
    if not isinstance(degree, Property):
        raise UnsupportedConstruct("superlative with a computed degree")
    fn = "MAX" if u.op == "argmax" else "MIN"
    _group(em, u.source, "?x")
    deg_out = em.fresh()
    best = em.fresh()
    deg_in = em.fresh()
    subj_in = em.fresh()
    em.emit(f"?x {em.iri(degree.name)} {deg_out} .")
    em.emit("{")
    em.depth += 1
    em.emit(f"SELECT ({fn}({deg_in}) AS {best}) WHERE {{")
    em.depth += 1
    _group(em, u.source, subj_in)
    em.emit(f"{subj_in} {em.iri(degree.name)} {deg_in} .")
    em.depth -= 1
    em.emit("}")
    em.depth -= 1
    em.emit("}")
    em.emit(f"FILTER({deg_out} = {best})")


def _group(em: _Emitter, u, subj: str) -> None:
    """Emit triple patterns binding `subj` to the members of u."""
    positives = []
    negatives = []
    for part in operands(u, Intersect):
        (negatives if isinstance(part, Negate) else positives).append(part)
    if not positives:
        raise UnsupportedConstruct("negation with no positive pattern beside it")
    for part in positives:
        _positive(em, part, subj)
    if negatives and not any(map(_binds_subject, positives)):
        p1, o1, s2, p2 = em.fresh(), em.fresh(), em.fresh(), em.fresh()
        em.emit(f"FILTER(isIRI({subj}))")
        em.emit(f"FILTER EXISTS {{ {{ {subj} {p1} {o1} }} UNION {{ {s2} {p2} {subj} }} }}")
    for part in negatives:
        em.emit("FILTER NOT EXISTS {")
        em.depth += 1
        _group(em, part.inner, subj)
        em.depth -= 1
        em.emit("}")


def _binds_subject(u) -> bool:
    """Whether u's pattern is a triple with its variable as the subject."""
    if not isinstance(u, Join):
        return False
    binary, reverse = _strip_reverse(u.binary)
    return not reverse and isinstance(binary, Property)


def _strip_reverse(binary):
    """The binary under any number of R[...], and whether that number is odd."""
    reverse = False
    while isinstance(binary, Reverse):
        reverse = not reverse
        binary = binary.inner
    return binary, reverse


def _positive(em: _Emitter, u, subj: str) -> None:
    if isinstance(u, EntityLit):
        em.emit(f"VALUES {subj} {{ {em.term(u.value)} }}")
        return
    if isinstance(u, Join):
        _join(em, u, subj)
        return
    if isinstance(u, Union):
        for i, branch in enumerate(operands(u, Union)):
            if i:
                em.emit("UNION")
            em.emit("{")
            em.depth += 1
            _group(em, branch, subj)
            em.depth -= 1
            em.emit("}")
        return
    if isinstance(u, Var):
        raise UnsupportedConstruct("a bound variable")
    if isinstance(u, Mu):
        raise UnsupportedConstruct("a mu binder")
    if isinstance(u, Aggregate):
        raise UnsupportedConstruct("an aggregate below the root")
    if isinstance(u, Superlative):
        raise UnsupportedConstruct("a superlative below the root")
    raise UnsupportedConstruct(type(u).__name__)


def _join(em: _Emitter, u: Join, subj: str) -> None:
    binary, reverse = _strip_reverse(u.binary)
    if isinstance(binary, Lambda):
        raise UnsupportedConstruct("a join through a computed binary")
    if not isinstance(binary, Property):
        raise UnsupportedConstruct(type(binary).__name__)
    prop = em.iri(binary.name)

    target = u.unary
    if isinstance(target, EntityLit):
        obj = em.term(target.value)
        if reverse:
            em.emit(f"{obj} {prop} {subj} .")
        else:
            em.emit(f"{subj} {prop} {obj} .")
        return
    var = em.fresh()
    if reverse:
        em.emit(f"{var} {prop} {subj} .")
    else:
        em.emit(f"{subj} {prop} {var} .")
    _group(em, target, var)
