"""Triple-store knowledge bases loaded from tab-separated text.

One triple per line: subject, property, object separated by single tabs.
Objects may be integer literals; subjects may not. Empty lines and lines
starting with '#' are skipped. Duplicate triples collapse. Names must be
ones a query can write: no '.' (the join operator) and no keyword.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field

from .core import Entity, Number, Value, render_value, value_sort_key
from .errors import BadObject, BadSubject, MalformedLine
from .parser import KEYWORDS

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:.]*\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")


@dataclass(frozen=True)
class Triple:
    subject: Value
    property: str
    object: Value

    def __post_init__(self):
        if not isinstance(self.subject, Entity):
            raise ValueError("triple subjects must be entities")


def _index_key(t: Triple):
    return (render_value(t.subject), t.property, value_sort_key(t.object))


@dataclass(frozen=True)
class KnowledgeBase:
    """An immutable triple set with lookup indexes over both directions."""

    triples: frozenset[Triple]
    forward: dict[tuple[str, Value], frozenset[Value]] = field(repr=False)
    backward: dict[tuple[str, Value], frozenset[Value]] = field(repr=False)
    entity_domain: frozenset[Value]
    property_set: frozenset[str]

    def objects_of(self, prop: str, subject: Value) -> frozenset[Value]:
        """All o with (subject, prop, o) in the KB; empty for unknown props."""
        return self.forward.get((prop, subject), frozenset())

    def subjects_of(self, prop: str, obj: Value) -> frozenset[Value]:
        """All s with (s, prop, obj) in the KB; empty for unknown props."""
        return self.backward.get((prop, obj), frozenset())

    def __len__(self):
        return len(self.triples)


def from_triples(triples) -> KnowledgeBase:
    tset = frozenset(triples)
    forward: dict[tuple[str, Value], set[Value]] = {}
    backward: dict[tuple[str, Value], set[Value]] = {}
    domain: set[Value] = set()
    props: set[str] = set()
    for t in tset:
        forward.setdefault((t.property, t.subject), set()).add(t.object)
        backward.setdefault((t.property, t.object), set()).add(t.subject)
        props.add(t.property)
        domain.add(t.subject)
        if isinstance(t.object, Entity):
            domain.add(t.object)
    return KnowledgeBase(
        triples=tset,
        forward={k: frozenset(v) for k, v in forward.items()},
        backward={k: frozenset(v) for k, v in backward.items()},
        entity_domain=frozenset(domain),
        property_set=frozenset(props),
    )


def _parse_object(token: str, line_number: int) -> Value:
    if _INT_RE.match(token):
        try:
            return Number(int(token))
        except ValueError:
            raise BadObject(line_number, f"integer out of range: {token}") from None
    problem = _name_problem(token, "not an identifier or integer")
    if problem is None:
        return Entity(token)
    raise BadObject(line_number, f"{problem}: {token!r}")


def _name_problem(token: str, malformed: str = "not an identifier"):
    """Why no query could name `token`, or None if one can."""
    if not _IDENT_RE.match(token):
        return malformed
    if "." in token:
        return "a name cannot contain '.', the join operator"
    if token in KEYWORDS:
        return "a name cannot be a keyword"
    return None


def load_kb(source) -> KnowledgeBase:
    """Load a knowledge base from a string or a readable text stream."""
    if isinstance(source, str):
        source = io.StringIO(source)
    triples = []
    for line_number, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(
                line_number, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        subj_tok, prop_tok, obj_tok = fields
        if _INT_RE.match(subj_tok):
            raise BadSubject(line_number, f"subject cannot be a number: {subj_tok}")
        problem = _name_problem(subj_tok)
        if problem is not None:
            raise BadSubject(line_number, f"{problem}: {subj_tok!r}")
        problem = _name_problem(prop_tok, "bad property name")
        if problem is not None:
            raise MalformedLine(line_number, f"{problem}: {prop_tok!r}")
        triples.append(
            Triple(Entity(subj_tok), prop_tok, _parse_object(obj_tok, line_number))
        )
    return from_triples(triples)


def load_kb_file(path) -> KnowledgeBase:
    with open(path, encoding="utf-8") as handle:
        return load_kb(handle)


def dump_kb(kb: KnowledgeBase) -> str:
    """Serialize deterministically; load_kb(dump_kb(kb)) reproduces kb."""
    lines = []
    for t in sorted(kb.triples, key=_index_key):
        lines.append(f"{render_value(t.subject)}\t{t.property}\t{render_value(t.object)}")
    return "".join(line + "\n" for line in lines)
