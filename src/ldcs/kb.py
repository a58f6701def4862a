"""Triple-store knowledge bases loaded from tab-separated text.

One triple per line: subject, property, object separated by single tabs.
Objects may be integer literals; subjects may not. Empty lines and lines
starting with '#' are skipped. Duplicate triples collapse. Names must be
ones a query can write: no '.' (the join operator) and no keyword of
either grammar. A KB's value is its per-property index.
"""

from __future__ import annotations

import gc
import io
import re
from collections import namedtuple
from contextlib import contextmanager
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from types import MappingProxyType

from .core import Entity, Frozen, Number, Value, render_value, value_sort_key
from .errors import BadObject, BadSubject, KbFormatError, MalformedLine
from .parser import KEYWORDS

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_:.]*\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")


class Triple(namedtuple("Triple", "subject property object")):
    """One (subject, property, object) fact, checked to have an entity as
    its subject. It is a tuple, so it hashes and compares as one, at C
    speed, and its fields cannot be assigned."""

    __slots__ = ()

    def __new__(cls, subject: Value, property: str, object: Value):
        if not isinstance(subject, Entity):
            raise ValueError("triple subjects must be entities")
        return tuple.__new__(cls, (subject, property, object))

    @classmethod
    def _make(cls, iterable):  # `_replace` goes through here: keep the check
        return cls(*iterable)


def _index_key(t):
    s, p, o = t
    return (render_value(s), p, value_sort_key(o))


_NO_VALUES: frozenset = frozenset()
_NO_PAIRS = MappingProxyType({})


class KnowledgeBase(Frozen):
    """An immutable triple set, held as lookup indexes over both directions.

    `forward[p][s]` is the set of objects o with (s, p, o) in the KB and
    `backward[p][o]` the set of subjects; every set in them is non-empty.
    `forward` determines the rest, so KBs are equal when it is; the indexes
    are left out of the repr. `triples` and a private memo of derived facts
    (`derived`) are built on first use; the memo is no part of the value.
    """

    def __init__(
        self,
        forward: dict[str, dict[Value, frozenset[Value]]],
        backward: dict[str, dict[Value, frozenset[Value]]],
        entity_domain: frozenset[Value],
        property_set: frozenset[str],
    ):
        set_ = object.__setattr__
        set_(self, "forward", forward)
        set_(self, "backward", backward)
        set_(self, "entity_domain", entity_domain)
        set_(self, "property_set", property_set)
        set_(self, "_derived", {})

    @cached_property  # it writes the instance dict directly, as `Frozen` allows
    def triples(self) -> frozenset[Triple]:
        """One `Triple` for each pair in `forward`, built on first use."""
        with _collector_paused():
            return frozenset(tuple.__new__(Triple, (s, p, o)) for p, pairs in self.forward.items()
                             for s, os in pairs.items() for o in os)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.forward == other.forward
        return NotImplemented

    def __repr__(self):
        return (
            f"KnowledgeBase(triples={self.triples!r}, entity_domain={self.entity_domain!r}, "
            f"property_set={self.property_set!r})"
        )

    def objects_of(self, prop: str, subject: Value) -> frozenset[Value]:
        """All o with (subject, prop, o) in the KB; empty for unknown props."""
        return self.forward.get(prop, _NO_PAIRS).get(subject, _NO_VALUES)

    def subjects_of(self, prop: str, obj: Value) -> frozenset[Value]:
        """All s with (s, prop, obj) in the KB; empty for unknown props."""
        return self.backward.get(prop, _NO_PAIRS).get(obj, _NO_VALUES)

    def __len__(self):
        return sum(map(len, chain.from_iterable(map(dict.values, self.forward.values()))))

    def derived(self, build, *args):
        """`build(self, *args)`, built once per KB and arguments, on first
        use, and kept. The KB is immutable, so what is derived from it
        stays true; `build` must depend on nothing else."""
        key = (build, *args)
        value = self._derived.get(key)
        if value is None:
            with _collector_paused():
                value = self._derived[key] = build(self, *args)
        return value

    def degree_order(self, prop: str, forward: bool, collapse: str):
        """The keys of a property map ranked by degree, as (degrees, keys).

        The map is `forward[prop]`, or `backward[prop]` when not `forward`.
        `keys` holds the keys related to at least one number, best first,
        and `degrees` their degrees in the same order. For collapse="max" a
        key's degree is the largest number it is related to and the largest
        comes first; for "min" the smallest. The values that are not
        numbers are skipped. Built once per map and collapse (`derived`).
        """
        return self.derived(_rank, prop, forward, collapse)


_number = attrgetter("n")


def _rank(kb: KnowledgeBase, prop: str, forward: bool, collapse: str):
    """`KnowledgeBase.degree_order`, built."""
    pairs = (kb.forward if forward else kb.backward).get(prop, _NO_PAIRS)
    keys = list(pairs)
    values = list(chain.from_iterable(pairs.values()))
    if len(values) == len(keys):
        # One value per key, as with most properties: every pass below runs
        # at C speed, in about half the time of the loop over the keys.
        numeric = list(map(isinstance, values, repeat(Number)))
        ranked = list(compress(keys, numeric))
        degrees = list(map(_number, compress(values, numeric)))
    else:
        pick = max if collapse == "max" else min
        ranked, degrees = [], []
        for x, ys in pairs.items():
            ns = [y.n for y in ys if isinstance(y, Number)]
            if ns:
                ranked.append(x)
                degrees.append(pick(ns))
    order = sorted(range(len(degrees)), key=degrees.__getitem__, reverse=collapse == "max")
    return tuple(map(degrees.__getitem__, order)), tuple(map(ranked.__getitem__, order))


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore its prior state.

    A load builds tracked objects per triple (index sets and dicts, and
    `Triple`s when `triples` is read), and the collector would otherwise
    rescan the ones already built again and again while the rest are built.
    """
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def from_triples(triples) -> KnowledgeBase:
    """A KB of `Triple`s, or of (subject, property, object) tuples whose
    subjects are entities; a repeated triple counts once."""
    with _collector_paused():
        columns: dict[str, tuple[list, list]] = {}
        for s, p, o in triples:
            ss, os = columns.get(p) or columns.setdefault(p, ([], []))
            ss.append(s)
            os.append(o)
        forward = {p: _group(zip(ss, os)) for p, (ss, os) in columns.items()}
        domain = set().union(*forward.values())  # the subjects
        if not all(map(isinstance, domain, repeat(Entity))):
            raise ValueError("triple subjects must be entities")
        backward = {p: _group(zip(os, ss)) for p, (ss, os) in columns.items()}
        objects = set().union(*backward.values())
        domain.update(compress(objects, map(isinstance, objects, repeat(Entity))))
        return KnowledgeBase(
            forward=forward,
            backward=backward,
            entity_domain=frozenset(domain),
            property_set=frozenset(forward),
        )


def _group(pairs) -> dict:
    """{k: frozenset of the v paired with k} for distinct (k, v) pairs."""
    # A group holds its first value bare and becomes a list at its second:
    # most groups have one value, and a list for each would be as many
    # more objects to build and then free.
    groups: dict = {}
    for k, v in pairs:
        got = groups.setdefault(k, v)
        if got is not v:
            if type(got) is list:
                got.append(v)
            else:
                groups[k] = [got, v]
    return {k: frozenset(v) if type(v) is list else frozenset((v,)) for k, v in groups.items()}


def _parse_subject(token: str, line_number: int) -> Entity:
    if _INT_RE.match(token):
        raise BadSubject(line_number, f"subject cannot be a number: {token}")
    problem = _name_problem(token)
    if problem is not None:
        raise BadSubject(line_number, f"{problem}: {token!r}")
    return Entity(token)


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


def _parse_property(token: str, line_number: int) -> str:
    problem = _name_problem(token, "bad property name")
    if problem is not None:
        raise MalformedLine(line_number, f"{problem}: {token!r}")
    return token


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
    """Load a knowledge base from a string or a readable text stream.

    A string's lines end as `load_kb_file`'s do. Each distinct token is
    checked once, at its first line, and no `Triple` is made.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    with _collector_paused():
        subjects: dict[str, Entity] = {}
        props: dict[str, str] = {}
        objects: dict[str, Value] = {}
        subject_column, property_column, object_column = [], [], []
        for line_number, raw in enumerate(source, start=1):
            line = raw.rstrip("\r\n")
            stripped = line.lstrip()
            if not stripped or stripped[0] == "#":
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(
                    line_number, f"expected 3 tab-separated fields, got {len(fields)}"
                )
            subj_tok, prop_tok, obj_tok = fields
            s = subjects.get(subj_tok)
            if s is None:
                s = subjects[subj_tok] = _parse_subject(subj_tok, line_number)
            p = props.get(prop_tok)
            if p is None:
                p = props[prop_tok] = _parse_property(prop_tok, line_number)
            o = objects.get(obj_tok)
            if o is None:
                o = objects[obj_tok] = _parse_object(obj_tok, line_number)
            subject_column.append(s)
            property_column.append(p)
            object_column.append(o)
        return from_triples(zip(subject_column, property_column, object_column))


def load_kb_file(path) -> KnowledgeBase:
    """Load a knowledge base from a UTF-8 file.

    A byte sequence that is not UTF-8 is a KbFormatError at its line.
    Lines end at "\n", "\r\n" or a lone "\r", as in text mode.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line_number = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        message = f"not valid UTF-8 (byte 0x{data[exc.start]:02x})"
        raise KbFormatError(line_number, message) from None
    return load_kb(text)


def dump_kb(kb: KnowledgeBase) -> str:
    """Serialize deterministically; load_kb(dump_kb(kb)) reproduces kb."""
    lines = []
    for s, p, o in sorted(kb.triples, key=_index_key):
        lines.append(f"{render_value(s)}\t{p}\t{render_value(o)}")
    return "".join(line + "\n" for line in lines)
