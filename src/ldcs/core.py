"""Values, environments, and the logical-form syntax trees.

A unary form denotes a set of values, a binary form a set of value pairs.
The trees here are plain immutable data; parsing, evaluation, conversion,
and printing live in their own modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnboundVariable

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


class Value:
    """A knowledge-base individual: a named entity or a 64-bit integer.

    Values are interned: constructing one returns the single object for
    its id or integer, so hashing and equality are by identity and run at
    C speed. The intern tables live as long as the process. Pickling and
    copying go back through the constructor and so give back the same
    object.
    """

    __slots__ = ()


# One object per entity id and per integer; nothing is ever removed.
_ENTITIES: dict[str, "Entity"] = {}
_NUMBERS: dict[int, "Number"] = {}


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Entity(Value):
    """A named individual, identified by a non-empty string."""

    entity_id: str

    def __new__(cls, entity_id: str):
        try:
            return _ENTITIES[entity_id]
        except KeyError:
            pass
        i = entity_id
        if not isinstance(i, str):
            raise TypeError(f"entity id must be a str, not {type(i).__name__}")
        if not i:
            raise ValueError("entity id must be non-empty")
        if "\t" in i or "\n" in i:
            raise ValueError("entity id must not contain tab or newline")
        if i[0].isdigit() or i[0] == "-":
            raise ValueError(f"entity id cannot start with a digit or minus: {i!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "entity_id", str(i))
        return _ENTITIES.setdefault(self.entity_id, self)

    def __reduce__(self):
        return (Entity, (self.entity_id,))

    def __str__(self):
        return self.entity_id


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Number(Value):
    """An integer individual, restricted to the signed 64-bit range.

    Only a true `int` is accepted: a `bool` or a `float` would otherwise
    stand for, and print unlike, the interned number it equals.
    """

    n: int

    def __new__(cls, n: int):
        # Checked before the lookup: True and 5.0 hash like 1 and 5.
        if type(n) is not int:
            raise ValueError(f"number must be an int, not {type(n).__name__}: {n!r}")
        try:
            return _NUMBERS[n]
        except KeyError:
            pass
        if not (INT64_MIN <= n <= INT64_MAX):
            raise ValueError(f"integer out of 64-bit range: {n}")
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        return _NUMBERS.setdefault(n, self)

    def __reduce__(self):
        return (Number, (self.n,))

    def __str__(self):
        return str(self.n)


def value_sort_key(v: Value):
    """Entities in lexicographic order first, then numbers in numeric order."""
    if isinstance(v, Entity):
        return (0, v.entity_id, 0)
    return (1, "", v.n)


def render_value(v: Value) -> str:
    return v.entity_id if isinstance(v, Entity) else str(v.n)


@dataclass(frozen=True)
class Env:
    """An immutable variable environment. Unbound lookup raises, never defaults."""

    bindings: dict[str, Value]

    def lookup(self, name: str) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def bind(self, name: str, value: Value) -> Env:
        merged = dict(self.bindings)
        merged[name] = value
        return Env(merged)

    def __contains__(self, name: str) -> bool:
        return name in self.bindings


EMPTY_ENV = Env({})


# --- unary forms ----------------------------------------------------------------

class UnaryForm:
    """Base class for set-denoting forms."""


class BinaryForm:
    """Base class for pair-denoting forms."""


@dataclass(frozen=True)
class EntityLit(UnaryForm):
    """A literal value; denotes the singleton containing it."""

    value: Value


@dataclass(frozen=True)
class Var(UnaryForm):
    """A reference to an enclosing mu or lam binder."""

    name: str


@dataclass(frozen=True)
class Join(UnaryForm):
    """b.u: everything related by b to some member of u."""

    binary: BinaryForm
    unary: UnaryForm


@dataclass(frozen=True)
class Intersect(UnaryForm):
    left: UnaryForm
    right: UnaryForm


@dataclass(frozen=True)
class Union(UnaryForm):
    left: UnaryForm
    right: UnaryForm


@dataclass(frozen=True)
class Negate(UnaryForm):
    """Complement with respect to the knowledge base's entity domain."""

    inner: UnaryForm


AGGREGATE_OPS = ("count",)
SUPERLATIVE_OPS = ("argmax", "argmin")


@dataclass(frozen=True)
class Aggregate(UnaryForm):
    """count(u): the singleton holding the cardinality of u."""

    op: str
    inner: UnaryForm

    def __post_init__(self):
        if self.op not in AGGREGATE_OPS:
            raise ValueError(f"unknown aggregate op: {self.op}")


@dataclass(frozen=True)
class Superlative(UnaryForm):
    """argmax/argmin(source, degree): members of source with extremal degree."""

    op: str
    source: UnaryForm
    degree: BinaryForm

    def __post_init__(self):
        if self.op not in SUPERLATIVE_OPS:
            raise ValueError(f"unknown superlative op: {self.op}")


@dataclass(frozen=True)
class Mu(UnaryForm):
    """(mu x . u): entities that belong to u when bound to x."""

    var: str
    body: UnaryForm


# --- binary forms ----------------------------------------------------------------

@dataclass(frozen=True)
class Property(BinaryForm):
    """A named relation, read in subject-to-object direction."""

    name: str


@dataclass(frozen=True)
class Reverse(BinaryForm):
    """R[b]: b with its argument order swapped."""

    inner: BinaryForm


@dataclass(frozen=True)
class Lambda(BinaryForm):
    """(lam x . u): pairs (element of u, binding of x)."""

    var: str
    body: UnaryForm


def free_vars(form: UnaryForm | BinaryForm) -> frozenset[str]:
    """Variable names referenced by `form` but not bound inside it."""
    if isinstance(form, (EntityLit, Property)):
        return frozenset()
    if isinstance(form, Var):
        return frozenset({form.name})
    if isinstance(form, Join):
        return free_vars(form.binary) | free_vars(form.unary)
    if isinstance(form, (Intersect, Union)):
        return free_vars(form.left) | free_vars(form.right)
    if isinstance(form, Negate):
        return free_vars(form.inner)
    if isinstance(form, Aggregate):
        return free_vars(form.inner)
    if isinstance(form, Superlative):
        return free_vars(form.source) | free_vars(form.degree)
    if isinstance(form, Mu):
        return free_vars(form.body) - {form.var}
    if isinstance(form, Reverse):
        return free_vars(form.inner)
    if isinstance(form, Lambda):
        return free_vars(form.body) - {form.var}
    raise TypeError(f"not a logical form: {form!r}")
