"""Values and the logical-form syntax trees.

A unary form denotes a set of values, a binary form a set of value pairs.
The trees here are plain immutable data, declared with `@node`; parsing,
evaluation, conversion, and printing live in their own modules. The tree
protocol (`Node`) is shared with the lambda terms of `lc`.
"""

from __future__ import annotations

import sys

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


class Frozen:
    """A base whose instances refuse to assign or delete an attribute; their
    constructors set fields with `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
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


class Entity(Value):
    """A named individual, identified by a non-empty string."""

    __slots__ = ("entity_id",)

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

    def __repr__(self):
        return f"Entity(entity_id={self.entity_id!r})"

    def __str__(self):
        return self.entity_id


class Number(Value):
    """An integer individual, restricted to the signed 64-bit range.

    Only a true `int` is accepted: a `bool` or a `float` would otherwise
    stand for, and print unlike, the interned number it equals.
    """

    __slots__ = ("n",)

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

    def __repr__(self):
        return f"Number(n={self.n!r})"

    def __str__(self):
        return str(self.n)


def value_sort_key(v: Value):
    """Entities in lexicographic order first, then numbers in numeric order."""
    if isinstance(v, Entity):
        return (0, v.entity_id, 0)
    return (1, "", v.n)


def render_value(v: Value) -> str:
    return v.entity_id if isinstance(v, Entity) else str(v.n)


# --- the tree protocol ----------------------------------------------------------

class Node(Frozen):
    """Base class of the syntax trees: logical forms here, lambda terms in `lc`.

    Every node class is declared with `@node`, which reads its fields once:
    a field annotated with a Node class holds a child, a field named `var`
    makes the node a binder of that name over its children, and the other
    fields are labels. From them each node gets

        children()     its child nodes, in field order;
        rebuild(kids)  the node with those children replaced, or the node
                       itself when each new child is the old one;
        labels()       its labels;
        binds          whether it binds `var`.

    so that a walker that only needs the shape of a tree is written once
    for every node class, and one that changes nothing returns its input.
    A node is an immutable value, equal to a node of its own class with
    equal fields; its `__dict__` holds exactly its fields.
    """

    binds = False


class Variable(Node):
    """A node that refers to a binder by its `name` field."""


def node(cls: type) -> type:
    """Declare a syntax-tree class from its annotated fields.

    The fields are the class's own annotations, in order; each annotation
    is looked up by name in the defining module to tell children from
    labels. One `exec` then writes the class's methods: `__init__` (by
    position or keyword, then `__post_init__` where the class has one),
    `__repr__`, `__eq__` and `__hash__` over the field tuple, and the Node
    protocol. An instance's `__dict__` holds exactly its fields, in order.
    """
    names = list(cls.__annotations__)
    scope = vars(sys.modules[cls.__module__])
    kinds = [scope.get(a) if isinstance(a, str) else a for a in cls.__annotations__.values()]
    kids = [n for n, t in zip(names, kinds) if isinstance(t, type) and issubclass(t, Node)]
    labels = [n for n in names if n not in kids and n != "var"]
    k = [f"k{i}" for i in range(len(kids))]
    # Fields are set with object.__setattr__, never through self.__dict__:
    # building the dict eagerly makes every later field read slower.
    sets = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    # Generated once per class, so that a walker pays one plain call per node.
    source = f"""
def __init__(self, {", ".join(names)}):{sets}{post}

def __repr__(self):
    return type(self).__qualname__ + f"({shown})"

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented

def __hash__(self):
    return hash(({mine}))

def children(self):
    return ({"".join(f"self.{n}, " for n in kids)})

def labels(self):
    return ({"".join(f"self.{n}, " for n in labels)})

def rebuild(self, kids):
    [{", ".join(k)}] = kids
    if {" and ".join(f"{a} is self.{n}" for a, n in zip(k, kids)) or "True"}:
        return self
    return cls({", ".join(k[kids.index(n)] if n in kids else f"self.{n}" for n in names)})
"""
    namespace = {"cls": cls, "_set": object.__setattr__}
    exec(source, namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "children", "labels", "rebuild"):
        setattr(cls, name, namespace[name])
    cls.binds = "var" in names
    return cls


def subterms(t: Node):
    """Every node of t, each before its children."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(t.children())


def operands(t: Node, kind: type) -> list:
    """The operands, left to right, of the chain of `kind` nodes rooted
    at t: the nodes below it that are not `kind`, or [t] if t is not."""
    out = []
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, kind):
            # Reversed, so that the leftmost child is popped first.
            stack.extend(reversed(t.children()))
        else:
            out.append(t)
    return out


def free_vars(t: Node) -> frozenset[str]:
    """Variable names referenced by `t` but not bound inside it."""
    out = set()
    stack = [(t, frozenset())]
    while stack:
        t, bound = stack.pop()
        if isinstance(t, Variable):
            if t.name not in bound:
                out.add(t.name)
            continue
        if t.binds:
            bound = bound | {t.var}
        for kid in t.children():
            stack.append((kid, bound))
    return frozenset(out)


# --- unary forms ----------------------------------------------------------------

class UnaryForm(Node):
    """Base class for set-denoting forms."""


class BinaryForm(Node):
    """Base class for pair-denoting forms."""


@node
class EntityLit(UnaryForm):
    """A literal value; denotes the singleton containing it."""

    value: Value


@node
class Var(UnaryForm, Variable):
    """A reference to an enclosing mu or lam binder."""

    name: str


@node
class Join(UnaryForm):
    """b.u: everything related by b to some member of u."""

    binary: BinaryForm
    unary: UnaryForm


@node
class Intersect(UnaryForm):
    left: UnaryForm
    right: UnaryForm


@node
class Union(UnaryForm):
    left: UnaryForm
    right: UnaryForm


@node
class Negate(UnaryForm):
    """Complement with respect to the knowledge base's entity domain."""

    inner: UnaryForm


AGGREGATE_OPS = ("count",)
SUPERLATIVE_OPS = ("argmax", "argmin")


@node
class Aggregate(UnaryForm):
    """count(u): the singleton holding the cardinality of u."""

    op: str
    inner: UnaryForm

    def __post_init__(self):
        if self.op not in AGGREGATE_OPS:
            raise ValueError(f"unknown aggregate op: {self.op}")


@node
class Superlative(UnaryForm):
    """argmax/argmin(source, degree): members of source with extremal degree."""

    op: str
    source: UnaryForm
    degree: BinaryForm

    def __post_init__(self):
        if self.op not in SUPERLATIVE_OPS:
            raise ValueError(f"unknown superlative op: {self.op}")


@node
class Mu(UnaryForm):
    """(mu x . u): entities that belong to u when bound to x."""

    var: str
    body: UnaryForm


# --- binary forms ----------------------------------------------------------------

@node
class Property(BinaryForm):
    """A named relation, read in subject-to-object direction."""

    name: str


@node
class Reverse(BinaryForm):
    """R[b]: b with its argument order swapped."""

    inner: BinaryForm


@node
class Lambda(BinaryForm):
    """(lam x . u): pairs (element of u, binding of x)."""

    var: str
    body: UnaryForm
