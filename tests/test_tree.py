"""The tree protocol shared by both syntax trees: children, rebuild, binders."""

import copy
import pickle

import pytest

from ldcs import core, lc
from ldcs.core import BinaryForm, Entity, Number, UnaryForm

A = core.EntityLit(Entity("A"))
P = core.Property("P")
X = lc.Var("x")
C = lc.Const(Number(3))

# One hand-built node of every concrete class, with the fields that hold
# its children.
SAMPLES = [
    (core.EntityLit(Entity("A")), ()),
    (core.Var("v"), ()),
    (core.Join(P, A), ("binary", "unary")),
    (core.Intersect(A, core.Var("v")), ("left", "right")),
    (core.Union(A, core.Var("v")), ("left", "right")),
    (core.Negate(A), ("inner",)),
    (core.Aggregate("count", A), ("inner",)),
    (core.Superlative("argmax", A, P), ("source", "degree")),
    (core.Mu("v", A), ("body",)),
    (core.Property("P"), ()),
    (core.Reverse(P), ("inner",)),
    (core.Lambda("v", A), ("body",)),
    (lc.Var("x"), ()),
    (lc.Const(Entity("A")), ()),
    (lc.Pred("P", X, C), ("arg1", "arg2")),
    (lc.Eq(X, C), ("left", "right")),
    (lc.And(X, C), ("left", "right")),
    (lc.Or(X, C), ("left", "right")),
    (lc.Not(X), ("inner",)),
    (lc.Exists("x", X), ("body",)),
    (lc.Lam("x", X), ("body",)),
    (lc.CountApp(X), ("set_term",)),
    (lc.SupApp("argmin", X, C), ("set_term", "degree_term")),
    (lc.In(X, C), ("element", "set_expr")),
]

NODES = [t for t, _ in SAMPLES]
IDS = [f"{type(t).__module__}.{type(t).__name__}" for t in NODES]

BINDERS = {core.Mu, core.Lambda, lc.Exists, lc.Lam}


def _concrete(base):
    """The classes below base that `@node` declared: they define `rebuild`."""
    found = set()
    for cls in base.__subclasses__():
        if "rebuild" in vars(cls):
            found.add(cls)
        found |= _concrete(cls)
    return found


def test_every_node_class_has_a_sample():
    classes = _concrete(UnaryForm) | _concrete(BinaryForm) | _concrete(lc.LCTerm)
    assert {type(t) for t, _ in SAMPLES} == classes


def _other(child):
    """A node of child's kind that differs from it."""
    if isinstance(child, UnaryForm):
        return core.EntityLit(Entity("Other"))
    if isinstance(child, BinaryForm):
        return core.Property("Other")
    return lc.Const(Entity("Other"))


@pytest.mark.parametrize("t,fields", SAMPLES, ids=IDS)
def test_protocol(t, fields):
    assert t.children() == tuple(getattr(t, f) for f in fields)
    assert t.binds == (type(t) in BINDERS)
    assert t.rebuild(t.children()) is t
    assert t.rebuild(list(t.children())) is t
    for i, name in enumerate(fields):
        kids = list(t.children())
        kids[i] = _other(kids[i])
        rebuilt = t.rebuild(kids)
        assert rebuilt is not t
        assert rebuilt == type(t)(**{**vars(t), name: kids[i]})
        assert rebuilt.children() == tuple(kids)


@pytest.mark.parametrize("t", NODES, ids=IDS)
def test_fields_are_read_through_vars(t):
    # The benchmark's tree readers walk `vars(node)`: it must hold exactly
    # the fields, in the order the class declares them.
    declared = list(type(t).__annotations__)
    assert list(vars(t)) == declared
    assert vars(t) == {name: getattr(t, name) for name in declared}
    by_keyword = type(t)(**vars(t))
    assert by_keyword == t and hash(by_keyword) == hash(t)
    assert list(vars(by_keyword)) == declared
    assert type(t)(*vars(t).values()) == t


@pytest.mark.parametrize("t", NODES, ids=IDS)
def test_nodes_are_immutable_values(t):
    shown = ", ".join(f"{name}={value!r}" for name, value in vars(t).items())
    assert repr(t) == f"{type(t).__name__}({shown})"
    assert pickle.loads(pickle.dumps(t)) == t
    assert copy.deepcopy(t) == t
    name = next(iter(vars(t)))
    with pytest.raises(AttributeError):
        setattr(t, name, getattr(t, name))
    with pytest.raises(AttributeError):
        delattr(t, name)
    with pytest.raises(AttributeError):
        t.extra = 1


def test_equality_needs_the_same_class():
    V = core.Var("v")
    assert core.Intersect(A, V) != core.Union(A, V)
    assert hash(core.Intersect(A, V)) == hash(core.Union(A, V))
    assert core.Var("x") != lc.Var("x")
    assert core.Negate(A).__eq__(A) is NotImplemented
    assert core.Join(P, A) == core.Join(core.Property("P"), core.EntityLit(Entity("A")))


def test_labels_leave_out_children_and_the_bound_name():
    assert core.Superlative("argmax", A, P).labels() == ("argmax",)
    assert lc.Pred("P", X, C).labels() == ("P",)
    assert lc.Const(Number(3)).labels() == (Number(3),)
    assert lc.Lam("x", X).labels() == ()


def test_subterms_visits_each_node_before_its_children():
    t = lc.And(lc.Not(X), C)
    assert list(core.subterms(t)) == [t, C, lc.Not(X), X]


def test_free_vars_is_one_function_for_both_trees():
    assert lc.free_vars is core.free_vars
    assert core.free_vars(core.Mu("v", core.Join(P, core.Var("w")))) == {"w"}
    assert lc.free_vars(lc.Exists("y", lc.Pred("P", X, lc.Var("y")))) == {"x"}


def test_rebuild_rejects_a_wrong_number_of_children():
    with pytest.raises(ValueError):
        core.Join(P, A).rebuild((P,))
