"""Translation to lambda terms and the simplifier."""

from hypothesis import given, strategies as st

from ldcs import (
    GenSchema,
    fresh_var,
    gen_term,
    parse_lc,
    parse_unary,
    resolve,
    simplify,
    to_lc_binary,
    to_lc_unary,
    well_formed,
)
from ldcs.convert import _simp
from ldcs.lc import And, Const, Eq, Exists, Lam, Not, Or, Pred, Var, free_vars
from ldcs.core import Entity


def conv(text):
    return to_lc_unary(resolve(parse_unary(text)))


def test_fresh_var():
    assert fresh_var("x", set()) == "x"
    assert fresh_var("x", {"x"}) == "x1"
    assert fresh_var("x", {"x", "x1", "x3"}) == "x2"
    assert fresh_var("y", {"x"}) == "y"


def test_entity_rule_shape():
    assert conv("Seattle") == Lam("x", Eq(Var("x"), Const(Entity("Seattle"))))


def test_join_introduces_existential():
    term = conv("PlaceOfBirth.Seattle")
    assert term == Lam("x", Exists("y", And(
        Pred("PlaceOfBirth", Var("x"), Var("y")),
        Eq(Var("y"), Const(Entity("Seattle"))),
    )))


def test_subject_variable_avoids_names_in_the_form():
    # the form mentions x, so the subject becomes x1
    term = conv("(mu x . Border.x)")
    assert term.var == "x1"
    assert well_formed(term)


def test_binary_translation():
    term = to_lc_binary(resolve(parse_unary("Border.Oregon")).binary)
    assert term == Lam("x", Lam("y", Pred("Border", Var("x"), Var("y"))))
    term = to_lc_binary(resolve(parse_unary("R[Border].Oregon")).binary)
    assert term == Lam("x", Lam("y", Pred("Border", Var("y"), Var("x"))))


def test_negation_and_intersection_shapes():
    term = conv("!Seattle & Portland")
    body = term.body
    assert isinstance(body, And)
    assert isinstance(body.left, Not)


def test_simplify_collapses_join_equalities():
    raw = conv("Children.PlaceOfBirth.Seattle")
    simp = simplify(raw)
    assert simp == parse_lc(
        "lambda x . exists y . Children(x,y) & PlaceOfBirth(y,Seattle)"
    )


def test_simplify_single_conjunct_exists_survives():
    t = Lam("x", Exists("y", Eq(Var("y"), Const(Entity("A")))))
    assert simplify(t) == t


def test_simplify_double_negation():
    t = conv("!!Seattle")
    assert simplify(t) == Lam("x", Eq(Var("x"), Const(Entity("Seattle"))))


def test_simplify_orients_equations():
    t = Lam("x", And(
        Eq(Const(Entity("A")), Var("x")),
        Pred("P", Var("x"), Var("x")),
    ))
    s = simplify(t)
    assert s.body.left == Eq(Var("x"), Const(Entity("A")))


def test_simplify_rebuilds_conjunctions_left_associated():
    a = Pred("A", Var("x"), Var("x"))
    b = Pred("B", Var("x"), Var("x"))
    c = Pred("C", Var("x"), Var("x"))
    t = Lam("x", And(a, And(b, c)))
    assert simplify(t) == Lam("x", And(And(a, b), c))


def test_simplify_substitution_avoids_capture():
    # exists y . [y = z] & (exists z . P(z,y))  --  y := outer z must not
    # be captured by the inner binder of the same name
    inner = Exists("z", Pred("P", Var("z"), Var("y")))
    t = Exists("y", And(Eq(Var("y"), Var("z")), inner))
    s = simplify(t)
    assert free_vars(s) == {"z"}
    assert isinstance(s, Exists)
    assert s.var != "z"
    assert s.body == Pred("P", Var(s.var), Var("z"))


def test_mu_guard_simplifies_to_displayed_form():
    from ldcs import alpha_eq

    simp = simplify(conv("(mu x . Children.Influenced.x)"))
    assert alpha_eq(simp, parse_lc(
        "lambda s . exists y . Children(s,y) & Influenced(y,s)"
    ))


_SCHEMA = None


def _schema():
    global _SCHEMA
    if _SCHEMA is None:
        import pathlib

        from ldcs import load_kb_file

        path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "demo.tsv"
        _SCHEMA = GenSchema.from_kb(load_kb_file(str(path)))
    return _SCHEMA


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4))
def test_translation_is_closed_and_well_formed(seed, depth):
    u = gen_term(seed, depth, _schema())
    term = to_lc_unary(u)
    assert free_vars(term) == set()
    assert well_formed(term)
    simp = simplify(term)
    assert free_vars(simp) == set()
    assert well_formed(simp)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
def test_simplify_is_idempotent(seed, depth):
    term = simplify(to_lc_unary(gen_term(seed, depth, _schema())))
    assert simplify(term) == term
    # One pass is a fixpoint: another rebuilds nothing.
    assert _simp(term) is term
    assert simplify(term) is term


def test_one_pass_orients_equations_made_by_substitution():
    # exists y1 . ![y1 = x] & [y1 = Seattle]: substituting Seattle for y1
    # leaves [Seattle = x], which the same pass turns round.
    raw = conv("(lam y . !y).Seattle")
    assert raw == parse_lc("lambda x . exists y1 . ![y1 = x] & [y1 = Seattle]")
    assert _simp(raw) == parse_lc("lambda x . ![x = Seattle]")


def test_substitution_orients_equations_under_binders():
    # y := Seattle reaches [y = w] under a binder and [y = v] under a
    # negation; both come out variable first in the same pass.
    t = Exists("y", And(
        And(Eq(Var("y"), Const(Entity("Seattle"))), Exists("w", Eq(Var("y"), Var("w")))),
        Not(Eq(Var("y"), Var("v"))),
    ))
    assert _simp(t) == And(
        Exists("w", Eq(Var("w"), Const(Entity("Seattle")))),
        Not(Eq(Var("v"), Const(Entity("Seattle")))),
    )


_NAMES = ["x", "y", "z", "y1"]
_ELEMENTS = st.one_of(
    st.sampled_from(_NAMES).map(Var),
    st.sampled_from(["A", "Seattle"]).map(lambda n: Const(Entity(n))),
)
_ATOMS = st.one_of(
    st.builds(Eq, _ELEMENTS, _ELEMENTS),
    st.builds(Pred, st.sampled_from(["P", "Q"]), _ELEMENTS, _ELEMENTS),
)


def _pinned(name, element, other, body):
    """exists name . [name = element] & body & [name = other]: simplify
    drops the binder and substitutes `element` for `name` in the rest."""
    return Exists(name, And(And(Eq(Var(name), element), body), Eq(Var(name), other)))


# Few names, so binders shadow one another and substitutions must rename.
_TERMS = st.recursive(_ATOMS, lambda kids: st.one_of(
    st.builds(And, kids, kids),
    st.builds(Or, kids, kids),
    st.builds(Not, kids),
    st.builds(Exists, st.sampled_from(_NAMES), kids),
    st.builds(_pinned, st.sampled_from(_NAMES), _ELEMENTS, _ELEMENTS, kids),
    st.builds(Lam, st.sampled_from(_NAMES), kids),
), max_leaves=12)


@given(_TERMS)
def test_one_pass_is_a_fixpoint_on_random_terms(t):
    s = simplify(t)
    assert _simp(s) is s
    assert free_vars(s) <= free_vars(t)
