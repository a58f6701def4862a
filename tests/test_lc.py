"""Lambda-term AST: printing, parsing, well-formedness, alpha-equivalence."""

import pytest
from hypothesis import given, strategies as st

from ldcs import (
    GenSchema,
    alpha_eq,
    format_lc,
    gen_term,
    parse_lc,
    parse_unary,
    resolve,
    simplify,
    to_lc_unary,
    well_formed,
)
from ldcs.lc import (
    And,
    Const,
    CountApp,
    Eq,
    Exists,
    In,
    Lam,
    Not,
    Or,
    Pred,
    SupApp,
    Var,
)
from ldcs.core import Entity, Number
from ldcs.errors import ParseError, UnbalancedDelimiter
from ldcs.lc import LC_MAX_DEPTH
from ldcs.parser import MAX_DEPTH


ROUND_TRIPS = [
    "lambda x . [x = Seattle]",
    "lambda x . PlaceOfBirth(x,Seattle)",
    "lambda x . lambda y . PlaceOfBirth(x,y)",
    "lambda x . exists y . Children(x,y) & PlaceOfBirth(y,Seattle)",
    "lambda x . Profession(x,Scientist) & PlaceOfBirth(x,Seattle)",
    "lambda x . [x = Oregon] || [x = Washington] || Type(x,CanadianProvince)",
    "lambda x . Type(x,USState) & !Border(x,California)",
    "lambda x . [x = count(lambda y . Type(y,USState))]",
    "lambda x . in(x, argmax(lambda y . Type(y,USState), lambda s . lambda a . Area(s,a)))",
    "lambda x . [x = 42]",
    "lambda x . !(Type(x,A) & Type(x,B)) & Type(x,C)",
    "lambda x . (Type(x,A) || Type(x,B)) & Type(x,C)",
    "lambda x . exists y . exists z . P(x,y) & Q(y,z) & [z = E]",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_parse_format_round_trip(text):
    term = parse_lc(text)
    assert well_formed(term)
    assert format_lc(term) == text


def test_parse_classifies_names_by_scope():
    term = parse_lc("lambda x . P(x,Seattle)")
    assert term == Lam("x", Pred("P", Var("x"), Const(Entity("Seattle"))))
    term = parse_lc("lambda x . [x = 3]")
    assert term == Lam("x", Eq(Var("x"), Const(Number(3))))


def test_parse_errors():
    with pytest.raises(UnbalancedDelimiter):
        parse_lc("lambda x . P(x,Seattle")
    with pytest.raises(UnbalancedDelimiter):
        parse_lc("lambda x . [x = Seattle")
    with pytest.raises(ParseError):
        parse_lc("lambda x .")
    with pytest.raises(ParseError):
        parse_lc("lambda x . P(x,Seattle) extra")
    with pytest.raises(ParseError) as exc:
        parse_lc("lambda x . @")
    assert exc.value.position == 11


def test_binder_scope_is_maximal():
    # the body of a binder extends as far right as possible
    t = parse_lc("lambda x . exists y . P(x,y) & Q(y,x)")
    assert isinstance(t.body, Exists)
    assert isinstance(t.body.body, And)


def test_well_formed_rejects_bad_shapes():
    assert not well_formed(Pred("P", And(Var("x"), Var("y")), Var("z")))
    assert not well_formed(Eq(Var("x"), Lam("y", Pred("P", Var("y"), Var("x")))))
    assert not well_formed(CountApp(Var("x")))
    assert not well_formed(
        SupApp("argmax", Lam("x", Pred("P", Var("x"), Var("x"))), Var("d"))
    )
    assert well_formed(
        In(Var("x"), SupApp(
            "argmax",
            Lam("y", Pred("P", Var("y"), Var("y"))),
            Lam("s", Lam("d", Pred("A", Var("s"), Var("d")))),
        ))
    )


def test_alpha_eq_binders():
    a = parse_lc("lambda x . exists y . P(x,y)")
    b = parse_lc("lambda u . exists v . P(u,v)")
    assert alpha_eq(a, b)
    # not a bijection: two binders collapsing onto one name
    c = parse_lc("lambda x . exists y . P(x,x)")
    assert not alpha_eq(a, c)


def test_alpha_eq_distinguishes_constants_from_variables():
    a = parse_lc("lambda x . P(x,Seattle)")
    b = parse_lc("lambda x . P(x,Portland)")
    assert not alpha_eq(a, b)
    # a free occurrence must match by name, not by position
    assert not alpha_eq(Lam("x", Pred("P", Var("x"), Var("f"))),
                        Lam("x", Pred("P", Var("x"), Var("g"))))
    assert alpha_eq(Lam("x", Pred("P", Var("x"), Var("f"))),
                    Lam("y", Pred("P", Var("y"), Var("f"))))


def test_alpha_eq_structure():
    a = parse_lc("lambda x . A(x,B) & C(x,D)")
    assert not alpha_eq(a, parse_lc("lambda x . A(x,B) || C(x,D)"))
    assert not alpha_eq(a, parse_lc("lambda x . C(x,D) & A(x,B)"))


def test_or_precedence_nesting():
    t = parse_lc("lambda x . A(x,B) || C(x,D) & E(x,F)")
    assert isinstance(t.body, Or)
    assert isinstance(t.body.right, And)


def _fixture_schema():
    import pathlib

    from ldcs import load_kb_file

    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "demo.tsv"
    return GenSchema.from_kb(load_kb_file(str(path)))


_SCHEMA = _fixture_schema()


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=4))
def test_translated_terms_print_and_reparse_exactly(seed, depth):
    # closed terms round-trip through text structurally, binder names included
    term = to_lc_unary(gen_term(seed, depth, _SCHEMA))
    assert well_formed(term)
    assert parse_lc(format_lc(term)) == term


# --- deep nesting -------------------------------------------------------------

def _lc_nested(kind, n):
    """Lambda-term text whose `kind` construct opens n levels."""
    if kind == "!":
        return "!" * n + "a"
    if kind == "(":
        return "(" * n + "a" + ")" * n
    if kind in ("lambda", "exists"):
        return "".join(f"{kind} x{i} . " for i in range(n)) + "a"
    assert kind == "count"
    return "count(" * n + "a" + ")" * n


@pytest.mark.parametrize("kind", ["!", "(", "lambda", "exists", "count"])
def test_nesting_past_the_limit_is_a_parse_error(kind):
    assert parse_lc(_lc_nested(kind, LC_MAX_DEPTH))
    for depth in (LC_MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError) as exc:
            parse_lc(_lc_nested(kind, depth))
        assert f"at most {LC_MAX_DEPTH} levels" in str(exc.value)


def _form_nested(kind, n):
    """Form text whose `kind` construct opens n levels."""
    if kind == "!":
        return "!" * n + "Seattle"
    if kind == "(":
        return "(" * n + "Seattle" + ")" * n
    if kind == "join":
        return "Type." * n + "City"
    if kind == "mu":
        return "".join(f"(mu v{i} . " for i in range(n)) + "Seattle" + ")" * n
    if kind == "lam":
        # The join through a lam opens a level, and so does the lam.
        return "".join(f"(lam v{i} . " for i in range(n // 2)) + "Seattle" + ").City" * (n // 2)
    if kind == "R[":
        return "R[" * (n - 1) + "Type" + "]" * (n - 1) + ".City"
    if kind == "count":
        return "count(" * n + "Seattle" + ")" * n
    assert kind == "argmax"
    return "argmax(" * n + "Seattle" + ", Area)" * n


@pytest.mark.parametrize("kind", ["!", "(", "join", "mu", "lam", "R[", "count", "argmax"])
def test_translations_at_the_form_nesting_limit_read_back(kind):
    raw = to_lc_unary(resolve(parse_unary(_form_nested(kind, MAX_DEPTH))))
    for term in (raw, simplify(raw)):
        assert alpha_eq(parse_lc(format_lc(term)), term)
