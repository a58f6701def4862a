"""Lambda-term AST: printing, parsing, well-formedness, alpha-equivalence."""

import pytest
from hypothesis import given, settings, strategies as st

from ldcs import (
    GenSchema,
    IllTyped,
    alpha_eq,
    format_lc,
    gen_term,
    lc_eval,
    load_kb,
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


# One row per place the lambda-term parser raises a ParseError: text, error
# class, position and what the message says was expected.
LC_ERRORS = [
    ("lambda x y", ParseError, 9, "'.' after binder"),
    ("lambda 5 . x", ParseError, 7, "a variable name"),
    ("exists count . x", ParseError, 7, "a variable name"),
    ("x & lambda x . y", ParseError, 4, "a term (found keyword 'lambda')"),
    ("x & )", ParseError, 4, "a term"),
    ("", ParseError, 0, "a term"),
    ("lambda x . x ||", ParseError, 15, "a term"),
    ("[x y]", ParseError, 3, "'=' in equality"),
    ("[x = y", UnbalancedDelimiter, 6, "']' closing equality"),
    ("(x", UnbalancedDelimiter, 2, "')'"),
    ("count x", ParseError, 6, "'(' after count"),
    ("count(lambda x . x", UnbalancedDelimiter, 18, "')' closing count"),
    ("argmax x", ParseError, 7, "'(' after argmax"),
    ("argmax(lambda x . x)", ParseError, 19, "',' between superlative arguments"),
    ("argmin(lambda x . x, lambda x . lambda y . P(x,y)", UnbalancedDelimiter, 49,
     "')' closing argmin"),
    ("in x", ParseError, 3, "'(' after in"),
    ("in(x lambda", ParseError, 5, "',' in membership"),
    ("in(x, lambda y . y", UnbalancedDelimiter, 18, "')' closing in"),
    ("P(x y)", ParseError, 4, "',' between predicate arguments"),
    ("P(x, y", UnbalancedDelimiter, 6, "')' closing predicate"),
    ("P(lambda, x)", ParseError, 2, "an element (variable, constant, or count)"),
    ("[( = x]", ParseError, 1, "an element (variable, constant, or count)"),
    ("!" * (LC_MAX_DEPTH + 1) + "x", ParseError, LC_MAX_DEPTH, "at most 310 levels of nesting"),
    ("lambda x . " * (LC_MAX_DEPTH + 1) + "x", ParseError, 11 * LC_MAX_DEPTH,
     "at most 310 levels of nesting"),
    ("x | y", ParseError, 2, "a token (found '|')"),
    ("x & -", ParseError, 4, "a token (found '-')"),
    ("x y @", ParseError, 4, "a token (found '@')"),
    ("[x = 99999999999999999999]", ParseError, 5, "an integer in 64-bit range"),
    ("x y", ParseError, 2, "end of input"),
    ("  x \t ] ", ParseError, 6, "end of input"),
]


@pytest.mark.parametrize("text, error, position, expected", LC_ERRORS)
def test_each_error_site_reports_its_position(text, error, position, expected):
    with pytest.raises(ParseError) as exc:
        parse_lc(text)
    assert type(exc.value) is error
    assert (exc.value.position, exc.value.expected) == (position, expected)


@pytest.mark.parametrize("refused, allowed", [
    ("in.Seattle", "inside.Seattle"),
    ("exists", "exists_"),
    ("(mu lambda . Children.lambda)", "(mu lambda1 . Children.lambda1)"),
])
def test_forms_read_back_once_the_lambda_term_keywords_are_no_names(refused, allowed):
    # `in.Seattle` translated to `lambda x . in(x,Seattle)`, a membership
    # test when read back; `exists` to a term that did not parse at all.
    with pytest.raises(ParseError):
        parse_unary(refused)
    term = simplify(to_lc_unary(parse_unary(allowed)))
    assert alpha_eq(parse_lc(format_lc(term)), term)


def test_binder_scope_is_maximal():
    # the body of a binder extends as far right as possible
    t = parse_lc("lambda x . exists y . P(x,y) & Q(y,x)")
    assert isinstance(t.body, Exists)
    assert isinstance(t.body.body, And)


def test_well_formed_rejects_bad_shapes():
    x = Var("x")
    p_xx = Pred("P", x, x)
    assert not well_formed(Lam("x", Pred("P", And(x, Var("y")), x)))
    assert not well_formed(Lam("x", Eq(x, Lam("y", Pred("P", Var("y"), x)))))
    assert not well_formed(Lam("x", Eq(x, CountApp(x))))
    assert not well_formed(Lam("x", In(x, SupApp("argmax", Lam("x", p_xx), Var("d")))))
    assert well_formed(Lam("x", In(x, SupApp(
        "argmax",
        Lam("y", Pred("P", Var("y"), Var("y"))),
        Lam("s", Lam("d", Pred("A", Var("s"), Var("d")))),
    ))))
    # Only a one- or two-argument lambda of a formula denotes a set.
    assert not well_formed(p_xx)
    assert not well_formed(Lam("x", x))
    assert not well_formed(Lam("x", Lam("y", Lam("z", p_xx))))
    assert well_formed(Lam("x", Lam("y", p_xx)))
    # `in` takes a superlative application, and a predicate a count.
    assert not well_formed(parse_lc("lambda x . in(x, lambda y . Type(y,City))"))
    assert well_formed(parse_lc("lambda x . Area(x, count(lambda y . Type(y,City)))"))


_TINY = load_kb("A\tp\tB\nB\tp\t3\nB\tq\tA\n")
_SORTS = ("element", "formula", "set", "sup", "degree")


@st.composite
def _lc_terms(draw, sort, scope, depth):
    """A term whose variables scope binds, mostly of the sort asked for;
    one subterm in ten above the leaves is of a random sort, so that many
    terms are ill typed."""
    if sort == "root":  # a one- or two-argument lambda
        sort = draw(st.sampled_from(("set", "degree")))
    if depth > 0 and draw(st.integers(0, 9)) == 0:
        sort = draw(st.sampled_from(_SORTS))
    if sort == "element" and (depth <= 0 or draw(st.booleans())):
        return draw(st.sampled_from([Var(n) for n in scope] + [Const(Entity("A")), Const(Number(3))]))
    sub = lambda sort, extra=(): _lc_terms(sort, scope + extra, depth - 1)  # noqa: E731
    if sort == "element":
        return CountApp(draw(sub("set")))
    if sort in ("set", "degree"):
        var = draw(st.sampled_from("xyz"))
        return Lam(var, draw(sub("formula" if sort == "set" else "set", (var,))))
    if sort == "sup":
        return SupApp(draw(st.sampled_from(("argmax", "argmin"))), draw(sub("set")), draw(sub("degree")))
    kinds = ("pred", "eq", "and", "or", "not", "exists", "in")
    kind = draw(st.sampled_from(kinds if depth > 0 else kinds[:2]))
    if kind == "pred":
        return Pred(draw(st.sampled_from("pq")), draw(sub("element")), draw(sub("element")))
    if kind == "eq":
        return Eq(draw(sub("element")), draw(sub("element")))
    if kind in ("and", "or"):
        return (And if kind == "and" else Or)(draw(sub("formula")), draw(sub("formula")))
    if kind == "not":
        return Not(draw(sub("formula")))
    if kind == "exists":
        var = draw(st.sampled_from("xyz"))
        return Exists(var, draw(sub("formula", (var,))))
    return In(draw(sub("element")), draw(sub("sup")))


@settings(max_examples=400, deadline=None)
@given(_lc_terms("root", (), 4))
def test_well_formed_is_what_lc_eval_accepts(term):
    try:
        lc_eval(term, _TINY)
    except IllTyped:
        accepted = False
    else:
        accepted = True
    assert well_formed(term) == accepted


def test_superlative_op_checked():
    # An unknown op was evaluated as argmin and printed as text that does
    # not parse.
    members = parse_lc("lambda y . Type(y,USState)")
    degree = parse_lc("lambda s . lambda d . Area(s,d)")
    with pytest.raises(ValueError, match="^unknown superlative op: argfoo$"):
        SupApp("argfoo", members, degree)
    for op in ("argmax", "argmin"):
        assert SupApp(op, members, degree).op == op


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
