"""Concrete syntax: lexing, precedence, resolution, printing."""

import pytest

from ldcs import (
    Aggregate,
    Entity,
    EntityLit,
    Intersect,
    Join,
    Lambda,
    Mu,
    Negate,
    Number,
    ParseError,
    Property,
    Reverse,
    ShadowedVariable,
    Superlative,
    UnbalancedDelimiter,
    Union,
    UnknownProperty,
    Var,
    VariableInBinaryPosition,
    format_unary,
    parse_unary,
    resolve,
)
from ldcs.parser import MAX_DEPTH, Lexicon


def rparse(text, kb=None, strict=False):
    return resolve(parse_unary(text), kb, strict=strict)


def test_dotted_name_is_a_join_chain():
    u = rparse("Children.PlaceOfBirth.Seattle")
    assert u == Join(
        Property("Children"),
        Join(Property("PlaceOfBirth"), EntityLit(Entity("Seattle"))),
    )


def test_precedence_negation_binds_tightest():
    # !p.e negates the whole join, & binds tighter than |
    assert rparse("!Border.California") == Negate(
        Join(Property("Border"), EntityLit(Entity("California")))
    )
    assert rparse("a & b | c") == Union(
        Intersect(EntityLit(Entity("a")), EntityLit(Entity("b"))),
        EntityLit(Entity("c")),
    )
    assert rparse("a | b & c") == Union(
        EntityLit(Entity("a")),
        Intersect(EntityLit(Entity("b")), EntityLit(Entity("c"))),
    )
    assert rparse("!a & b") == Intersect(
        Negate(EntityLit(Entity("a"))), EntityLit(Entity("b"))
    )


def test_left_associativity():
    u = rparse("a | b | c")
    assert isinstance(u, Union) and isinstance(u.left, Union)
    u = rparse("a & b & c")
    assert isinstance(u, Intersect) and isinstance(u.left, Intersect)


def test_join_is_right_associative_through_operators():
    u = rparse("Type.USState & !Border.California")
    assert isinstance(u, Intersect)
    assert isinstance(u.right, Negate)


def test_parens_override():
    u = rparse("a & (b | c)")
    assert isinstance(u, Intersect) and isinstance(u.right, Union)


def test_numbers_and_namespaced_names():
    assert rparse("Area.164") == Join(Property("Area"), EntityLit(Number(164)))
    assert rparse("Area.-5") == Join(Property("Area"), EntityLit(Number(-5)))
    u = rparse("fb:row.x")  # colons stay inside one name, dots split
    assert u == Join(Property("fb:row"), EntityLit(Entity("x")))


def test_a_dot_is_always_a_token_of_its_own():
    # A digit-led segment after a dot is an integer, and ':' cannot start a
    # name, wherever they stand.
    with pytest.raises(ParseError) as exc:
        parse_unary("Type.5b")
    assert (exc.value.position, exc.value.expected) == (6, "end of input")
    with pytest.raises(ParseError) as exc:
        parse_unary("Type.:x")
    assert exc.value.position == 5
    with pytest.raises(ParseError) as exc:
        parse_unary("a - b")
    assert (exc.value.position, exc.value.expected) == (2, "an integer literal")


def test_keywords_and_binders():
    u = rparse("count(Type.USState)")
    assert u == Aggregate("count", Join(Property("Type"), EntityLit(Entity("USState"))))
    u = rparse("argmin(Type.USState, Area)")
    assert u == Superlative(
        "argmin",
        Join(Property("Type"), EntityLit(Entity("USState"))),
        Property("Area"),
    )
    u = rparse("(mu x . Children.Influenced.x)")
    assert u == Mu("x", Join(
        Property("Children"),
        Join(Property("Influenced"), Var("x")),
    ))
    u = rparse("(lam x . count(R[Children].x)).Dave")
    assert u == Join(
        Lambda("x", Aggregate("count", Join(Reverse(Property("Children")), Var("x")))),
        EntityLit(Entity("Dave")),
    )


def test_reverse_nesting():
    u = rparse("R[R[Border]].Oregon")
    assert u == Join(Reverse(Reverse(Property("Border"))), EntityLit(Entity("Oregon")))


def test_r_is_a_plain_name_without_bracket():
    assert rparse("R") == EntityLit(Entity("R"))
    assert rparse("R.x") == Join(Property("R"), EntityLit(Entity("x")))


def test_parse_error_positions_are_in_range():
    cases = ["", "a &", "a | | b", "count(", "count(a", "(mu x y . a)",
             "R[Border.x", "a..b", "a.", "!", "(a", "argmax(a)", "2x",
             "(lam x . x", "count(a))"]
    for text in cases:
        with pytest.raises(ParseError) as exc:
            parse_unary(text)
        assert 0 <= exc.value.position <= len(text)


# One row per place the form parser raises a ParseError: text, error class,
# position and what the message says was expected.
FORM_ERRORS = [
    ("R[Border] x", ParseError, 10, "'.' after a binary form"),
    ("R[Border.x", UnbalancedDelimiter, 8, "']' closing R["),
    ("(mu x y . a)", ParseError, 6, "'.' after mu binder"),
    ("(lam x y . a).b", ParseError, 7, "'.' after lam binder"),
    ("(mu x . a", UnbalancedDelimiter, 9, "')' closing mu"),
    ("(lam x . a.b", UnbalancedDelimiter, 12, "')' closing lam"),
    ("count x", ParseError, 6, "'(' after count"),
    ("count(a", UnbalancedDelimiter, 7, "')' closing count"),
    ("argmax", ParseError, 6, "'(' after argmax"),
    ("argmax(a)", ParseError, 8, "',' between superlative arguments"),
    ("argmin(a, Area", UnbalancedDelimiter, 14, "')' closing argmin"),
    ("(a", UnbalancedDelimiter, 2, "')'"),
    ("argmax(a, 5)", ParseError, 10, "a binary form"),
    ("a & mu", ParseError, 4, "a unary form (found keyword 'mu')"),
    ("", ParseError, 0, "a unary form"),
    ("a\t\n& )", ParseError, 5, "a unary form"),
    ("(mu 5 . a)", ParseError, 4, "a variable name"),
    ("(mu count . a)", ParseError, 4, "a variable name"),
    ("!" * (MAX_DEPTH + 1) + "a", ParseError, MAX_DEPTH, "at most 100 levels of nesting"),
    ("(" * (MAX_DEPTH + 1) + "a", ParseError, MAX_DEPTH, "at most 100 levels of nesting"),
    ("a." * (MAX_DEPTH + 1) + "b", ParseError, 2 * MAX_DEPTH, "at most 100 levels of nesting"),
    ("a @ b", ParseError, 2, "a token (found '@')"),
    ("a é", ParseError, 2, "a token (found 'é')"),
    ("a & ) @", ParseError, 6, "a token (found '@')"),
    ("a - b", ParseError, 2, "an integer literal"),
    ("9223372036854775808", ParseError, 0, "an integer in 64-bit range"),
    ("Area.-9223372036854775809", ParseError, 5, "an integer in 64-bit range"),
    ("a b", ParseError, 2, "end of input"),
    ("a)", ParseError, 1, "end of input"),
    ("  a   b  ", ParseError, 6, "end of input"),
]


@pytest.mark.parametrize("text, error, position, expected", FORM_ERRORS)
def test_each_error_site_reports_its_position(text, error, position, expected):
    with pytest.raises(ParseError) as exc:
        parse_unary(text)
    assert type(exc.value) is error
    assert (exc.value.position, exc.value.expected) == (position, expected)


def test_the_scan_tries_longer_punctuation_first():
    lexicon = Lexicon(("|", "||"))
    assert lexicon.scan.findall("a||b | c") == ["a", "||", "b", "|", "c"]


def test_an_integer_too_long_to_convert_is_out_of_range():
    with pytest.raises(ParseError) as exc:
        parse_unary("Area." + "9" * 5000)
    assert (exc.value.position, exc.value.expected) == (5, "an integer in 64-bit range")


@pytest.mark.parametrize("text, position, expected", [
    ("in.Seattle", 0, "a unary form (found keyword 'in')"),
    ("exists", 0, "a unary form (found keyword 'exists')"),
    ("Type.lambda", 5, "a unary form (found keyword 'lambda')"),
    ("argmax(Type.City, in)", 18, "a binary form"),
    ("(mu in . Type.City)", 4, "a variable name"),
    ("(lam exists . Type.City).Seattle", 5, "a variable name"),
])
def test_the_lambda_term_keywords_are_no_names(text, position, expected):
    # Their translation would not read back as the same lambda term.
    with pytest.raises(ParseError) as exc:
        parse_unary(text)
    assert (exc.value.position, exc.value.expected) == (position, expected)


def test_unbalanced_delimiters():
    with pytest.raises(UnbalancedDelimiter):
        parse_unary("(a & b")
    with pytest.raises(UnbalancedDelimiter):
        parse_unary("R[Border.x")
    with pytest.raises(UnbalancedDelimiter):
        parse_unary("count(a")


def test_int_literal_range():
    big = 2**63
    with pytest.raises(ParseError):
        parse_unary(str(big))
    assert rparse(str(big - 1)) == EntityLit(Number(big - 1))


def test_leaves_resolved_while_parsing():
    u = parse_unary("Border.x")
    assert u == Join(Property("Border"), EntityLit(Entity("x")))


def test_resolution_scope():
    u = rparse("(mu x . Border.x & Seattle)")
    assert u.body == Intersect(
        Join(Property("Border"), Var("x")),
        EntityLit(Entity("Seattle")),
    )
    # the same name outside any binder is an entity
    assert rparse("x") == EntityLit(Entity("x"))


def test_resolution_errors():
    with pytest.raises(ShadowedVariable):
        rparse("(mu x . (mu x . x))")
    with pytest.raises(ShadowedVariable):
        rparse("(mu x . (lam x . x).Dave)")
    with pytest.raises(VariableInBinaryPosition):
        rparse("(mu x . x.Seattle)")
    with pytest.raises(ValueError):
        rparse("Seattle", kb=None, strict=True)


def test_parser_raises_resolution_errors():
    # Raised at the misused name, before the syntax error after it.
    with pytest.raises(ShadowedVariable) as exc:
        parse_unary("(mu x . (lam x . x).Dave) &")
    assert exc.value.name == "x"
    with pytest.raises(VariableInBinaryPosition) as exc:
        parse_unary("(mu y . argmax(Seattle, y)) |")
    assert exc.value.name == "y"
    # A binder's name is in scope in its body only.
    assert parse_unary("(mu x . Seattle) & (mu x . x) & x.y") == Intersect(
        Intersect(Mu("x", EntityLit(Entity("Seattle"))), Mu("x", Var("x"))),
        Join(Property("x"), EntityLit(Entity("y"))),
    )


def test_resolve_returns_its_input(kb):
    u = parse_unary("(mu x . PlaceOfBirth.x)")
    assert resolve(u) is u
    assert resolve(u, kb, strict=True) is u


@pytest.mark.parametrize("text, first", [
    ("Nope.Zap.Seattle", "Nope"),
    ("Nope.a & Zap.b", "Nope"),
    ("argmax(Zap.a, Nope)", "Zap"),
])
def test_unknown_property_is_the_first_in_text_order(kb, text, first):
    with pytest.raises(UnknownProperty) as exc:
        rparse(text, kb, strict=True)
    assert exc.value.name == first


def test_strict_resolution_checks_properties(kb):
    u = rparse("PlaceOfBirth.Seattle", kb, strict=True)
    assert isinstance(u.binary, Property)
    with pytest.raises(UnknownProperty):
        rparse("Nope.Seattle", kb, strict=True)
    # entity names are not checked, only properties
    rparse("PlaceOfBirth.NowhereVille", kb, strict=True)


FORMAT_CASES = [
    "Seattle",
    "-42",
    "PlaceOfBirth.Seattle",
    "Children.PlaceOfBirth.Seattle",
    "Profession.Scientist & PlaceOfBirth.Seattle",
    "Oregon | Washington | Type.CanadianProvince",
    "Type.USState & !Border.California",
    "count(Type.USState)",
    "argmax(Type.USState, Area)",
    "(mu x . Children.Influenced.x)",
    "argmax(Type.Person, R[(lam x . count(R[Children].x))])",
    "a & (b | c)",
    "!(a | b) & c",
    "Border.(a & b)",
    "count(a) | count(b)",
]


@pytest.mark.parametrize("text", FORMAT_CASES)
def test_format_round_trip(text):
    u = rparse(text)
    assert format_unary(u) == text
    assert rparse(format_unary(u)) == u
