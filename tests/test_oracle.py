"""Brute-force enumeration semantics and the random form generator."""

import gc
import os
import pathlib
import re
import subprocess
import sys

import pytest

from ldcs import (
    Entity,
    GenSchema,
    IllTyped,
    Number,
    UnboundVariable,
    check_equivalence,
    dump_kb,
    eval_unary,
    gen_term,
    lc_eval,
    load_kb,
    parse_lc,
    parse_unary,
    resolve,
    simplify,
    to_lc_unary,
)
from ldcs import core, lc, oracle


def test_lc_eval_simple_sets(kb):
    assert lc_eval(parse_lc("lambda x . PlaceOfBirth(x,Seattle)"), kb) == {
        Entity("Alice"), Entity("Carol"),
    }
    assert lc_eval(parse_lc("lambda x . [x = Seattle]"), kb) == {Entity("Seattle")}
    assert lc_eval(
        parse_lc("lambda x . exists y . Children(x,y) & PlaceOfBirth(y,Seattle)"), kb
    ) == {Entity("Dave"), Entity("Eve")}


def test_lc_eval_negation_stays_in_domain(kb):
    got = lc_eval(parse_lc("lambda x . !Type(x,Person)"), kb)
    assert Entity("Washington") in got
    assert Number(71) not in got
    assert len(got) == 10


def test_lc_eval_constants_extend_the_domain(kb):
    got = lc_eval(parse_lc("lambda x . [x = Reykjavik]"), kb)
    assert got == {Entity("Reykjavik")}
    # Wherever they stand: in a predicate, or in a disjunct that is never
    # reached.
    for text in ("lambda x . !Area(x,99)", "lambda x . !Type(x,Planet) || Area(x,99)"):
        assert Number(99) in lc_eval(parse_lc(text), kb)
    # An ill-typed subterm raises whether it is reached or not.
    with pytest.raises(IllTyped, match=r"^not a superlative application: lambda y \. \[y = 99\]$"):
        lc_eval(parse_lc("lambda x . !Type(x,Planet) || in(x, lambda y . [y = 99])"), kb)


def test_lc_eval_count(kb):
    got = lc_eval(parse_lc("lambda x . [x = count(lambda y . Type(y,USState))]"), kb)
    assert got == {Number(3)}


def test_lc_eval_superlative(kb):
    got = lc_eval(parse_lc(
        "lambda x . in(x, argmax(lambda y . Type(y,USState), lambda s . lambda a . Area(s,a)))"
    ), kb)
    assert got == {Entity("California")}
    got = lc_eval(parse_lc(
        "lambda x . in(x, argmin(lambda y . Type(y,USState), lambda s . lambda a . Area(s,a)))"
    ), kb)
    assert got == {Entity("Washington")}


def test_lc_eval_two_argument_terms(kb):
    pairs = lc_eval(parse_lc("lambda x . lambda y . Border(x,y)"), kb)
    assert pairs == {
        (Entity("Washington"), Entity("Oregon")),
        (Entity("Oregon"), Entity("Washington")),
        (Entity("Oregon"), Entity("California")),
        (Entity("California"), Entity("Oregon")),
    }
    # degree pairs in both argument orders need the count extension
    pairs = lc_eval(parse_lc(
        "lambda y . lambda n . [n = count(lambda c . Children(y,c))]"
    ), kb)
    assert (Entity("Dave"), Number(2)) in pairs
    reversed_pairs = lc_eval(parse_lc(
        "lambda n . lambda y . [n = count(lambda c . Children(y,c))]"
    ), kb)
    assert (Number(2), Entity("Dave")) in reversed_pairs


def test_lc_eval_rejects_non_lambda():
    with pytest.raises(IllTyped):
        lc_eval(parse_lc("lambda x . Type(x,Person)").body, None)


def test_pred_with_number_subject_is_false(kb):
    got = lc_eval(parse_lc("lambda x . Area(71,x)"), kb)
    assert got == frozenset()


def _plain(v):
    return v.entity_id if isinstance(v, Entity) else v.n


def _names(values):
    return set(map(_plain, values))


def _pairs(pairs):
    return {tuple(map(_plain, pair)) for pair in pairs}


@pytest.mark.parametrize("text, expected", [
    # The inner x shadows the outer one: y must have influenced Eve.
    ("lambda x . exists y . Children(x,y) & (exists x . Influenced(y,x) & [x = Eve])",
     {"Dave"}),
    ("lambda x . Type(x,USState) & (exists x . Border(x,California))",
     {"California", "Oregon", "Washington"}),
    ("lambda x . [x = count(lambda x . Type(x,USState))]", {3}),
])
def test_lc_eval_shadowed_binders(kb, text, expected):
    assert _names(lc_eval(parse_lc(text), kb)) == expected


def test_lc_eval_two_argument_term_with_one_name(kb):
    # The inner binder shadows the outer, so the first argument ranges freely.
    pairs = _pairs(lc_eval(parse_lc("lambda x . lambda x . Type(x,USState)"), kb))
    assert len(pairs) == 54
    assert {b for _, b in pairs} == {"California", "Oregon", "Washington"}
    assert {a for a, _ in pairs} >= {"Alice", "USState", 71, 164}


def test_lc_eval_memo_follows_the_outer_binding(kb):
    # One existential, reached under each x (and each pair): its answer
    # for one binding is not reused for another.
    got = lc_eval(parse_lc("lambda x . Type(x,Person) & (exists y . Children(x,y))"), kb)
    assert _names(got) == {"Dave", "Eve"}
    got = lc_eval(parse_lc(
        "lambda x . lambda y . exists z . Children(x,z) & Influenced(z,y)"), kb)
    assert _pairs(got) == {("Dave", "Dave"), ("Dave", "Eve")}
    # A superlative whose degree alone reads x.
    got = lc_eval(parse_lc(
        "lambda x . in(x, argmax(lambda y . Type(y,Person), "
        "lambda s . lambda d . [d = count(lambda c . Children(s,c) & [c = x])]))"), kb)
    assert _names(got) == {"Dave", "Eve"}


def test_lc_eval_count_pairs_in_both_orders(kb):
    got = _pairs(lc_eval(parse_lc(
        "lambda x . lambda n . [n = count(lambda c . Children(x,c))]"), kb))
    assert len(got) == 18
    assert {p for p in got if p[1] != 0} == {("Dave", 2), ("Eve", 1)}
    assert {a for a, _ in got} >= {"Alice", "Seattle", 71, 98, 164}
    flipped = _pairs(lc_eval(parse_lc(
        "lambda n . lambda x . [n = count(lambda c . Children(x,c))]"), kb))
    assert flipped == {(n, x) for x, n in got}


@pytest.mark.parametrize("text, expected", [
    ("lambda x . in(x, argmin(lambda y . Type(y,Person), "
     "lambda s . lambda d . [d = count(lambda c . Children(s,c))]))",
     {"Alice", "Bob", "Carol"}),
    ("lambda x . in(x, argmax(lambda y . Type(y,City), "
     "lambda s . lambda d . [d = count(lambda p . PlaceOfBirth(p,s))]))",
     {"Portland", "Seattle"}),
    # No member: no degree is looked at, so none can fail.
    ("lambda x . in(x, argmax(lambda y . Type(y,Person) & Type(y,City), "
     "lambda s . lambda d . PlaceOfBirth(s,d)))",
     set()),
])
def test_lc_eval_superlative_ties(kb, text, expected):
    assert _names(lc_eval(parse_lc(text), kb)) == expected


def test_lc_eval_superlative_skips_non_number_degrees(kb):
    # Every person's degree is a city, so no person has a degree.
    term = parse_lc("lambda x . in(x, argmax(lambda y . Type(y,Person), "
                    "lambda s . lambda d . PlaceOfBirth(s,d)))")
    assert lc_eval(term, kb) == frozenset()


# "size" relates A to a number and an entity, B the same, C only to an
# entity, and D to a number.
_SIZES = "A\tsize\t3\nA\tsize\tB\nB\tsize\t7\nB\tsize\tC\nC\tsize\tD\nD\tsize\t5\n"


@pytest.mark.parametrize("sizes, text, expected", [
    (False, "argmax(Type.USState, Border)", set()),
    (False, "Area.argmax(Alice, Influenced)", set()),
    (False, "(mu x . x & argmin(x | 71 | Type.USState, R[Type]))", set()),
    (False, "(lam v0 . argmax(Portland | v0, (lam v1 . v1))).Engineer", set()),
    (False, "argmin(Type.City | Type.USState, R[(lam y . argmax(y, R[Type]))])", set()),
    (True, "argmax(A | B | C, size)", {"B"}),
    (True, "argmin(A | B | C, size)", {"A"}),
    (True, "argmax(A | C | D, size)", {"D"}),
])
def test_superlatives_skip_non_numbers_in_every_semantics(kb, sizes, text, expected):
    # A member's degree is its best number; one related to no number has
    # none. Direct evaluation and both translations agree, and raise nothing.
    world = load_kb(_SIZES) if sizes else kb
    u = resolve(parse_unary(text), world, strict=True)
    raw = to_lc_unary(u)
    assert _names(eval_unary(u, world)) == expected
    assert _names(lc_eval(raw, world)) == expected
    assert _names(lc_eval(simplify(raw), world)) == expected


_CITY = lc.Pred("Type", lc.Var("x"), lc.Const(Entity("City")))
_PLANET = lc.Pred("Type", lc.Var("x"), lc.Const(Entity("Planet")))


@pytest.mark.parametrize("bad, error, message", [
    (lc.Const(Entity("Seattle")), IllTyped, "not a formula: Seattle"),
    (lc.Exists("y", lc.Pred("Children", lc.Var("z"), lc.Var("y"))), UnboundVariable,
     "unbound variable: z"),
    (lc.Eq(lc.Var("x"), lc.Var("z")), UnboundVariable, "unbound variable: z"),
    (lc.Pred("Type", lc.Var("x"), lc.Var("z")), UnboundVariable, "unbound variable: z"),
    (lc.Eq(lc.Var("x"), parse_lc("lambda y . Type(y,City)")), IllTyped,
     "not an element term: lambda y . Type(y,City)"),
    (lc.In(lc.Var("x"), parse_lc("lambda y . Type(y,City)")), IllTyped,
     "not a superlative application: lambda y . Type(y,City)"),
    (parse_lc("in(x, argmax(lambda y . Type(y,City), lambda s . Area(s,s)))"),
     IllTyped, "degree of a superlative must take two arguments"),
    # The set is checked before the degree.
    (parse_lc("in(x, argmax(Seattle, lambda s . Area(s,s)))"),
     IllTyped, "expected a one-argument lambda term"),
])
def test_lc_eval_errors_only_where_reached(kb, bad, error, message):
    # Errors are raised while the term compiles, so a bad subterm raises
    # the same error wherever it stands: behind a conjunct some value
    # satisfies, behind one no value satisfies, inside an existential with
    # no witness, and inside a count.
    y_planet = lc.Pred("Type", _Y, lc.Const(Entity("Planet")))
    for formula in (
        lc.And(_CITY, bad),
        lc.And(_PLANET, bad),
        lc.Exists("y", lc.And(y_planet, bad)),
        lc.Eq(lc.Var("x"), lc.CountApp(lc.Lam("y", lc.And(y_planet, bad)))),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            lc_eval(lc.Lam("x", formula), kb)


@pytest.mark.parametrize("text, error, message", [
    ("Type(z,City) & in(x, lambda y . Type(y,City))", UnboundVariable, "unbound variable: z"),
    ("in(x, lambda y . Type(y,City)) & Type(z,City)", IllTyped,
     "not a superlative application: lambda y . Type(y,City)"),
    ("[x = count(lambda y . Children(w,y))] || [count(lambda y . Children(z,y)) = x]",
     UnboundVariable, "unbound variable: w"),
    # The count widens the domain of x, but comes later in the text.
    ("Type(w,City) || [x = count(lambda y . in(y, lambda q . [q = y]))]", UnboundVariable,
     "unbound variable: w"),
    ("!(exists y . Children(y,w) & Children(z,y))", UnboundVariable, "unbound variable: w"),
    ("in(w, argmax(lambda y . [y = z], lambda s . lambda d . Area(s,d)))", UnboundVariable,
     "unbound variable: w"),
    ("in(x, argmax(lambda y . [y = z], lambda s . lambda d . Area(w,d)))", UnboundVariable,
     "unbound variable: z"),
    ("in(x, argmax(lambda y . [y = x], lambda s . lambda d . Area(w,d) & [z = d]))",
     UnboundVariable, "unbound variable: w"),
])
def test_lc_eval_the_leftmost_bad_subterm_names_the_error(kb, text, error, message):
    # Parsed in a scope that binds x, so that w and z are unbound variables
    # and not entity constants.
    body = parse_lc(f"lambda w . lambda z . lambda x . {text}").body.body
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        lc_eval(body, kb)


def test_whether_a_term_raises_does_not_follow_the_kb(kb):
    planets = load_kb("Mars\tType\tPlanet\n")
    empty = load_kb("")
    term = parse_lc("lambda x . Type(x,Planet) & in(x, lambda y . [y = x])")
    for world in (kb, planets, empty):
        with pytest.raises(IllTyped, match=r"^not a superlative application: lambda y \. \[y = x\]$"):
            lc_eval(term, world)
    for world in (kb, planets, empty):
        with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
            eval_unary(core.Mu("x", core.Intersect(core.Var("x"), core.Var("z"))), world)
        with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
            eval_unary(core.Join(core.Lambda("y", core.Var("z")), core.Var("w")), world)


def test_the_enumeration_reads_the_index_and_no_triple_set(kb):
    fresh = load_kb(dump_kb(kb))
    assert check_equivalence(fresh, 30, 4, seed=3).ok
    assert lc_eval(parse_lc("lambda x . lambda y . Border(x,y) || Area(x,y)"), fresh)
    assert _names(lc_eval(parse_lc("lambda x . exists y . Children(x,y)"), fresh)) == {
        "Dave", "Eve"}
    assert "triples" not in vars(fresh)


_COUNT_SEATTLE = lc.Eq(lc.Var("x"), parse_lc("count(Seattle)"))
_ILL_TYPED_COUNT = lc.CountApp(
    lc.Lam("y", lc.Eq(lc.Var("y"), parse_lc("lambda q . Type(q,City)"))))
_COUNT_ILL_TYPED = lc.Eq(lc.Var("x"), _ILL_TYPED_COUNT)


def test_lc_eval_count_widening_reaches_what_the_formula_does_not(kb):
    # The domain is widened with the value of every count subterm whose
    # free variables are bound, also where the formula never reads it.
    term = parse_lc("lambda x . !Type(x,Planet) || [x = count(lambda y . Type(y,USState))]")
    assert Number(3) in lc_eval(term, kb)
    # An ill-typed count raises behind a false conjunct too, and of two
    # bad subterms the leftmost in the text names the error.
    for formula, message in [
        (_COUNT_SEATTLE, "expected a one-argument lambda term"),
        (lc.And(_COUNT_SEATTLE, _COUNT_ILL_TYPED), "expected a one-argument lambda term"),
        (lc.And(_COUNT_ILL_TYPED, _COUNT_SEATTLE),
         "not an element term: lambda q . Type(q,City)"),
        # A bad node comes before the bad subterms inside it.
        (parse_lc("lambda x . in(x, lambda y . [y = count(Seattle)])").body,
         "not a superlative application: lambda y . [y = count(Seattle)]"),
        (lc.Not(_COUNT_SEATTLE), "expected a one-argument lambda term"),
        # A count's set is checked before the subterms inside it.
        (lc.Eq(lc.Var("x"), lc.CountApp(
            lc.Lam("y", lc.Lam("z", lc.Eq(lc.Var("z"), _ILL_TYPED_COUNT))))),
         "expected a one-argument lambda term"),
        # A superlative's set comes before its degree, and a membership's
        # element before its set.
        (lc.In(lc.Var("x"), lc.SupApp(
            "argmax", parse_lc("lambda y . [y = count(Seattle)]"),
            lc.Lam("s", lc.Lam("d", lc.Eq(lc.Var("d"), _ILL_TYPED_COUNT))))),
         "expected a one-argument lambda term"),
        (lc.In(parse_lc("count(Seattle)"), lc.Lam("y", lc.Eq(lc.Var("y"), _ILL_TYPED_COUNT))),
         "expected a one-argument lambda term"),
    ]:
        with pytest.raises(IllTyped, match=f"^{re.escape(message)}$"):
            lc_eval(lc.Lam("x", lc.And(_PLANET, formula)), kb)
    unbound = lc.CountApp(lc.Lam("c", lc.Pred("Children", lc.Var("z"), lc.Var("c"))))
    term = lc.Lam("x", lc.And(_PLANET, lc.Eq(lc.Var("x"), unbound)))
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        lc_eval(term, kb)


_SELF = "A\tp\tB\nC\tp\tC\n"  # p relates C, the last in value order, to itself


@pytest.mark.parametrize("kb_text, text, expected", [
    # An inner binder of the outer one's name: [x = x] and p(x,x) name the
    # inner x twice, so they pin nothing and every candidate is tried. (The
    # existential has no free variable, so its first answer, under the
    # least outer x, is kept for all.)
    (None, "lambda x . exists x . [x = x] & Type(x,City)",
     {"Alice", "Bob", "California", "Carol", "City", "Dave", "Engineer", "Eve",
      "Oregon", "Person", "Portland", "Scientist", "Seattle", "USState", "Washington"}),
    (None, "lambda y . exists x . Children(y,x) & (exists y . Children(y,x))",
     {"Dave", "Eve"}),
    (None, "lambda x . exists y . Influenced(y,x) & (exists y . [y = x] & Children(y,Alice))",
     {"Dave"}),
    (_SELF, "lambda x . exists x . p(x,x)", {"A", "B", "C"}),
    (_SELF, "lambda x . exists y . p(y,y) & [x = y]", {"C"}),
    (_SELF, "lambda x . exists y . p(x,y) & p(y,y)", {"C"}),
    (None, "lambda x . exists y . [y = y] & Children(x,y)", {"Dave", "Eve"}),
    # Numbers are candidates only when the term names them.
    (None, "lambda x . exists y . Area(x,y)", set()),
    (None, "lambda x . exists y . Area(x,y) & [y = 98]", {"Oregon"}),
    (None, "lambda x . exists y . [y = 71] & Area(x,y)", {"Washington"}),
    (None, "lambda x . exists y . Area(y,164) & [x = y]", {"California"}),
    (None, "lambda x . exists y . Area(71,y)", set()),
    (None, "lambda x . exists y . [y = count(lambda z . Children(x,z))] & [y = 2]", {"Dave"}),
    # The leading conjunct, through left-nested &, and only there.
    (None, "lambda x . exists y . Children(x,y) & Type(y,Person) & PlaceOfBirth(y,Seattle)",
     {"Dave", "Eve"}),
    (None, "lambda x . exists y . Children(x,y) & (Type(y,Person) & PlaceOfBirth(y,Portland))",
     {"Dave"}),
    (None, "lambda x . exists y . Type(y,Person) & Children(x,y)", {"Dave", "Eve"}),
    (None, "lambda x . exists y . Children(x,y) || [x = Seattle]", {"Dave", "Eve", "Seattle"}),
    (None, "lambda x . exists y . !Children(x,y) & [y = Alice]",
     {"Alice", "Bob", "California", "Carol", "City", "Engineer", "Eve", "Oregon",
      "Person", "Portland", "Scientist", "Seattle", "USState", "Washington"}),
    (None, "lambda x . exists y . [Seattle = y] & PlaceOfBirth(x,y)", {"Alice", "Carol"}),
    (None, "lambda x . exists y . [x = y] & Type(y,City)", {"Portland", "Seattle"}),
    (None, "lambda x . exists y . Nope(x,y)", set()),
    (None, "lambda x . exists y . [y = Reykjavik] & [x = y]", {"Reykjavik"}),
    # A later disjunct that no witness reaches.
    (None, "lambda x . exists y . Children(x,y) & (Type(y,Person) || Area(y,y))",
     {"Dave", "Eve"}),
])
def test_lc_eval_existential_witnesses(kb, kb_text, text, expected):
    world = kb if kb_text is None else load_kb(kb_text)
    assert _names(lc_eval(parse_lc(text), world)) == expected


@pytest.mark.parametrize("text, expected", [
    ("lambda s . lambda d . exists y . [y = d] & Area(s,y)", set()),
    ("lambda s . lambda d . exists y . [y = d] & Area(s,y) & [d = 98]", {("Oregon", 98)}),
])
def test_lc_eval_witness_equal_to_a_number_outside_the_domain(kb, text, expected):
    # d ranges over every object, y over the entities and the term's own
    # numbers.
    assert _pairs(lc_eval(parse_lc(text), kb)) == expected


_Q, _Y = lc.Var("q"), lc.Var("y")
_CHILD = lc.Pred("Children", lc.Var("x"), _Y)


def _exists_y(body):
    return lc.Lam("x", lc.Exists("y", body))


@pytest.mark.parametrize("term, error, message", [
    (parse_lc("lambda x . exists y . Children(x,y) & in(y, lambda z . [z = y])"),
     IllTyped, "not a superlative application: lambda z . [z = y]"),
    # A superlative reached through the witness raises its degree's error.
    (_exists_y(lc.And(_CHILD, lc.In(_Y, lc.SupApp(
        "argmax", lc.Lam("z", lc.Eq(lc.Var("z"), _Y)),
        lc.Lam("s", lc.Lam("d", lc.Pred("Influenced", _Q, lc.Var("d")))))))),
     UnboundVariable, "unbound variable: q"),
    (_exists_y(lc.And(_CHILD, lc.Pred("Type", _Q, lc.Const(Entity("City"))))),
     UnboundVariable, "unbound variable: q"),
    # An unbound end pins nothing: the first candidate raises.
    (_exists_y(lc.Pred("Children", _Q, _Y)), UnboundVariable, "unbound variable: q"),
    (_exists_y(lc.And(lc.Eq(_Y, _Q), _CHILD)), UnboundVariable, "unbound variable: q"),
])
def test_lc_eval_witness_reaches_the_first_error(kb, term, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        lc_eval(term, kb)


@pytest.mark.parametrize("text, tried", [
    ("Children(x,y) & Type(y,Person)", ["Alice", "Bob"]),
    ("Children(y,x)", []),
    ("Type(y,City) & Children(x,y)", ["Portland", "Seattle"]),
    ("[y = x]", ["Dave"]),
    ("[Seattle = y]", ["Seattle"]),
    ("[y = 71] & Area(x,y)", [71]),
    ("Area(x,y)", []),
])
def test_an_existential_tries_only_what_its_leading_conjunct_allows(kb, text, tried):
    body = parse_lc(f"lambda x . exists y . {text}").body.body
    ev = oracle._OracleEval(kb)
    ev.compile(_exists_y(body))
    witnesses = ev._witnesses("y", body, frozenset({"x"}))
    assert [_plain(v) for v in witnesses({"x": Entity("Dave")})] == tried


@pytest.mark.parametrize("text", [
    "[y = y] & Children(x,y)", "Children(y,y)",
    "Children(x,y) || Type(y,City)", "!Children(x,y)", "[y = count(lambda z . Children(x,z))]",
])
def test_an_existential_not_pinned_tries_every_candidate(kb, text):
    body = parse_lc(f"lambda x . exists y . {text}").body.body
    ev = oracle._OracleEval(kb)
    ev.compile(_exists_y(body))
    every = ev._witnesses("y", body, frozenset({"x"}))({"x": Entity("Dave")})
    assert list(every) == sorted(kb.entity_domain, key=core.value_sort_key)


_STATES = "lambda y . Type(y,USState)"
_PERSONS = "lambda y . Type(y,Person)"
_CITIES = "lambda y . Type(y,City)"


@pytest.mark.parametrize("text, expected", [
    # A set lambda whose leftmost conjunct equates its variable with a
    # count whose variables are bound tries that count's value alone.
    ("lambda x . [x = count(lambda y . Type(y,USState))] & !Type(x,Person)", {3}),
    ("lambda x . [count(lambda y . Children(Dave,y)) = x]", {2}),
    ("lambda x . [x = count(lambda y . Type(y,Planet))] & [x = 0]", {0}),
    ("lambda x . [x = count(lambda y . Type(y,Planet))] & [x = 1]", set()),
    # A count that reads the variable pins nothing, also when the
    # variable shadows an enclosing one.
    ("lambda x . [x = count(lambda y . Children(x,y))]", set()),
    ("lambda x . [x = count(lambda x . [x = count(lambda y . Children(x,y))])]", {0}),
    # Counts bound by an enclosing lambda or existential.
    ("lambda x . Type(x,Person) & "
     "[count(lambda y . [y = count(lambda z . Children(x,z))] & [y = 2]) = 1]", {"Dave"}),
    ("lambda x . exists y . Children(x,y) & "
     "[count(lambda z . [z = count(lambda w . Children(y,w))]) = 1]", {"Dave", "Eve"}),
    ("lambda x . [x = count(lambda y . Type(y,City))] || [x = count(lambda y . Type(y,USState))]",
     {2, 3}),
    # A degree loop pinned by Area(s,d), by a constant, or by Children(d,s).
    (f"lambda x . in(x, argmin({_STATES} || Type(y,City), lambda s . lambda d . Area(s,d)))",
     {"Washington"}),
    (f"lambda x . in(x, argmax({_STATES}, lambda s . lambda d . [d = 98] & Area(s,d)))",
     {"Oregon"}),
    # A number reached by a pin is tried only where the domain holds it.
    (f"lambda x . in(x, argmax({_STATES}, "
     "lambda s . lambda d . Area(s,d) & [count(lambda z . [z = d]) = 0]))", {"California"}),
    (f"lambda x . in(x, argmax({_STATES}, "
     "lambda s . lambda d . Area(s,d) & [count(lambda z . [z = d]) = 1]))", set()),
    # A degree loop pinned by [d = count(...)].
    (f"lambda x . in(x, argmax({_PERSONS}, "
     "lambda s . lambda d . [d = count(lambda c . Children(s,c))] & !Type(s,City)))", {"Dave"}),
    (f"lambda x . in(x, argmin({_CITIES}, "
     "lambda s . lambda d . [count(lambda p . PlaceOfBirth(p,s)) = d]))", {"Portland", "Seattle"}),
    (f"lambda x . in(x, argmax({_PERSONS}, "
     "lambda s . lambda d . [d = count(lambda c . Children(s,c))] || [d = 5]))",
     {"Alice", "Bob", "Carol", "Dave", "Eve"}),
    # A degree loop pinned to entities alone gives no member a degree.
    ("lambda x . exists y . Children(x,y) & in(y, argmax(lambda z . [z = y], "
     "lambda s . lambda d . Influenced(s,d)))", set()),
    ("lambda x . in(x, argmax(lambda y . [y = Alice], lambda s . lambda d . Children(d,s)))",
     set()),
])
def test_lc_eval_pinned_loops(kb, text, expected):
    assert _names(lc_eval(parse_lc(text), kb)) == expected


def _in_argmax(source, degree_body):
    return lc.Lam("x", lc.In(lc.Var("x"), lc.SupApp(
        "argmax", parse_lc(source), lc.Lam("s", lc.Lam("d", degree_body)))))


_D_PLACE_COUNT = parse_lc("lambda d . [d = count(lambda p . PlaceOfBirth(p,s))]").body
_D_COUNT_SEATTLE = lc.Eq(lc.Var("d"), parse_lc("count(Seattle)"))
_D_NOT_A_SUPERLATIVE = parse_lc("lambda d . in(d, lambda z . [z = d])").body


@pytest.mark.parametrize("term, error, message", [
    # A bad anchor count raises while the term compiles, and of two bad
    # subterms the leftmost in the text names the error.
    (lc.Lam("x", lc.And(_COUNT_SEATTLE, _CITY)), IllTyped, "expected a one-argument lambda term"),
    (lc.Lam("x", lc.And(_COUNT_ILL_TYPED, _COUNT_SEATTLE)), IllTyped,
     "not an element term: lambda q . Type(q,City)"),
    (lc.Lam("x", lc.And(_COUNT_SEATTLE, _COUNT_ILL_TYPED)), IllTyped,
     "expected a one-argument lambda term"),
    (parse_lc("lambda x . [x = count(lambda y . Type(y,City))] & in(x, lambda z . [z = x])"),
     IllTyped, "not a superlative application: lambda z . [z = x]"),
    (_in_argmax(_CITIES, _D_COUNT_SEATTLE), IllTyped, "expected a one-argument lambda term"),
    (_in_argmax(_CITIES, lc.And(_D_PLACE_COUNT, _D_COUNT_SEATTLE)), IllTyped,
     "expected a one-argument lambda term"),
    (_in_argmax(_CITIES, lc.And(_D_PLACE_COUNT, _D_NOT_A_SUPERLATIVE)), IllTyped,
     "not a superlative application: lambda z . [z = d]"),
])
def test_lc_eval_pinned_loops_raise_the_first_error(kb, term, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        lc_eval(term, kb)


@pytest.mark.parametrize("outer, text, env, rich, tried", [
    ("", "[x = count(lambda y . Type(y,USState))] & Type(x,Person)", {}, False, [3]),
    ("", "[count(lambda y . Children(Dave,y)) = x]", {}, False, [2]),
    ("s", "Area(s,x)", {"s": "California"}, True, [164]),
    ("s", "[x = count(lambda p . PlaceOfBirth(p,s))]", {"s": "Seattle"}, True, [2]),
    ("s", "Children(x,s)", {"s": "Alice"}, True, ["Dave"]),
    ("s", "[x = 98] & Area(s,x)", {"s": "Oregon"}, True, [98]),
])
def test_a_loop_tries_only_what_its_leading_conjunct_allows(kb, outer, text, env, rich, tried):
    ev, body, scope, counts = _compiled_loop(kb, outer, text)
    env = {name: Entity(value) for name, value in env.items()}
    witnesses = ev._witnesses("x", body, scope, counts, rich)
    assert [_plain(v) for v in witnesses(env)] == tried


@pytest.mark.parametrize("text", [
    "[x = count(lambda y . Children(x,y))]",
    "[x = x] & [x = count(lambda y . Type(y,City))]",
    "[count(lambda y . Type(y,City)) = count(lambda y . Type(y,USState))]",
    "!Type(x,City) & [x = count(lambda y . Type(y,City))]",
])
def test_a_set_lambda_not_pinned_tries_its_whole_domain(kb, text):
    ev, body, scope, counts = _compiled_loop(kb, "", text)
    every = ev._witnesses("x", body, scope, counts)({})
    assert list(every) == list(ev._domain(counts, rich=False)({}))


def _compiled_loop(kb, outer, text):
    """An evaluator with the domains of `lambda [outer .] lambda x . text`
    set, and the body, the scope and the count subterms of the loop over x."""
    term = parse_lc(f"lambda {outer} . lambda x . {text}" if outer else f"lambda x . {text}")
    ev = oracle._OracleEval(kb)
    ev.compile(term)
    body = term.body.body if outer else term.body
    scope = frozenset({outer} - {""})
    _, _, counts = ev.formula(body, scope | {"x"})
    return ev, body, scope, counts


def test_lc_eval_leaves_no_reference_cycle(kb):
    # The closures refer to the evaluator, never the other way round, so
    # reference counting frees a call's closures and memos: left to the
    # cyclic collector, they made `check` about a tenth slower.
    term = parse_lc(
        "lambda x . (exists y . Children(x,y) & [y = count(lambda z . Children(y,z))]) "
        "|| in(x, argmax(lambda y . Type(y,USState), lambda s . lambda d . Area(s,d)))")
    gc.disable()
    try:
        gc.collect()
        lc_eval(term, kb)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_per_kb_set_up_is_built_once(kb, monkeypatch):
    fresh = load_kb(dump_kb(kb))
    built = []
    from_kb = GenSchema.from_kb

    def counted(k):
        built.append(k)
        return from_kb(k)

    monkeypatch.setattr(GenSchema, "from_kb", staticmethod(counted))
    for seed in range(3):
        assert check_equivalence(fresh, 2, 4, seed=seed).ok
    assert built == [fresh]
    facts = dict(fresh._derived)
    assert len(facts) == 2  # the schema and the enumeration's facts
    lc_eval(parse_lc("lambda x . Type(x,City)"), fresh)
    assert all(fresh._derived[key] is value for key, value in facts.items())
    assert len(fresh._derived) == 2


def test_gen_term_is_deterministic(kb):
    schema = GenSchema.from_kb(kb)
    for seed in range(50):
        assert gen_term(seed, 4, schema) == gen_term(seed, 4, schema)


def test_gen_term_covers_every_construct(kb):
    schema = GenSchema.from_kb(kb)
    seen = set()
    for seed in range(400):
        u = gen_term(seed, 4, schema)
        seen |= {type(n).__name__ for n in _nodes(u)}
    assert {
        "EntityLit", "Var", "Join", "Intersect", "Union", "Negate",
        "Aggregate", "Superlative", "Mu", "Property", "Reverse", "Lambda",
    } <= seen


def _nodes(u):
    yield u
    for name in ("binary", "unary", "left", "right", "inner", "source",
                 "degree", "body"):
        child = getattr(u, name, None)
        if isinstance(child, (core.UnaryForm, core.BinaryForm)):
            yield from _nodes(child)


def test_gen_schema_pools(kb):
    schema = GenSchema.from_kb(kb)
    assert "Area" in schema.number_valued
    assert "Area" not in schema.entity_valued
    assert "Children" in schema.entity_valued
    assert len(schema.entities) == 15


def test_check_equivalence_report(kb):
    report = check_equivalence(kb, trials=40, max_depth=3, seed=11)
    assert report.ok
    assert report.trials == 40
    assert report.render() == "trials=40 mismatches=0"


def test_check_equivalence_refuses_what_gen_term_cannot_draw(kb):
    from ldcs.parser import MAX_DEPTH

    for depth in (-1, MAX_DEPTH + 1, 3000):
        with pytest.raises(ValueError, match=f"between 0 and {MAX_DEPTH}"):
            check_equivalence(kb, 3, max_depth=depth)
    with pytest.raises(ValueError, match="--trials must be at least 0"):
        check_equivalence(kb, -1)
    assert check_equivalence(kb, 0).render() == "trials=0 mismatches=0"
    with pytest.raises(ValueError, match="no triples"):
        check_equivalence(load_kb(""), 3)
    with pytest.raises(ValueError, match="no triples"):
        gen_term(0, 2, GenSchema.from_kb(load_kb("")))
    assert gen_term(0, MAX_DEPTH, GenSchema.from_kb(kb))


def test_check_report_renders_mismatches(kb):
    # fabricate a mismatch to pin the report format
    from ldcs.oracle import EquivalenceReport, Mismatch

    m = Mismatch(
        seed=3,
        text="Seattle",
        direct=frozenset({Entity("Seattle")}),
        raw=frozenset(),
        simplified=frozenset({Number(1)}),
    )
    text = EquivalenceReport(1, (m,)).render()
    assert "seed=3" in text and "Seattle" in text
    assert text.endswith("trials=1 mismatches=1")


_COUNT_CALLS = """
import sys
from ldcs import check_equivalence, load_kb_file, oracle
calls = 0
def counted(frame, event, arg):
    global calls
    if event == "call" and frame.f_code.co_filename == oracle.__file__:
        calls += 1
kb = load_kb_file(sys.argv[1])
sys.setprofile(counted)
report = check_equivalence(kb, 40, max_depth=4, seed=7)
sys.setprofile(None)
print(report.ok, calls)
"""


def test_check_work_does_not_follow_set_order():
    # Set order follows string hashes and, for interned values, addresses;
    # the oracle tries existential witnesses in value order instead. The
    # work is counted as the calls into the oracle's compiled closures.
    root = pathlib.Path(__file__).resolve().parent.parent
    fixture, src = root / "fixtures" / "demo.tsv", str(root / "src")
    outputs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_CALLS, str(fixture)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().startswith("True ")


_ONE_ERROR = """
import sys
from ldcs import Entity, LdcsError, lc, lc_eval, load_kb_file
# Entities made first shift the addresses, and so the set order, of the rest.
padding = [Entity(f"pad{i}") for i in range(int(sys.argv[2]))]
x, s, z = lc.Var("x"), lc.Var("s"), lc.Var("z")
person, seattle = lc.Const(Entity("Person")), lc.Const(Entity("Seattle"))
# Seattle would reach the unbound z, and Person, the first in value order,
# the later ill-typed Seattle.
either = lc.Or(
    lc.And(lc.Eq(s, seattle), lc.Pred("Type", s, z)),
    lc.And(lc.Eq(s, person), seattle),
)
both = lc.Lam("y", lc.Or(lc.Eq(lc.Var("y"), person), lc.Eq(lc.Var("y"), seattle)))
cities = lc.Lam("y", lc.Pred("Type", lc.Var("y"), lc.Const(Entity("City"))))
terms = [
    lc.Lam("s", either),
    lc.Lam("x", lc.In(x, lc.SupApp("argmax", both, lc.Lam("s", lc.Lam("d", either))))),
    # A count widens the domain with a number, sorted in after the entities.
    lc.Lam("s", lc.Or(either, lc.Eq(s, lc.CountApp(cities)))),
]
kb = load_kb_file(sys.argv[1])
for term in terms:
    try:
        lc_eval(term, kb)
    except LdcsError as exc:
        print(type(exc).__name__, exc)
"""


def test_the_error_does_not_follow_set_order():
    # Of two bad subterms the leftmost in the text names the error, raised
    # while the term compiles: no candidate of a one-argument lambda and no
    # member of a superlative's set is tried, so neither value order nor
    # the addresses of interned values (which put Person before or after
    # Seattle in a set, run by run) can pick another.
    root = pathlib.Path(__file__).resolve().parent.parent
    fixture, src = root / "fixtures" / "demo.tsv", str(root / "src")
    outputs = set()
    for hash_seed, padding in [("1", "0"), ("2", "1"), ("3", "3"), ("4", "5")]:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _ONE_ERROR, str(fixture), padding],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(proc.stdout)
    assert outputs == {"UnboundVariable unbound variable: z\n" * 3}
