"""Direct evaluation semantics over the fixture KB.

Every expected set below was cross-checked against the brute-force
enumeration semantics; the tests assert both engines to keep it that way.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
    Property,
    Reverse,
    Superlative,
    Triple,
    UnboundVariable,
    Union,
    Var,
    degree_of,
    eval_binary,
    eval_unary,
    format_unary,
    from_triples,
    lc_eval,
    parse_unary,
    resolve,
    to_lc_unary,
)

A, B, C, D, E = (Entity(n) for n in ["Alice", "Bob", "Carol", "Dave", "Eve"])
WA, OR, CA = (Entity(n) for n in ["Washington", "Oregon", "California"])
SEA, PDX = Entity("Seattle"), Entity("Portland")


def ev(text, kb):
    return eval_unary(resolve(parse_unary(text), kb, strict=True), kb)


QUERIES = [
    ("Seattle", {SEA}),
    ("PlaceOfBirth.Seattle", {A, C}),
    ("Children.PlaceOfBirth.Seattle", {D, E}),
    ("Profession.Scientist & PlaceOfBirth.Seattle", {A}),
    ("Profession.Scientist | Profession.Engineer", {A, C, E}),
    ("Type.USState & !Border.California", {WA, CA}),
    ("!Type.Person & !Type.City", {WA, OR, CA, Entity("USState"),
                                   Entity("Person"), Entity("City"),
                                   Entity("Scientist"), Entity("Engineer")}),
    ("count(Type.USState)", {Number(3)}),
    ("count(PlaceOfBirth.Reykjavik)", {Number(0)}),
    ("argmax(Type.USState, Area)", {CA}),
    ("argmin(Type.USState, Area)", {WA}),
    ("(mu x . Children.Influenced.x)", {D}),
    ("argmax(Type.Person, R[(lam x . count(R[Children].x))])", {D}),
    ("argmin(Type.Person, R[(lam x . count(R[Children].x))])", {A, B, C}),
    ("R[Children].Dave", {A, B}),
    ("Area.98", {OR}),
    ("Border.Border.Washington", {WA, CA}),
    ("Type.City | count(Type.City)", {SEA, PDX, Number(2)}),
]


@pytest.mark.parametrize("text,expected", QUERIES)
def test_fixture_queries(text, expected, kb):
    u = resolve(parse_unary(text), kb, strict=True)
    # enumeration first: the expected set must hold under brute force
    assert lc_eval(to_lc_unary(u), kb) == frozenset(expected)
    assert eval_unary(u, kb) == frozenset(expected)


def test_join_can_denote_numbers_direct_only(kb):
    # Joining through a number-valued property escapes the entity domain.
    # Brute-force enumeration cannot propose 98 as a membership candidate
    # (it is neither an entity nor named by the term), so this set is a
    # fact about direct evaluation alone.
    assert ev("R[Area].Oregon", kb) == {Number(98)}


def test_lambda_join_count_direct_and_simplified(kb):
    from ldcs import simplify

    u = resolve(parse_unary("(lam x . count(R[Children].x)).Dave"), kb, strict=True)
    assert eval_unary(u, kb) == {Number(2)}
    # raw translation hides the count under a join variable; once the
    # join is collapsed the count is closed and enumeration finds it
    assert lc_eval(simplify(to_lc_unary(u)), kb) == {Number(2)}


def test_entity_literal_outside_kb(kb):
    assert ev("Reykjavik", kb) == {Entity("Reykjavik")}
    assert ev("PlaceOfBirth.Reykjavik", kb) == frozenset()


def test_negation_is_relative_to_entity_domain(kb):
    got = ev("!PlaceOfBirth.Reykjavik", kb)
    assert got == kb.entity_domain
    assert Number(71) not in got


def test_mu_ranges_over_entity_domain(kb):
    # a trivial body makes the binder unconstrained
    assert ev("(mu x . Type.Person)", kb) == ev("Type.Person", kb)


def test_join_objects_empty(kb):
    assert ev("R[Children].Alice", kb) == frozenset()


def test_eval_env_and_unbound(kb):
    u = resolve(parse_unary("(mu x . Border.x)"), kb, strict=True)
    assert eval_unary(u.body, kb, {"x": OR}) == {WA, CA}
    with pytest.raises(UnboundVariable, match="^unbound variable: x$") as got:
        eval_unary(u.body, kb)
    assert got.value.name == "x"
    # The parser reads a free name as an entity; a hand-built tree can hold one.
    y, z = Var("y"), Var("z")
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        eval_unary(Mu("y", Intersect(Join(Property("Border"), y), z)), kb, {"y": CA})
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        eval_binary(Lambda("y", Union(y, z)), kb)


_EMPTY_KB = from_triples([])


@pytest.mark.parametrize("u, world", [
    (Union(Var("z"), EntityLit(SEA)), None),
    # Nothing reaches z: no entity to bind, a join from no value, a
    # superlative of no member.
    (Mu("x", Intersect(Var("x"), Var("z"))), _EMPTY_KB),
    (Join(Lambda("y", Union(Var("y"), Var("z"))), EntityLit(Entity("Nowhere"))), None),
    (Aggregate("count", Mu("x", Intersect(Var("x"), Var("z")))), _EMPTY_KB),
    (Superlative("argmax", Join(Property("Nope"), EntityLit(SEA)),
                 Lambda("y", Join(Property("Area"), Var("z")))), None),
])
def test_an_unbound_variable_raises_whether_reached_or_not(kb, u, world):
    # The compile walk raises it, before anything runs, whatever the KB.
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        eval_unary(u, kb if world is None else world)


_Z, _W = Var("z"), Var("w")


@pytest.mark.parametrize("u", [
    Intersect(_Z, _W),
    Union(_Z, Negate(_W)),
    Intersect(Negate(_Z), _W),
    Join(Lambda("y", _Z), _W),
    Join(Reverse(Lambda("y", _Z)), _W),
    Superlative("argmax", _Z, Lambda("y", _W)),
    Mu("x", Union(Var("x"), Intersect(_Z, Aggregate("count", _W)))),
])
def test_the_leftmost_unbound_variable_names_the_error(kb, u):
    text = format_unary(u)
    assert text.index("z") < text.index("w")
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        eval_unary(u, kb)
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        eval_binary(Lambda("y", u), kb)
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        eval_binary(Reverse(Lambda("y", u)), kb)
    with pytest.raises(UnboundVariable, match="^unbound variable: z$"):
        degree_of(CA, Lambda("y", u), kb)


@pytest.mark.parametrize("text", [
    "(mu y . Border.y & Border.x)",
    "R[(lam y . Border.y | x)].Oregon",
    "(lam y . count(Border.y & !x)).Washington",
    "(mu y . y & argmax(y | x, Area))",
])
def test_binders_leave_the_callers_bindings_alone(text, kb):
    # x is free in the body of the mu; the form's own binder shadows y.
    u = resolve(parse_unary(f"(mu x . {text})"), kb, strict=True).body
    env = {"x": WA, "y": CA}
    got = eval_unary(u, kb, env)
    assert env == {"x": WA, "y": CA}
    assert got == _naive(u, kb, env)


def test_eval_binary_property(kb):
    pairs = eval_binary(Property("Border"), kb)
    assert (WA, OR) in pairs and (OR, WA) in pairs
    assert len(pairs) == 4
    assert eval_binary(Reverse(Property("Border")), kb) == {
        (y, x) for x, y in pairs
    }
    for name in sorted(kb.property_set):
        scan = {(s, o) for s, p, o in kb.triples if p == name}
        assert eval_binary(Property(name), kb) == scan
        assert eval_binary(Reverse(Property(name)), kb) == {(o, s) for s, o in scan}
    assert eval_binary(Property("Nope"), kb) == frozenset()
    assert eval_binary(Reverse(Property("Nope")), kb) == frozenset()


def test_eval_binary_lambda_pairs(kb):
    b = resolve(parse_unary("(lam v . count(R[Children].v)).Dave"), kb, strict=True).binary
    pairs = eval_binary(b, kb)
    assert (Number(2), D) in pairs
    assert (Number(1), E) in pairs
    assert (Number(0), A) in pairs
    # binder ranges over entities only
    assert len(pairs) == len(kb.entity_domain)


def test_degree_of(kb):
    assert degree_of(CA, Property("Area"), kb) == 164
    assert degree_of(D, Property("Area"), kb) is None
    b = resolve(parse_unary("R[(lam x . count(R[Children].x))].Dave"), kb).binary
    assert degree_of(D, b, kb) == 2
    # Washington borders an entity and is related to no number.
    assert degree_of(WA, Property("Border"), kb) is None


def test_degree_collapse(kb):
    # Oregon borders relate it to nothing numeric; give it two areas instead
    from ldcs import from_triples, Triple

    extra = from_triples(set(kb.triples) | {Triple(OR, "Area", Number(5))})
    assert degree_of(OR, Property("Area"), extra, collapse="max") == 98
    assert degree_of(OR, Property("Area"), extra, collapse="min") == 5


def test_superlative_ties_are_kept(kb):
    from ldcs import from_triples, Triple

    tied = from_triples(set(kb.triples) | {Triple(WA, "Area", Number(164))})
    got = eval_unary(resolve(parse_unary("argmax(Type.USState, Area)"), tied, strict=True), tied)
    assert got == {WA, CA}


def test_superlative_empty_when_no_degrees(kb):
    assert ev("argmax(Type.City, Area)", kb) == frozenset()


def test_binder_over_a_superlative_still_raises(kb):
    # A body the membership test cannot decide keeps the set path and its
    # error. No state has a degree by Border, so x alone is left.
    assert ev("(mu x . x | argmax(Type.USState, Border))", kb) == kb.entity_domain
    u = Mu("x", Union(Var("x"), Superlative("argmax", Var("y"), Property("Area"))))
    with pytest.raises(UnboundVariable, match="unbound variable: y$"):
        eval_unary(u, kb)


def test_intersection_with_a_complement_stays_in_the_domain(kb):
    assert ev("R[Area].Oregon & !Washington", kb) == frozenset()
    assert ev("!Washington & R[Area].Oregon", kb) == frozenset()
    assert ev("Type.USState & !Border.California", kb) == {WA, CA}


# --- binders against the set definitions -------------------------------------

_ENTS = [Entity(f"e{i}") for i in range(5)]
_OBJS = _ENTS + [Number(1), Number(2)]


def _naive(u, kb, env):
    """The set u denotes, straight from the definitions."""
    if isinstance(u, EntityLit):
        return {u.value}
    if isinstance(u, Var):
        return {env[u.name]}
    if isinstance(u, Join):
        return _naive_related(u.binary, _naive(u.unary, kb, env), kb, env, False)
    if isinstance(u, Intersect):
        return _naive(u.left, kb, env) & _naive(u.right, kb, env)
    if isinstance(u, Union):
        return _naive(u.left, kb, env) | _naive(u.right, kb, env)
    if isinstance(u, Negate):
        return set(kb.entity_domain) - _naive(u.inner, kb, env)
    if isinstance(u, Aggregate):
        return {Number(len(_naive(u.inner, kb, env)))}
    if isinstance(u, Superlative):
        return _naive_superlative(u, kb, env)
    assert isinstance(u, Mu)
    return {x for x in kb.entity_domain if x in _naive(u.body, kb, {**env, u.var: x})}


def _naive_superlative(u, kb, env):
    """A member's degree is the best number its degree relates it to; a
    member related to no number has none."""
    pick = max if u.op == "argmax" else min
    degrees = {}
    for x in _naive(u.source, kb, env):
        ns = [y.n for y in _naive_related(u.degree, {x}, kb, env, True) if isinstance(y, Number)]
        if ns:
            degrees[x] = pick(ns)
    if not degrees:
        return set()
    best = pick(degrees.values())
    return {x for x, d in degrees.items() if d == best}


def _naive_pairs(b, kb, env):
    if isinstance(b, Property):
        return {(t.subject, t.object) for t in kb.triples if t.property == b.name}
    if isinstance(b, Reverse):
        return {(y, x) for x, y in _naive_pairs(b.inner, kb, env)}
    return {(x, y) for y in kb.entity_domain for x in _naive(b.body, kb, {**env, b.var: y})}


def _naive_related(b, xs, kb, env, forward):
    """{y | (x, y) in b for some x in xs}, or {x | (x, y) in b for some y
    in xs} when not `forward`. A lam relates x to y when x is in its body
    with its variable bound to y, an entity; the body is evaluated at
    those y alone that can relate to xs."""
    if isinstance(b, Reverse):
        return _naive_related(b.inner, xs, kb, env, not forward)
    if isinstance(b, Property):
        pairs = _naive_pairs(b, kb, env)
        if forward:
            return {y for x, y in pairs if x in xs}
        return {x for x, y in pairs if y in xs}
    def body(y):
        return _naive(b.body, kb, {**env, b.var: y})
    if forward:
        return {y for y in kb.entity_domain if body(y) & xs}
    return set().union(*(body(y) for y in kb.entity_domain if y in xs))


def _unary(draw, depth, scope):
    kinds = ["leaf"] if depth == 0 else ["leaf", "join", "join", "and", "or", "not",
                                         "mu", "mu", "count", "closed", "sup", "sup"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        if scope and draw(st.booleans()):
            return Var(draw(st.sampled_from(scope)))
        return EntityLit(draw(st.sampled_from(_OBJS)))
    if kind == "closed":
        # A closed subterm under the binders of scope, whose own binders
        # may take their names.
        return _unary(draw, depth - 1, ())
    if kind == "sup":
        op = draw(st.sampled_from(["argmax", "argmin"]))
        return Superlative(op, _unary(draw, depth - 1, scope), _degree(draw, depth - 1, scope))
    if kind == "join":
        return Join(_binary(draw, depth - 1, scope), _unary(draw, depth - 1, scope))
    if kind in ("and", "or"):
        op = Intersect if kind == "and" else Union
        return op(_unary(draw, depth - 1, scope), _unary(draw, depth - 1, scope))
    if kind == "not":
        return Negate(_unary(draw, depth - 1, scope))
    if kind == "count":
        return Aggregate("count", _unary(draw, depth - 1, scope))
    var = _binder(draw, scope)
    return Mu(var, _unary(draw, depth - 1, scope + (var,)))


def _binder(draw, scope):
    """A fresh variable name, or now and then an enclosing binder's: the
    parser refuses such shadowing, the evaluator must not."""
    return draw(st.sampled_from((f"v{len(scope)}",) * 3 + scope))


def _binary(draw, depth, scope):
    kind = draw(st.sampled_from(["prop", "lam"] if depth else ["prop"]))
    if kind == "prop":
        b = Property(draw(st.sampled_from(["p", "q"])))
    else:
        var = _binder(draw, scope)
        b = Lambda(var, _unary(draw, depth - 1, scope + (var,)))
    for _ in range(draw(st.integers(0, 2))):
        b = Reverse(b)
    return b


def _degree(draw, depth, scope):
    """A superlative's degree: a property, which may relate to entities,
    R[(lam v . count(R[p].v))], which may also read the enclosing
    binders, or any binary."""
    kind = draw(st.sampled_from(["prop", "count", "binary"]))
    if kind == "prop":
        return Property(draw(st.sampled_from(["p", "q"])))
    if kind == "binary":
        return _binary(draw, depth, scope)
    var = _binder(draw, scope)
    counted = Join(Reverse(Property(draw(st.sampled_from(["p", "q"])))), Var(var))
    if scope and draw(st.booleans()):
        counted = Intersect(counted, Negate(Var(draw(st.sampled_from(scope)))))
    return Reverse(Lambda(var, Aggregate("count", counted)))


def _small_kb(draw):
    triples = draw(st.sets(
        st.tuples(st.sampled_from(_ENTS[:4]), st.sampled_from(["p", "q"]),
                  st.sampled_from(_OBJS)),
        min_size=3, max_size=12,
    ))
    return from_triples(Triple(s, p, o) for s, p, o in triples)


@st.composite
def _binder_cases(draw):
    kb = _small_kb(draw)
    # One to three binders around a body that may read each of them, so
    # that a subterm can read outer binders and not the innermost one.
    names = ("v0", "v1", "v2")[:draw(st.integers(1, 3))]
    u = _unary(draw, 4 - len(names), names)
    for i in reversed(range(len(names))):
        u = _around(draw, names[i], u, names[:i])
    return kb, u


def _around(draw, var, body, scope):
    """A mu of var over body, or a lam of var over body joined from a form
    over scope."""
    if draw(st.booleans()):
        return Mu(var, body)
    b = Lambda(var, body)
    for _ in range(draw(st.integers(0, 2))):
        b = Reverse(b)
    return Join(b, _unary(draw, 1, scope))


@pytest.mark.parametrize("text", [
    "(mu x . Area.!Seattle)",
    "(mu x . Area.(mu y . y))",
    "(mu x . Border.!(mu y . Border.y) | x)",
    "R[(lam y . Area.!y)].Washington",
    "R[(lam y . R[R[Border]].(y & !Oregon))].California",
])
def test_membership_keeps_numbers_out_of_the_domain(text, kb):
    # Joins reach numbers; a complement or a mu never holds them.
    u = resolve(parse_unary(text), kb, strict=True)
    assert eval_unary(u, kb) == _naive(u, kb, {})


def _border(u):
    return Join(Property("Border"), u)


@pytest.mark.parametrize("u", [
    # The inner x is bound to each neighbour in turn; the outer x must
    # still be the candidate when the right side reads it.
    Mu("x", Intersect(_border(Mu("x", Var("x"))), _border(Var("x")))),
    Mu("x", Intersect(_border(Mu("x", Var("x"))), Negate(Var("x")))),
    Join(Reverse(Lambda("x", Union(_border(Mu("x", _border(Var("x")))), Var("x")))), EntityLit(OR)),
    Mu("x", Intersect(Var("x"), Aggregate("count", _border(Mu("x", Var("x")))))),
], ids=["mu-join", "mu-negate", "lam", "count"])
def test_a_shadowing_binder_matches_the_set_definitions(u, kb):
    # The parser refuses a binder that shadows another; the evaluator takes it.
    assert eval_unary(u, kb) == _naive(u, kb, {})


@pytest.mark.parametrize("text", [
    # count(Border.x) reads x and not y: it is memoised per value of x.
    "(lam x . (lam y . count(Border.x) | (y & Type.USState)).(Washington | Oregon))"
    ".(Oregon | California)",
    # The source reads y and the degree x: each member's degree is
    # memoised per value of x.
    "(lam x . x & (lam y . argmax(Type.Person & !y, R[(lam v . count(v & x))])).Eve)"
    ".(Alice | Bob | Carol)",
    # The same with a closed degree: each member's degree is its own.
    "(lam x . x & (lam y . argmax(Type.Person & !y, R[(lam v . count(R[Children].v))])).Eve)"
    ".(Alice | Dave)",
])
def test_a_memo_follows_the_bindings_it_reads(text, kb):
    # The outer lam binds x to each joined value alone, so whichever comes
    # first in set order, a memo that ignored x would answer for it.
    u = resolve(parse_unary(text), kb, strict=True)
    assert eval_unary(u, kb) == _naive(u, kb, {})


@settings(max_examples=300, deadline=None)
@given(_binder_cases())
def test_binders_match_the_set_definitions(case):
    # Bodies hold closed subterms under nested binders, and superlatives
    # whose degrees may relate members to entities as well as numbers.
    kb, u = case
    assert eval_unary(u, kb) == _naive(u, kb, {})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_binaries_match_the_set_definitions(data):
    kb = _small_kb(data.draw)
    b = _binary(data.draw, 3, ())
    assert eval_binary(b, kb) == _naive_pairs(b, kb, {})


# --- joins and superlatives against the set definitions ----------------------
# "n" relates entities to numbers only (some to none, some to two), "e" to
# entities only, and "p" to both; "unknown" is in no KB.

_NUMS = [Number(i) for i in range(-1, 3)]


def _values(draw, pool, least=0):
    """A form denoting a set of `least` or more values from `pool`."""
    values = draw(st.lists(st.sampled_from(pool), min_size=least, max_size=4, unique=True))
    if not values:
        return Intersect(EntityLit(_ENTS[0]), EntityLit(_ENTS[1]))
    u = EntityLit(values[0])
    for v in values[1:]:
        u = Union(u, EntityLit(v))
    return u


def _plain_unary(draw, depth):
    kinds = ["set"] if depth == 0 else ["set", "join", "join", "join", "and", "or",
                                        "not", "count", "sup"]
    kind = draw(st.sampled_from(kinds))
    if kind == "set":
        return _values(draw, _OBJS)
    if kind == "join":
        b = Property(draw(st.sampled_from(["p", "e", "n", "unknown"])))
        for _ in range(draw(st.integers(0, 2))):
            b = Reverse(b)
        return Join(b, _plain_unary(draw, depth - 1))
    if kind in ("and", "or"):
        op = Intersect if kind == "and" else Union
        return op(_plain_unary(draw, depth - 1), _plain_unary(draw, depth - 1))
    if kind == "not":
        return Negate(_plain_unary(draw, depth - 1))
    if kind == "count":
        return Aggregate("count", _plain_unary(draw, depth - 1))
    return _superlative(draw, depth - 1)


def _superlative(draw, depth):
    op = draw(st.sampled_from(["argmax", "argmin"]))
    degree = Property(draw(st.sampled_from(["n", "n", "e", "p", "unknown"])))
    if draw(st.booleans()):
        degree = Reverse(Reverse(degree))
    if draw(st.booleans()):
        source = _values(draw, _ENTS, least=1)
    else:
        source = _plain_unary(draw, depth)
    return Superlative(op, source, degree)


_FACTS = [
    Triple(s, p, o)
    for p, objects in [("e", _ENTS), ("n", _NUMS), ("p", _OBJS)]
    for s in _ENTS
    for o in objects
]


@st.composite
def _plain_cases(draw):
    kb = from_triples(draw(st.sets(st.sampled_from(_FACTS), min_size=4, max_size=20)))
    if draw(st.booleans()):
        return kb, _superlative(draw, 2)
    return kb, _plain_unary(draw, 3)


@settings(max_examples=200, deadline=None)
@given(_plain_cases())
def test_joins_and_superlatives_match_the_set_definitions(case):
    kb, u = case
    assert eval_unary(u, kb) == _naive(u, kb, {})


# --- superlatives by a property, on the ordered path and the scan -------------
# A property's map here has at most ten keys, so every source is large
# next to it and the evaluator searches the KB's degree order. "n" relates
# entities to numbers (some to several, with ties and negatives), "p" to
# numbers and entities. A padded KB gives "n" and "p" eighty more keys, so
# that no source is large next to them and the evaluator scans the source.

_RANKED = [Entity(f"r{i}") for i in range(6)]
_DEGREES = [Number(i) for i in (-3, -1, 0, 2)]
_PADDING = [
    Triple(Entity(f"pad{i}"), p, _DEGREES[i % 4]) for i in range(80) for p in ("n", "p")
]


@st.composite
def _ranked_cases(draw):
    facts = draw(st.sets(
        st.one_of(
            st.tuples(st.sampled_from(_RANKED), st.just("n"), st.sampled_from(_DEGREES)),
            st.tuples(st.sampled_from(_RANKED), st.just("p"),
                      st.sampled_from(_RANKED + _DEGREES)),
        ),
        min_size=1, max_size=14,
    ))
    padded = draw(st.booleans())
    kb = from_triples([*(Triple(*fact) for fact in facts), *(_PADDING if padded else ())])
    degree = Property(draw(st.sampled_from(["n", "n", "p"])))
    reverses = draw(st.integers(0, 2))
    for _ in range(reverses):  # R[p] relates keys to entities
        degree = Reverse(degree)
    scanned = padded and reverses != 1
    # No degree for Number(1) or r6; numbers and entities mixed.
    values = draw(st.lists(st.sampled_from(_RANKED + _DEGREES + [Number(1), Entity("r6")]),
                           min_size=1, max_size=8, unique=True))
    source = EntityLit(values[0])
    for v in values[1:]:
        source = Union(source, EntityLit(v))
    op = draw(st.sampled_from(["argmax", "argmin"]))
    if draw(st.booleans()):
        return kb, Mu("v0", Superlative(op, Union(Var("v0"), source), degree)), scanned
    return kb, Superlative(op, source, degree), scanned


@settings(max_examples=300, deadline=None)
@given(_ranked_cases())
def test_superlatives_by_a_property_match_the_set_definitions(case):
    kb, u, scanned = case
    expected = _naive(u, kb, {})
    assert eval_unary(u, kb) == expected
    if scanned:
        assert not kb._derived
    elif expected:  # the degree order answered
        assert kb._derived


@pytest.mark.parametrize("op", ["argmax", "argmin"])
def test_a_key_related_to_a_number_and_an_entity_is_ranked_by_the_number(op):
    r0, r1, r2 = _RANKED[:3]
    kb = from_triples([Triple(r0, "p", Number(2)), Triple(r0, "p", r1),
                       Triple(r1, "p", Number(5)), Triple(r2, "p", Number(7))])
    u = Superlative(op, Union(EntityLit(r0), Union(EntityLit(r1), EntityLit(r2))), Property("p"))
    assert eval_unary(u, kb) == {r2 if op == "argmax" else r0}
    assert kb._derived
    assert degree_of(r0, Property("p"), kb, collapse=op[3:]) == 2


@pytest.mark.parametrize("op", [" | ", " & "])
def test_a_long_chain_still_evaluates(op, kb):
    # A left-nested chain costs one frame per operand, when compiled and
    # when run; 900 operands fit under the default recursion limit.
    u = resolve(parse_unary(op.join(["Type.City"] * 900)), kb, strict=True)
    assert eval_unary(u, kb) == {SEA, PDX}
