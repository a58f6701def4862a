"""Value types and the form AST."""

import copy
import dataclasses
import pickle

import pytest

from ldcs import (
    Aggregate,
    Entity,
    EntityLit,
    Intersect,
    Join,
    Lambda,
    Mu,
    Number,
    Property,
    Reverse,
    Superlative,
    Var,
    free_vars,
    render_value,
    value_sort_key,
)


def test_entity_validation():
    assert Entity("Seattle").entity_id == "Seattle"
    assert Entity("fb:en.seattle").entity_id == "fb:en.seattle"
    with pytest.raises(ValueError):
        Entity("")
    with pytest.raises(ValueError):
        Entity("9lives")
    with pytest.raises(ValueError):
        Entity("-x")
    with pytest.raises(ValueError):
        Entity("a\tb")
    with pytest.raises(ValueError):
        Entity("a\nb")


def test_number_range():
    assert Number(0).n == 0
    assert Number(2**63 - 1).n == 2**63 - 1
    assert Number(-(2**63)).n == -(2**63)
    with pytest.raises(ValueError):
        Number(2**63)
    with pytest.raises(ValueError):
        Number(-(2**63) - 1)


def test_number_accepts_only_int():
    for bad in (True, False, 5.0, "5", None):
        with pytest.raises(ValueError):
            Number(bad)
    # a bool or a float must not alias the interned 1
    assert type(Number(1).n) is int


def test_values_are_interned():
    assert Entity("Seattle") is Entity("Seattle")
    assert Entity(entity_id="Seattle") is Entity("Seattle")
    assert Number(7) is Number(7)
    assert Number(2**62) is Number(2**62)
    assert Entity("A") is not Entity("B")
    assert repr(Entity("Seattle")) == "Entity(entity_id='Seattle')"
    assert repr(Number(-7)) == "Number(n=-7)"


@pytest.mark.parametrize("value", [Entity("Seattle"), Number(98), Number(-(2**63))])
def test_interned_values_survive_copies(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value
    assert copy.copy(value) is value
    assert copy.deepcopy(value) is value
    assert copy.deepcopy([value, {value: value}])[1] == {value: value}


def test_replace_cannot_make_a_second_value():
    # Values are not dataclasses, so `replace` cannot get round the interning.
    for value in (Entity("A"), Number(1)):
        with pytest.raises(TypeError):
            dataclasses.replace(value)


def test_values_are_immutable():
    with pytest.raises(AttributeError):
        Entity("A").entity_id = "B"
    with pytest.raises(AttributeError):
        Number(1).n = 2
    with pytest.raises(AttributeError):
        del Entity("A").entity_id
    with pytest.raises(AttributeError):
        del Number(1).n
    assert Entity("A").entity_id == "A" and Number(1).n == 1


def test_invalid_values_never_enter_the_table():
    from ldcs import core

    before = (len(core._ENTITIES), len(core._NUMBERS))
    for bad in ("", "9lives", "-x", "a\tb", "a\nb"):
        with pytest.raises(ValueError):
            Entity(bad)
    with pytest.raises(TypeError):
        Entity(5)
    for bad in (2**63, -(2**63) - 1, True, 1.0):
        with pytest.raises(ValueError):
            Number(bad)
    assert (len(core._ENTITIES), len(core._NUMBERS)) == before
    assert "9lives" not in core._ENTITIES and 2**63 not in core._NUMBERS


def test_values_are_hashable_and_distinct():
    assert Entity("A") == Entity("A")
    assert Entity("A") != Number(1)
    assert len({Entity("A"), Entity("A"), Number(1)}) == 2


def test_sort_key_orders_entities_before_numbers():
    vs = [Number(10), Entity("b"), Number(2), Entity("a")]
    assert sorted(vs, key=value_sort_key) == [
        Entity("a"), Entity("b"), Number(2), Number(10),
    ]


def test_render_value():
    assert render_value(Entity("Seattle")) == "Seattle"
    assert render_value(Number(-7)) == "-7"


def test_aggregate_and_superlative_ops_checked():
    inner = EntityLit(Entity("A"))
    with pytest.raises(ValueError):
        Aggregate("sum", inner)
    with pytest.raises(ValueError):
        Superlative("best", inner, Property("Area"))


def test_free_vars():
    # (mu a . P.a) is closed; the body alone has a free
    body = Join(Property("P"), Var("a"))
    assert free_vars(body) == {"a"}
    assert free_vars(Mu("a", body)) == set()
    assert free_vars(Lambda("a", Intersect(body, Var("b")))) == {"b"}
    assert free_vars(Reverse(Lambda("a", Var("a")))) == set()


PUBLIC_NAMES = {
    "Aggregate", "BadObject", "BadSubject", "Entity", "EntityLit",
    "EquivalenceReport", "EvalError", "GenSchema", "IllTyped", "Intersect",
    "Join", "KbFormatError", "KnowledgeBase", "Lambda", "LdcsError",
    "MalformedLine", "Mismatch", "Mu", "Negate", "Number",
    "ParseError", "Property", "ResolveError", "Reverse", "ShadowedVariable",
    "Superlative", "Triple", "UnbalancedDelimiter", "UnboundVariable", "Union",
    "UnknownProperty", "UnsupportedConstruct", "Var", "VariableInBinaryPosition",
    "__version__", "alpha_eq", "check_equivalence", "compile_sparql", "degree_of",
    "dump_kb", "eval_binary", "eval_unary", "format_binary", "format_lc",
    "format_unary", "free_vars", "fresh_var", "from_triples", "gen_term",
    "lc_eval", "load_kb", "load_kb_file", "parse_lc", "parse_unary",
    "render_value", "resolve", "simplify", "to_lc_binary", "to_lc_unary",
    "value_sort_key", "well_formed",
}


def test_public_names():
    import ldcs

    assert len(ldcs.__all__) == len(PUBLIC_NAMES) == 61
    assert set(ldcs.__all__) == PUBLIC_NAMES
    for name in ldcs.__all__:
        assert getattr(ldcs, name) is not None
