"""SPARQL text generation: byte-exact against checked-in goldens."""

import pathlib

import pytest

from ldcs import UnsupportedConstruct, compile_sparql, parse_unary, resolve

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"


GOLDEN_CASES = [
    ("join_entity.rq", "PlaceOfBirth.Seattle", None),
    ("negation.rq", "Type.USState & !Border.California", None),
    ("count.rq", "count(Type.USState)", None),
    ("superlative_max.rq", "argmax(Type.USState, Area)", None),
    ("superlative_min.rq", "argmin(Type.USState, Area)", None),
    ("union.rq", "Oregon | Washington", None),
    ("join_chain.rq", "Children.PlaceOfBirth.Seattle", None),
    ("reverse.rq", "R[Area].Washington", None),
    ("number_object.rq", "Type.USState & Area.164", None),
    ("prefixed.rq", "PlaceOfBirth.Seattle", "http://example.org/"),
    ("union_negation.rq",
     "Profession.Scientist | Type.City & !PlaceOfBirth.Seattle", None),
    # `!` complements against the entity domain: without a join binding ?x
    # as a subject, the group keeps only the IRIs that occur in the graph.
    ("negation_reverse.rq", "R[Area].Oregon & !Seattle", None),
    ("negation_number.rq", "164 & !Seattle", None),
    ("negation_unknown_entity.rq", "Nowhere & !Seattle", None),
    ("negation_union.rq", "(R[Area].Oregon | Seattle) & !Alice", None),
]


@pytest.mark.parametrize("golden,text,prefix", GOLDEN_CASES)
def test_golden_outputs(golden, text, prefix):
    u = resolve(parse_unary(text))
    got = compile_sparql(u, prefix=prefix)
    want = (GOLDENS / golden).read_text(encoding="utf-8")
    assert got == want


def test_output_is_deterministic():
    u = resolve(parse_unary("argmax(Children.PlaceOfBirth.Seattle, Area)"))
    assert compile_sparql(u) == compile_sparql(u)


UNSUPPORTED = [
    "(mu x . Children.Influenced.x)",
    "(lam x . Border.x).Oregon",
    "argmax(Type.Person, R[(lam x . count(R[Children].x))])",
    "argmax(Type.USState, R[Area])",
    "!Type.City",
    "!Type.City & !Type.Person",
    "Children.count(Type.City)",
    "count(count(Type.City))",
    "Type.City & count(Type.City)",
    "Border.(mu x . x)",
    "argmax(Type.City, Area) & Type.City",
]


@pytest.mark.parametrize("text", UNSUPPORTED)
def test_unsupported_constructs_raise(text):
    u = resolve(parse_unary(text))
    with pytest.raises(UnsupportedConstruct):
        compile_sparql(u)


def test_double_negation_needs_an_anchor():
    u = resolve(parse_unary("Type.City & !!Type.City"))
    with pytest.raises(UnsupportedConstruct):
        compile_sparql(u)


def test_prefix_refuses_what_an_iri_cannot_hold():
    # The characters SPARQL 1.1's IRIREF rule forbids, anywhere in the prefix.
    u = resolve(parse_unary("Type.City"))
    for bad in list('<>"{}|^`\\') + [chr(c) for c in range(0x21)]:
        with pytest.raises(ValueError) as exc:
            compile_sparql(u, prefix=f"http://x/{bad}y/")
        assert repr(bad) in str(exc.value)


def test_prefix_may_hold_other_characters():
    u = resolve(parse_unary("Type.City"))
    query = compile_sparql(u, prefix="http://example.org/a-b_c~d?e=f#é/")
    assert "<http://example.org/a-b_c~d?e=f#é/Type>" in query
