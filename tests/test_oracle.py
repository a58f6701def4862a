"""Brute-force enumeration semantics and the random form generator."""

import os
import pathlib
import subprocess
import sys

import pytest

from ldcs import (
    Entity,
    GenSchema,
    IllTyped,
    Number,
    check_equivalence,
    gen_term,
    lc_eval,
    load_kb,
    parse_lc,
    parse_unary,
    resolve,
)
from ldcs import core


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


_COUNT_TRUTH = """
import sys
from ldcs import check_equivalence, load_kb_file, oracle
calls = 0
truth = oracle._OracleEval.truth
def counted(self, t, env):
    global calls
    calls += 1
    return truth(self, t, env)
oracle._OracleEval.truth = counted
report = check_equivalence(load_kb_file(sys.argv[1]), 40, max_depth=4, seed=7)
print(report.ok, calls)
"""


def test_check_work_does_not_follow_set_order():
    # Set order follows string hashes and, for interned values, addresses;
    # the oracle tries existential witnesses in value order instead.
    root = pathlib.Path(__file__).resolve().parent.parent
    fixture, src = root / "fixtures" / "demo.tsv", str(root / "src")
    outputs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_TRUTH, str(fixture)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().startswith("True ")
