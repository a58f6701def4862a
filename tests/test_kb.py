"""TSV loading, validation, indexing, round-tripping."""

import gc
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ldcs import (
    BadObject,
    BadSubject,
    Entity,
    KbFormatError,
    MalformedLine,
    Number,
    Triple,
    check_equivalence,
    dump_kb,
    eval_unary,
    from_triples,
    load_kb,
    load_kb_file,
    parse_unary,
    resolve,
)


def test_load_basic(kb):
    assert len(kb) == 29
    assert Entity("Alice") in kb.entity_domain
    assert Entity("Seattle") in kb.entity_domain
    assert Number(71) not in kb.entity_domain
    assert kb.property_set == {
        "Area", "Border", "Children", "Influenced",
        "PlaceOfBirth", "Profession", "Type",
    }


def test_lookups(kb):
    assert kb.objects_of("Children", Entity("Dave")) == {Entity("Alice"), Entity("Bob")}
    assert kb.objects_of("Children", Entity("Alice")) == frozenset()
    assert kb.subjects_of("Border", Entity("California")) == {Entity("Oregon")}
    assert kb.subjects_of("Area", Number(164)) == {Entity("California")}
    assert kb.subjects_of("Nope", Entity("Alice")) == frozenset()


def test_load_accepts_stream_comments_and_blanks():
    kb = load_kb(io.StringIO("# c\n\nA\tP\tB\nA\tP\t3\n"))
    assert len(kb) == 2
    assert kb.objects_of("P", Entity("A")) == {Entity("B"), Number(3)}


@pytest.mark.parametrize("data,line", [
    (b"Alice\tType\tPerson\n\xff\n", 2),
    (b"# caf\xc3\n", 1),  # a cut-off sequence, even in a comment
    (b"A\tP\tB\r\n\r\nA\tP\t\xe9\n", 3),
    (b"A\tP\tB\rA\tP\tC\r\x80", 3),
])
def test_file_that_is_not_utf8_fails_at_its_line(tmp_path, data, line):
    path = tmp_path / "kb.tsv"
    path.write_bytes(data)
    with pytest.raises(KbFormatError) as exc:
        load_kb_file(path)
    assert exc.value.line_number == line
    assert "not valid UTF-8" in str(exc.value)


def test_file_lines_end_as_in_text_mode(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_bytes(b"A\tP\tB\r\nA\tP\tC\rA\tP\t3\n")
    kb = load_kb_file(path)
    assert kb.objects_of("P", Entity("A")) == {Entity("B"), Entity("C"), Number(3)}


@pytest.mark.parametrize("data", [
    b"A\tP\tB\rA\tP\tC\n",
    b"A\tP\tB\r\nA\tP\tC\rA\tP\t3",
    b"# c\r\rA\tP\tB\r\n\r\nB\tQ\t-4\r",
], ids=["lone-cr", "mixed", "blank-and-comment"])
def test_string_lines_end_as_file_lines(tmp_path, data):
    path = tmp_path / "kb.tsv"
    path.write_bytes(data)
    kb = load_kb(data.decode())
    assert kb == load_kb_file(path) and kb.triples == load_kb_file(path).triples
    assert len(kb) == data.count(b"\t") // 2


def test_string_and_file_fail_at_the_same_line(tmp_path):
    data = b"A\tP\tB\rA\tP\tC\r\nA\tP\n"
    path = tmp_path / "kb.tsv"
    path.write_bytes(data)
    for load, source in ((load_kb, data.decode()), (load_kb_file, path)):
        with pytest.raises(MalformedLine) as exc:
            load(source)
        assert exc.value.line_number == 3 and "got 2" in str(exc.value)


def test_load_from_string():
    kb = load_kb("A\tP\tB\n")
    assert len(kb) == 1


def test_duplicate_triples_collapse():
    kb = load_kb("A\tP\tB\nA\tP\tB\n")
    assert len(kb) == 1


def test_malformed_lines():
    with pytest.raises(MalformedLine) as exc:
        load_kb("A\tP\n")
    assert exc.value.line_number == 1
    with pytest.raises(MalformedLine):
        load_kb("A\tP\tB\tC\n")
    with pytest.raises(MalformedLine):
        load_kb("A B C\n")
    with pytest.raises(MalformedLine) as exc:
        load_kb("A\tP\tB\nA\t9p\tB\n")
    assert exc.value.line_number == 2


def test_bad_subject_and_object():
    with pytest.raises(BadSubject):
        load_kb("3\tP\tB\n")
    with pytest.raises(BadSubject):
        load_kb("!x\tP\tB\n")
    with pytest.raises(BadObject):
        load_kb("A\tP\t\n")
    with pytest.raises(BadObject):
        load_kb(f"A\tP\t{2**63}\n")


def test_triple_subject_must_be_entity():
    with pytest.raises(ValueError):
        Triple(Number(1), "P", Entity("B"))
    with pytest.raises(ValueError):
        Triple(Entity("A"), "P", Entity("B"))._replace(subject=Number(1))


def test_from_triples_refuses_a_number_as_subject():
    # A number among the subjects would enter the entity domain, which `!`
    # and every binder range over.
    with pytest.raises(ValueError, match="triple subjects must be entities"):
        from_triples([(Number(1), "p", Entity("a")), (Entity("b"), "p", Entity("a"))])


def test_triple_is_an_immutable_tuple():
    t = Triple(Entity("A"), "P", Number(3))
    assert t == (Entity("A"), "P", Number(3))
    assert hash(t) == hash((Entity("A"), "P", Number(3)))
    assert (t.subject, t.property, t.object) == tuple(t)
    for name in ("subject", "property", "object", "extra"):
        with pytest.raises(AttributeError):
            setattr(t, name, Entity("C"))


def test_kb_is_an_immutable_record(kb):
    assert load_kb(dump_kb(kb)) == kb
    assert from_triples(list(kb.triples)[1:]) != kb
    assert repr(kb) == (
        f"KnowledgeBase(triples={kb.triples!r}, entity_domain={kb.entity_domain!r}, "
        f"property_set={kb.property_set!r})"
    )
    with pytest.raises(AttributeError):
        kb.triples = frozenset()
    with pytest.raises(AttributeError):
        del kb.forward
    with pytest.raises(TypeError):
        hash(kb)


def _superlative(text, kb):
    return eval_unary(resolve(parse_unary(text), kb, strict=True), kb)


def test_degree_orders_stay_out_of_the_kb_value(kb):
    fresh = load_kb(dump_kb(kb))
    text, shown = dump_kb(fresh), repr(fresh)
    assert fresh._derived == {}  # a load derives nothing
    assert _superlative("argmax(Type.USState, Area)", fresh) == {Entity("California")}
    assert _superlative("argmin(Type.USState | Type.City, Area)", fresh) == {
        Entity("Washington")
    }
    assert len(fresh._derived) == 2  # filled by the two class-wide superlatives
    # The enumeration's per-KB facts and the generator's schema go in the
    # same memo, and stay out of the KB's value too.
    assert check_equivalence(fresh, 3, 4).ok
    assert len(fresh._derived) > 2
    assert fresh == load_kb(text) and load_kb(text) == fresh and fresh == kb
    assert repr(fresh) == shown
    assert dump_kb(fresh) == text
    with pytest.raises(AttributeError):
        fresh.triples = frozenset()
    with pytest.raises(AttributeError):
        fresh._derived = {}
    with pytest.raises(TypeError):
        hash(fresh)


def test_a_derived_fact_is_built_once_per_kb_and_arguments(kb):
    fresh = load_kb(dump_kb(kb))
    calls = []

    def build(k, *args):
        calls.append(args)
        return len(k) + sum(args)

    assert fresh.derived(build) == fresh.derived(build) == 29
    assert fresh.derived(build, 1, 2) == fresh.derived(build, 1, 2) == 32
    assert calls == [(), (1, 2)]
    assert load_kb(dump_kb(kb)).derived(build) == 29
    assert calls == [(), (1, 2), ()]


def test_degree_order_ranks_the_keys_related_only_to_numbers():
    a, b, c, d = (Entity(name) for name in "ABCD")
    kb = from_triples([
        # "one" relates each key to one value, "two" some keys to two.
        Triple(a, "one", Number(3)), Triple(b, "one", Number(-1)), Triple(c, "one", d),
        Triple(a, "two", Number(3)), Triple(a, "two", Number(9)), Triple(b, "two", Number(5)),
        Triple(c, "two", Number(1)), Triple(c, "two", d),
    ])
    # Every key related to a number is ranked, by its numbers alone: C is
    # related to no number by "one", and by "two" to 1 and an entity.
    assert kb.degree_order("one", True, "max") == ((3, -1), (a, b))
    assert kb.degree_order("one", True, "min") == ((-1, 3), (b, a))
    assert kb.degree_order("two", True, "max") == ((9, 5, 1), (a, b, c))
    assert kb.degree_order("two", True, "min") == ((1, 3, 5), (c, a, b))
    # R[one] reads the map from objects to subjects, which are entities.
    assert kb.degree_order("one", False, "max") == ((), ())
    assert kb.degree_order("unknown", True, "max") == ((), ())
    assert kb.degree_order("one", True, "max") is kb.degree_order("one", True, "max")


def test_point_superlative_builds_no_degree_order():
    rng = random.Random(1)
    names = [Entity(f"E{i}") for i in range(2000)]
    kb = from_triples(
        triple
        for e in names
        for triple in (Triple(e, "Area", Number(rng.randrange(100))),
                       Triple(e, "Link", rng.choice(names)))
    )
    got = _superlative("argmax(Link.E5 | R[Link].E5, Area)", kb)
    source = kb.subjects_of("Link", Entity("E5")) | kb.objects_of("Link", Entity("E5"))
    area = {e: next(iter(kb.objects_of("Area", e))).n for e in source}
    assert got == {e for e, n in area.items() if n == max(area.values())}
    assert kb._derived == {}
    _superlative("argmax(!E5, Area)", kb)
    assert [key[1:] for key in kb._derived] == [("Area", True, "max")]


def test_dump_is_sorted_and_loads_back(kb):
    text = dump_kb(kb)
    lines = text.splitlines()
    assert lines == sorted(lines)
    again = load_kb(text)
    assert again.triples == kb.triples
    assert dump_kb(again) == text
    mixed = from_triples([
        Triple(Entity("A"), "P", Entity("B")),
        Triple(Entity("A"), "P", Number(-3)),
        Triple(Entity("B"), "Q", Number(2**63 - 1)),
        Triple(Entity("B"), "Q", Entity("A")),
    ])
    again = load_kb(dump_kb(mixed))
    assert again.triples == mixed.triples
    assert again.forward == mixed.forward and again.backward == mixed.backward
    assert again.entity_domain == {Entity("A"), Entity("B")}


def test_indexes_agree_with_naive_scan():
    rng = random.Random(7)
    entities = [f"e{i}" for i in range(12)]
    props = ["p", "q", "r"]
    triples = set()
    for _ in range(120):
        s = Entity(rng.choice(entities))
        p = rng.choice(props)
        o = Number(rng.randrange(5)) if rng.random() < 0.3 else Entity(rng.choice(entities))
        triples.add(Triple(s, p, o))
    kb = from_triples(triples)
    values = {Entity(e) for e in entities + ["unseen"]} | {Number(n) for n in range(-1, 6)}
    for p in props + ["unknown"]:
        for v in values:
            fwd = {x.object for x in triples if x.property == p and x.subject == v}
            bwd = {x.subject for x in triples if x.property == p and x.object == v}
            assert kb.objects_of(p, v) == fwd
            assert kb.subjects_of(p, v) == bwd
            assert type(kb.objects_of(p, v)) is frozenset
            assert type(kb.subjects_of(p, v)) is frozenset
    assert kb.property_set == {t.property for t in triples}
    assert kb.entity_domain == {x for t in triples for x in (t.subject, t.object)
                                if isinstance(x, Entity)}


@pytest.mark.parametrize(
    "text,error",
    [
        ("a.b\tP\tB\n", BadSubject),
        ("A\tP\tb.c\n", BadObject),
        ("A\tp.q\tB\n", MalformedLine),
        ("count\tP\tB\n", BadSubject),
        ("A\tP\tmu\n", BadObject),
        ("A\targmax\tB\n", MalformedLine),
        ("A\tlam\tB\n", MalformedLine),
        ("in\tP\tB\n", BadSubject),
        ("A\tP\texists\n", BadObject),
        ("A\tlambda\tB\n", MalformedLine),
    ],
)
def test_names_no_query_can_write_are_refused(text, error):
    # '.' is the join operator and the keywords of both grammars parse as
    # syntax, so neither could name what the line loads.
    with pytest.raises(error) as exc:
        load_kb("A\tP\tB\n" + text)
    assert exc.value.line_number == 2


def test_names_close_to_keywords_load():
    kb = load_kb("fb:en\tR\tcounts\nmu_1\targmin2\tLam\n")
    assert len(kb) == 2
    assert kb.objects_of("R", Entity("fb:en")) == {Entity("counts")}


# --- the cyclic collector during a load ----------------------------------------

def _watched(items, seen):
    """The items, noting whether the collector is on as each is read."""
    for item in items:
        seen.append(gc.isenabled())
        yield item


@pytest.fixture
def collector():
    """Leave the collector on after the test, whatever the test did."""
    yield
    gc.enable()


def test_load_pauses_the_collector_and_turns_it_back_on(collector):
    gc.enable()
    seen = []
    kb = load_kb(_watched(["A\tP\tB\n", "B\tP\t7\n"], seen))
    assert len(kb) == 2 and seen == [False, False]
    assert gc.isenabled()

    seen.clear()
    from_triples(_watched([Triple(Entity("A"), "P", Entity("B"))], seen))
    assert seen == [False] and gc.isenabled()


def test_load_that_fails_turns_the_collector_back_on(collector):
    gc.enable()
    with pytest.raises(MalformedLine):
        load_kb("A\tP\tB\nA\tP\n")
    assert gc.isenabled()

    def broken():
        yield Triple(Entity("A"), "P", Entity("B"))
        raise OSError("stream broke")

    with pytest.raises(OSError):
        from_triples(broken())
    assert gc.isenabled()


def test_load_leaves_a_paused_collector_paused(collector):
    gc.disable()
    load_kb("A\tP\tB\n")
    assert not gc.isenabled()
    with pytest.raises(MalformedLine):
        load_kb("A\tP\n")
    assert not gc.isenabled()
    from_triples([Triple(Entity("A"), "P", Entity("B"))])
    assert not gc.isenabled()


# --- the triple set is built from the index on first use -----------------------

def _synthetic_text(n_entities, seed):
    """A KB text in which every entity has a type, an area and two links."""
    rng = random.Random(seed)
    names = [f"E{i}" for i in range(n_entities)]
    lines = []
    for name in names:
        lines.append(f"{name}\tType\t{rng.choice(['City', 'Person', 'USState'])}\n")
        lines.append(f"{name}\tArea\t{rng.randrange(-50, 1000)}\n")
        lines.append(f"{name}\tLink\t{rng.choice(names)}\n")
        lines.append(f"{name}\tNear\t{rng.choice(names)}\n")
    return "".join(lines)


@pytest.mark.parametrize("text,queries", [
    (None, ["Type.City", "R[Border].Type.USState", "Children.Influenced.Type.Person",
            "argmax(Type.USState, Area)", "(mu x . Border.Border.x)", "!Type.Person"]),
    (_synthetic_text(2000, 1), ["Link.Type.City", "R[Near].Link.Type.USState",
                                "argmax(Type.City, Area)", "(mu x . R[Link].Link.x & Type.City)",
                                "count(!Type.City)"]),
], ids=["fixture", "synthetic"])
def test_loading_and_querying_build_no_triple_set(kb, text, queries):
    text = dump_kb(kb) if text is None else text
    fresh, again = load_kb(text), load_kb(io.StringIO(text))
    answers = [_superlative(query, fresh) for query in queries]
    assert fresh == again and len(fresh) == len(again) and fresh.derived(len) == len(fresh)
    assert "triples" not in vars(fresh) and "triples" not in vars(again)
    assert all(answers)
    built = fresh.triples
    assert built is fresh.triples and vars(fresh)["triples"] is built
    assert len(built) == len(fresh) and built == again.triples
    with pytest.raises(AttributeError):
        fresh.triples = frozenset()
    with pytest.raises(AttributeError):
        del fresh.triples
    assert fresh.triples is built


def test_shuffled_lines_load_an_equal_kb_and_a_dropped_line_an_unequal_one(kb):
    rng = random.Random(3)
    for text in (dump_kb(kb), _synthetic_text(300, 2)):
        lines = text.splitlines(keepends=True)
        base = load_kb(text)
        for _ in range(3):
            rng.shuffle(lines)
            assert load_kb("".join(lines)) == base
        dropped = load_kb("".join(lines[1:]))
        assert dropped != base and base != dropped
        assert len(dropped) == len(base) - 1


_NAMES = ["A", "B", "c_1", "fb:x", "Lam"]
_PROPS = ["P", "q", "Area"]
_OBJECTS = st.one_of(st.sampled_from(_NAMES), st.integers(-12, 12).map(str),
                     st.sampled_from(["-0", "007", str(-2**63), str(2**63 - 1)]))
_LINES = st.one_of(
    st.tuples(st.sampled_from(_NAMES), st.sampled_from(_PROPS), _OBJECTS).map("\t".join),
    st.sampled_from(["", "   ", "# a comment", "#A\tP\tB"]),
)


@st.composite
def _kb_texts(draw):
    lines = draw(st.lists(_LINES, max_size=30))
    lines += draw(st.lists(st.sampled_from(lines), max_size=5)) if lines else []  # repeats
    draw(st.randoms()).shuffle(lines)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


def _naive_parse(text):
    """The set of (subject, property, object) facts of a KB text."""
    facts = set()
    for line in text.replace("\r\n", "\n").split("\n"):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        s, p, o = line.split("\t")
        facts.add((Entity(s), p, Number(int(o)) if re.fullmatch(r"-?[0-9]+", o) else Entity(o)))
    return facts


@settings(max_examples=300, deadline=None)
@given(_kb_texts())
def test_a_loaded_kb_matches_a_naive_parse(text):
    facts = _naive_parse(text)
    kb = load_kb(text)
    assert len(kb) == len(facts)
    values = {x for s, _, o in facts for x in (s, o)}
    for p in _PROPS + ["unknown"]:
        for v in values | {Entity("unseen"), Number(0)}:
            assert kb.objects_of(p, v) == {o for s, q, o in facts if q == p and s == v}
            assert kb.subjects_of(p, v) == {s for s, q, o in facts if q == p and o == v}
    assert kb.entity_domain == {x for x in values if isinstance(x, Entity)}
    assert kb.property_set == {p for _, p, _ in facts}
    assert "triples" not in vars(kb)
    assert kb.triples == facts
