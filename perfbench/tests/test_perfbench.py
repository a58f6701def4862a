"""The benchmark's own tests; the repository's test suite does not collect them.

    python3 -m pytest perfbench/tests
"""

import os
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gen  # noqa: E402
import host  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def demo():
    return ref.RefKB(gen.read_tsv((ROOT / "fixtures" / "demo.tsv").read_text()))


def test_reference_answers_on_the_fixture(demo):
    seattle = ("join", ("prop", "PlaceOfBirth"), ("ent", "Seattle"))
    states = ("join", ("prop", "Type"), ("ent", "USState"))
    assert demo.unary(seattle) == {"Alice", "Carol"}
    assert demo.unary(("count", states)) == {3}
    assert demo.unary(("argmax", states, ("prop", "Area"))) == {"California"}
    assert demo.unary(("argmin", states, ("prop", "Area"))) == {"Washington"}


def test_reference_binders_on_the_fixture(demo):
    # Who has a child that influenced them: Dave (child Alice influenced Dave).
    mu = ("mu", "x", ("join", ("prop", "Children"),
                      ("join", ("prop", "Influenced"), ("var", "x"))))
    assert demo.unary(mu) == {"Dave"}
    # Parents of somebody born in Seattle, through a lam in binary position.
    born = ("lam", "y", ("join", ("prop", "Children"), ("var", "y")))
    assert demo.unary(("join", born, ("join", ("prop", "PlaceOfBirth"), ("ent", "Seattle")))) == {"Dave", "Eve"}


def test_generators_repeat_for_a_seed():
    def kb(seed):
        return gen.synthetic_kb(random.Random(seed), 50)

    assert kb(3) == kb(3) and kb(3) != kb(4)
    names, triples = kb(3)
    areas = sorted({o for _, p, o in triples if p == "Area"})

    def queries(seed):
        mix = gen.QueryMix(seed, names, areas)
        return mix.round() + mix.round()

    def binders(seed):
        mix = gen.BinderMix(seed, names)
        return mix.round() + mix.round()

    def forms(seed):
        forms = gen.FormGen(seed, ["A", "B"], [1, 2], ["P"], ["N"])
        return [forms.draw() for _ in range(50)]

    for make in (queries, binders, forms):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_no_text_repeats_in_a_run():
    names, _ = gen.synthetic_kb(random.Random(1), 50)
    mix = gen.BinderMix(1, names)
    texts = [op[3] for _ in range(5) for op in mix.round()]
    assert len(set(texts)) == len(texts)


def test_check_seeds_repeat_for_a_seed():
    def seeds(seed):
        w = workloads.Check()
        w.LOADS = 1
        w.setup(seed)
        return w.round()[:3]

    assert seeds(5) == seeds(5) != seeds(6)


def test_sparql_rule_on_hand_picked_forms():
    e = ("ent", "A")
    join = ("join", ("prop", "P"), e)
    assert ref.sparql_supported(("and", join, ("not", e)))
    assert not ref.sparql_supported(("not", join))
    assert ref.sparql_supported(("argmax", join, ("prop", "N")))
    assert not ref.sparql_supported(("argmax", join, ("rev", ("prop", "N"))))
    assert not ref.sparql_supported(("join", ("prop", "P"), ("count", e)))
    assert not ref.sparql_supported(("mu", "x", ("join", ("prop", "P"), ("var", "x"))))


def tiny(name):
    """The workload at a few hundred entities and a handful of operations."""
    w = workloads.WORKLOADS[name]()
    w.LOADS = 1
    if isinstance(w, workloads.KbWorkload):
        w.n_entities = 300
    w.TRIALS = 20
    w.ROUND = 3
    return w


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failed_operations(name):
    w = tiny(name)
    w.setup(1)
    untraced = run.Tally()
    run.drive(w, spans.plain_api(), untraced, lambda t: t.rounds < 1)
    assert untraced.failed == 0 and untraced.wrong == []
    metrics = run.end_to_end(w, untraced)
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert all(value > 0 for value in metrics.values())

    tracer, traced = run.traced_pass(w, spans)
    assert traced.failed == 0 and traced.wrong == []
    layers = run.per_layer(w, tracer, traced, untraced, 0.0)
    assert set(layers) == {name for name, _ in run.PER_LAYER}
    assert layers["kb.load_s"] > 0


def test_round_scales_follow_the_probe_around_each_round():
    slow = host.REFERENCE_S * 2
    assert host.round_scales([slow] * 4, host.REFERENCE_S) == [0.5] * 4
    # One probe caught by an interrupt does not move its round.
    assert host.round_scales([slow, slow, 10 * slow, slow, slow], host.REFERENCE_S)[2] == 0.5


def test_run_refuses_a_directory_without_the_program(tmp_path):
    os.chdir(tmp_path)
    assert run.main(["--workload", "check", "--seconds", "1"]) == 2
