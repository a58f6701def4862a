"""The benchmark's workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. Operations come in whole rounds of a fixed
make-up, so every run attempts the same mix whatever its length. Inputs are
made from the run's seed by `gen` before an operation starts, and each
result is checked against `ref` after it returns; neither is timed.

A workload provides
    setup(seed)           build inputs and load the KB; sets `setup_s`
    round()               the next round of operations
    run(api, op)          one operation through the program's functions
    check(op, result)     None when the result is right, else a message
    kind(op)              the operation's class, for the per-layer figures
    counts(op, result)    counts for the per-layer figures
    probe()               the time of the host probe that gauges this work
and the constants TAIL (the percentile `op_tail_ms` reports), TRACE_ROUNDS
(the rounds of the traced pass) and PROBE_REFERENCE_S (the probe's time
on the reference host, see host.py).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import gen
import host
import ref

FIXTURE = Path("fixtures") / "demo.tsv"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def timed_loads(load, text: str, repeats: int):
    """The KB from the last of `repeats` loads, and the median load time,
    both at the host's reference speed and as measured.

    Each load is scaled by the median of the probes just before it; a load
    gets more probes when there are few loads, so that about fifteen are
    made in all.
    """
    per_load = math.ceil(15 / repeats)
    scaled, measured = [], []
    kb = None
    for _ in range(repeats):
        kb = None
        gc.collect()
        probe = statistics.median(host.probe() for _ in range(per_load))
        start = perf_counter()
        kb = load(text)
        elapsed = perf_counter() - start
        measured.append(elapsed)
        scaled.append(elapsed * host.REFERENCE_S / probe)
    return kb, statistics.median(scaled), statistics.median(measured)


def load_growth_mib(load, text: str) -> float:
    """Memory allocated at the peak of one load, outside every timed load."""
    gc.collect()
    tracemalloc.start()
    try:
        kb = load(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del kb
    return peak / 2**20


class Workload:
    TAIL = 99
    TRACE_ROUNDS = 1
    LOADS = 201
    PROBE_REFERENCE_S = host.REFERENCE_S
    traced = False  # set during the traced pass

    def load_setup(self, text: str) -> None:
        from ldcs.kb import load_kb

        self.text = text
        self.kb, self.setup_s, self.setup_raw_s = timed_loads(load_kb, text, self.LOADS)

    def probe(self) -> float:
        return host.probe()

    def kind(self, op) -> str:
        return "op"

    def counts(self, op, result) -> dict:
        return {}


class KbWorkload(Workload):
    """Text queries over a synthetic KB, evaluated and checked per query."""

    def __init__(self, n_entities: int, mix, loads: int, tail: int, trace_rounds: int):
        self.n_entities = n_entities
        self.mix_class = mix
        self.LOADS = loads
        self.TAIL = tail
        self.TRACE_ROUNDS = trace_rounds

    def setup(self, seed: int) -> None:
        names, triples = gen.synthetic_kb(random.Random(seed), self.n_entities)
        self.load_setup(gen.kb_text(triples))
        self.ref = ref.RefKB(triples)
        if self.mix_class is gen.QueryMix:
            areas = sorted({o for _, p, o in triples if p == "Area"})
            self.mix = gen.QueryMix(seed, names, areas)
        else:
            self.mix = self.mix_class(seed, names)

    def round(self):
        return self.mix.round()

    def run(self, api, op):
        text = op[3]
        return api.eval_unary(api.resolve(api.parse_unary(text), self.kb, strict=True), self.kb)

    def check(self, op, result):
        if ref.plain(result) != self.ref.unary(op[2]):
            return f"wrong answer to {op[3]}"
        return None

    def kind(self, op) -> str:
        # Anchored kb_query queries get their own label, so that the
        # per-class evaluator medians are those of class-wide queries.
        return op[0] if op[1] != "point" else f"{op[0]}.point"

    def counts(self, op, result) -> dict:
        return {"parser.chars": len(op[3]), "evaluator.values_out": len(result)}


class FixtureWorkload(Workload):
    """A workload over `fixtures/demo.tsv`, with forms over its vocabulary."""

    def fixture_setup(self, seed: int, depth: int) -> None:
        text = FIXTURE.read_text(encoding="utf-8")
        triples = gen.read_tsv(text)
        self.load_setup(text)
        self.ref = ref.RefKB(triples)
        objects: dict = {}
        for _, p, o in triples:
            objects.setdefault(p, []).append(o)
        self.forms = gen.FormGen(
            seed,
            entities=sorted(v for v in self.ref.domain if isinstance(v, str)),
            numbers=sorted({o for _, _, o in triples if isinstance(o, int)}),
            entity_props=sorted(p for p, os_ in objects.items() if all(isinstance(o, str) for o in os_)),
            number_props=sorted(p for p, os_ in objects.items() if all(isinstance(o, int) for o in os_)),
            depth=depth,
        )


class Check(Workload):
    """`check_equivalence` one trial at a time, 100 trials to a round; the
    traced pass runs 1000, the acceptance setting."""

    TRIALS = 100
    DEPTH = 4
    TRACE_ROUNDS = 10

    def setup(self, seed: int) -> None:
        self.load_setup(FIXTURE.read_text(encoding="utf-8"))
        self.next_seed = random.Random(seed).randrange(2**40) * self.TRIALS

    def round(self):
        start = self.next_seed
        self.next_seed += self.TRIALS
        return list(range(start, start + self.TRIALS))

    def run(self, api, op):
        return api.check_equivalence(self.kb, 1, max_depth=self.DEPTH, seed=op)

    def check(self, op, result):
        if result.trials != 1 or result.mismatches:
            return f"trial seed {op}: {result.render()}"
        return None

    def counts(self, op, result) -> dict:
        return {"oracle.trials": result.trials}


class Frontend(FixtureWorkload):
    """Form text through the parser, the translation, the lambda-calculus
    printer and parser, and the SPARQL compiler."""

    ROUND = 200
    TRACE_ROUNDS = 5

    def setup(self, seed: int) -> None:
        from ldcs.errors import UnsupportedConstruct
        from ldcs.parser import parse_unary, resolve
        from ldcs.convert import simplify

        self.unsupported = UnsupportedConstruct
        self.reread = lambda text: resolve(parse_unary(text), self.kb, strict=True)
        self.simplify = simplify
        self.fixture_setup(seed, depth=4)

    def round(self):
        return [self.forms.draw() for _ in range(self.ROUND)]

    def run(self, api, op):
        u = api.resolve(api.parse_unary(op[1]), self.kb, strict=True)
        printed = api.format_unary(u)
        term = api.to_lc_unary(u)
        simple = api.simplify(term)
        reread = api.parse_lc(api.format_lc(simple))
        same = api.alpha_eq(reread, simple)
        try:
            query = api.compile_sparql(u)
        except self.unsupported:
            query = None
        return u, printed, term, simple, reread, same, query

    def check(self, op, result):
        form, text = op
        u, printed, term, simple, reread, same, query = result
        free: set = set()
        if ref.shape(u) != form:
            return f"{text}: parsed to another tree"
        if self.reread(printed) != u:
            return f"{text}: printed as {printed!r}, which reads back differently"
        if not same or ref.lc_canonical(reread, set()) != ref.lc_canonical(simple, set()):
            return f"{text}: lambda term does not read back alpha-equal"
        if self.simplify(simple) != simple:
            return f"{text}: simplify is not at a fixpoint"
        ref.lc_canonical(term, free)
        if free:
            return f"{text}: translation has free variables {sorted(free)}"
        if (query is not None) != ref.sparql_supported(form):
            return f"{text}: compile_sparql disagrees with the SPARQL subset rule"
        return None

    def counts(self, op, result) -> dict:
        compiled = result[-1] is not None
        return {"parser.chars": len(op[1]), "sparql.compiled": compiled,
                "sparql.unsupported": not compiled}


class Cli(FixtureWorkload):
    """Sequential cold launches of `ldcs eval -k fixtures/demo.tsv EXPR`."""

    TAIL = 75
    ROUND = 2
    TRACE_ROUNDS = 10
    PROBE_REFERENCE_S = host.LAUNCH_REFERENCE_S

    def __init__(self):
        self.child_ms: list[dict] = []

    def setup(self, seed: int) -> None:
        self.fixture_setup(seed, depth=3)
        src = str(Path("src").resolve())
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def probe(self) -> float:
        return host.launch_probe(self.env)

    def launch(self, head, text):
        argv = [sys.executable, *head, "eval", "-k", str(FIXTURE), "--json", text]
        return subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=60)

    def round(self):
        return [self.forms.draw() for _ in range(self.ROUND)]

    def run(self, api, op):
        if not self.traced:
            return self.launch(["-m", "ldcs.cli"], op[1])
        start = perf_counter()
        done = self.launch([str(CLI_CHILD)], op[1])
        wall_ms = (perf_counter() - start) * 1e3
        inside = json.loads(done.stderr.splitlines()[-1])
        self.child_ms.append({**inside, "interp_ms": wall_ms - inside["import_ms"] - inside["main_ms"]})
        return done

    def check(self, op, result):
        form, text = op
        if result.returncode != 0:
            return f"{text}: exit {result.returncode}: {result.stderr.strip()}"
        if set(json.loads(result.stdout)) != self.ref.unary(form):
            return f"wrong answer to {text}"
        return None


WORKLOADS = {
    "kb_query": lambda: KbWorkload(20_000, gen.QueryMix, loads=3, tail=99, trace_rounds=4),
    "kb_binder": lambda: KbWorkload(2_000, gen.BinderMix, loads=9, tail=90, trace_rounds=2),
    "check": Check,
    "frontend": Frontend,
    "cli": Cli,
}
