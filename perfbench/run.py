"""Seeded benchmark of `ldcs`: KB queries, binders, the agreement check,
the front end and the cold command line.

    python3 perfbench/run.py --workload kb_query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, each in its own process

Run it from the root of the repository. One workload runs in this process:
it sets up, then runs whole rounds of operations until their timed work
reaches --seconds (and the tail percentile has ten samples beyond it).
Times are scaled to the host's reference speed (see host.py).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
runs a traced pass of fixed length on fresh inputs and prints the
per-layer metrics instead. The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Spans of a traced pass are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import host

OUT = Path(__file__).resolve().parent / "out"
HASH_SEED = "0"

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"))

EVAL_CLASSES = ("join", "chain", "reverse", "setop", "negate", "count", "superlative", "mu", "lam")

PER_LAYER = (
    ("kb.load_s", "s"), ("kb.parse_s", "s"), ("kb.index_s", "s"), ("kb.peak_mib", "MiB"),
    ("kb.triples", "count"), ("kb.entities", "count"),
    ("parser.parse_s", "s"), ("parser.resolve_s", "s"), ("parser.format_s", "s"),
    ("parser.chars_per_s", "chars/s"),
    ("evaluator.eval_s", "s"),
    *((f"evaluator.{kind}_ms", "ms") for kind in EVAL_CLASSES),
    ("evaluator.values_out", "count"),
    ("convert.to_lc_s", "s"), ("convert.simplify_s", "s"),
    ("convert.raw_nodes", "count"), ("convert.simplified_nodes", "count"),
    ("lc.format_s", "s"), ("lc.parse_s", "s"), ("lc.alpha_eq_s", "s"),
    ("oracle.gen_s", "s"), ("oracle.lc_eval_raw_s", "s"), ("oracle.lc_eval_simplified_s", "s"),
    ("oracle.trials", "count"),
    ("sparql.compile_s", "s"), ("sparql.compiled", "count"), ("sparql.unsupported", "count"),
    ("cli.import_ms", "ms"), ("cli.main_ms", "ms"), ("cli.interp_ms", "ms"),
    ("host.probe_ms", "ms"), ("trace.overhead_s", "s"),
)


class Tally:
    """What one pass attempted, how long its operations took, what went wrong."""

    def __init__(self):
        self.durations: list[float] = []
        self.round_sizes: list[int] = []
        self.probes: list[float] = []
        self.busy = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []


def drive(w, api, tally: Tally, more, tracer=None) -> None:
    """Runs whole rounds while `more(tally)` holds; only `w.run` is timed.
    The host's speed is probed before each round."""
    while more(tally):
        done = len(tally.durations)
        ops = w.round()
        tally.probes.append(w.probe())
        for op in ops:
            tally.attempted += 1
            start = perf_counter()
            try:
                if tracer is None:
                    result = w.run(api, op)
                else:
                    with tracer.span(f"op.{w.kind(op)}"):
                        result = w.run(api, op)
            except Exception:  # an operation that raises counts as failed; go on
                tally.failed += 1
                if tally.failed == 1:
                    traceback.print_exc()
                continue
            elapsed = perf_counter() - start
            tally.durations.append(elapsed)
            tally.busy += elapsed
            problem = w.check(op, result)
            if problem is not None:
                tally.wrong.append(problem)
            if tracer is not None:
                for name, n in w.counts(op, result).items():
                    tracer.counts[name] += n
        tally.rounds += 1
        tally.round_sizes.append(len(tally.durations) - done)


def percentile(values, p) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(w, tally: Tally, scaled: bool = True) -> dict:
    """The end-to-end metrics, at the host's reference speed unless not
    `scaled`. `ops_per_s` is the median over rounds of each round's rate,
    so that a short stall moves one round, not the figure."""
    scales = host.round_scales(tally.probes, w.PROBE_REFERENCE_S) if scaled else [1.0] * tally.rounds
    durations, rates = [], []
    start = 0
    for size, scale in zip(tally.round_sizes, scales):
        part = [d * scale for d in tally.durations[start:start + size]]
        start += size
        if part:
            durations += part
            rates.append(len(part) / sum(part))
    return {
        "setup_s": w.setup_s if scaled else w.setup_raw_s,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": percentile(durations, w.TAIL) * 1e3,
    }


def per_layer(w, tracer, traced: Tally, untraced: Tally, peak_mib: float) -> dict:
    st = tracer.self_times()
    counts = tracer.counts
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["kb.parse_s"] = st["kb.load_kb"]
    m["kb.index_s"] = st["kb.from_triples"]
    m["kb.load_s"] = m["kb.parse_s"] + m["kb.index_s"]
    m["kb.peak_mib"] = peak_mib
    m["kb.triples"] = len(w.kb)
    m["kb.entities"] = len(w.kb.entity_domain)
    m["parser.parse_s"] = st["parser.parse_unary"]
    m["parser.resolve_s"] = st["parser.resolve"]
    m["parser.format_s"] = st["parser.format_unary"]
    if m["parser.parse_s"]:
        m["parser.chars_per_s"] = counts["parser.chars"] / m["parser.parse_s"]
    m["evaluator.eval_s"] = st["evaluator.eval_unary"]
    by_class = tracer.durations_by_parent("evaluator.eval_unary")
    for kind in EVAL_CLASSES:
        if by_class.get(f"op.{kind}"):
            m[f"evaluator.{kind}_ms"] = statistics.median(by_class[f"op.{kind}"]) * 1e3
    m["evaluator.values_out"] = counts["evaluator.values_out"]
    m["convert.to_lc_s"] = st["convert.to_lc_unary"]
    m["convert.simplify_s"] = st["convert.simplify"]
    m["convert.raw_nodes"] = counts["convert.raw_nodes"]
    m["convert.simplified_nodes"] = counts["convert.simplified_nodes"]
    m["lc.format_s"] = st["lc.format_lc"]
    m["lc.parse_s"] = st["lc.parse_lc"]
    m["lc.alpha_eq_s"] = st["lc.alpha_eq"]
    m["oracle.gen_s"] = st["oracle.gen_term"]
    m["oracle.lc_eval_raw_s"] = st["oracle.lc_eval_raw"]
    m["oracle.lc_eval_simplified_s"] = st["oracle.lc_eval_simplified"]
    m["oracle.trials"] = counts["oracle.trials"]
    m["sparql.compile_s"] = st["sparql.compile_sparql"]
    m["sparql.compiled"] = counts["sparql.compiled"]
    m["sparql.unsupported"] = counts["sparql.unsupported"]
    for key in ("import_ms", "main_ms", "interp_ms"):
        samples = [child[key] for child in getattr(w, "child_ms", [])]
        if samples:
            m[f"cli.{key}"] = statistics.median(samples)
    m["host.probe_ms"] = statistics.median(untraced.probes) * 1e3
    m["trace.overhead_s"] = traced.busy - untraced.busy / untraced.rounds * traced.rounds
    return m


def traced_pass(w, spans):
    """TRACE_ROUNDS rounds with spans, after one traced load of the KB."""
    tracer = spans.Tracer()
    api = tracer.api()
    traced = Tally()
    kb = w.kb
    tracer.patch_inner()
    w.traced = True
    try:
        with tracer.span("setup"):
            w.kb = api.load_kb(w.text)
        drive(w, api, traced, lambda t: t.rounds < w.TRACE_ROUNDS, tracer)
    finally:
        tracer.restore()
        w.traced = False
        w.kb = kb
    return tracer, traced


def run_workload(args) -> int:
    if not (Path("src/ldcs/__init__.py").is_file() and Path("fixtures/demo.tsv").is_file()):
        print("error: run from the root of the ldcs repository (needs src/ldcs and fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import spans
    from workloads import WORKLOADS, load_growth_mib

    w = WORKLOADS[args.workload]()
    w.setup(args.seed)
    min_ops = math.ceil(10 / (1 - w.TAIL / 100))
    api = spans.plain_api()
    # One untimed round first: the interpreter specialises hot code on its
    # first executions, and the first operations of a process run slower.
    warm = Tally()
    drive(w, api, warm, lambda t: t.rounds < 1)
    # Set-up leaves the KB, the reference and the inputs alive for the whole
    # run; freezing them keeps the collector from rescanning them during
    # timed operations, a cost that comes from the benchmark, not the program.
    gc.collect()
    gc.freeze()
    if args.trace:
        # The traced pass comes first, so that it sees the same inputs in
        # every run of a seed and its counts repeat exactly.
        tracer, traced = traced_pass(w, spans)
        gc.collect()
    untraced = Tally()
    drive(w, api, untraced, lambda t: t.busy < args.seconds or len(t.durations) < min_ops)
    attempted = warm.attempted + untraced.attempted
    failed = warm.failed + untraced.failed
    wrong = warm.wrong + untraced.wrong

    if args.trace:
        from ldcs.kb import load_kb

        peak = load_growth_mib(load_kb, w.text)
        metrics, units = per_layer(w, tracer, traced, untraced, peak), dict(PER_LAYER)
        attempted += traced.attempted
        failed += traced.failed
        wrong += traced.wrong
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        metrics, units = end_to_end(w, untraced), dict(END_TO_END)
        raw = end_to_end(w, untraced, scaled=False)

    for problem in wrong[:10]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: {len(untraced.durations)} timed operations in "
          f"{untraced.rounds} rounds; op_tail_ms is p{w.TAIL}")
    for name, value in metrics.items():
        measured = f" (as measured: {raw[name]:.6g})" if not args.trace else ""
        print(f"  {name} = {value:.6g} {units[name]}{measured}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name}: exit {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        print(f"  attempted {results[name]['attempted']}, failed {results[name]['failed']}, "
              f"correct {results[name]['correct']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order follows string hashes, and the oracle stops
        # enumerating at the first witness it meets: with a random hash seed
        # per process, `check` alone moved by a quarter between processes.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload here (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
