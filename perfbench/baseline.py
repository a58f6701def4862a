"""Rebuilds the baseline table of ROADMAP.md: medians of single operations.

    python3 perfbench/baseline.py [--seed N]

Run it from the root of the repository. The KB has 5 triples per entity
(`Type`, `Area` and 3 x `Link`), drawn by `gen.synthetic_kb` from the seed.
It times `load_kb` on the KB text, and `eval_unary` on the resolved forms
`Link.Type.City` and `argmax(Type.City, Area)`, at 1k, 10k and 100k
triples; then `(mu x . !Link.x)` at 500 to 4k entities. Every answer is
checked against the reference evaluator. The output is a Markdown table.
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

import gen
import ref

LINKS = ("Link", "Link", "Link")
QUERIES = (
    ("`Link.Type.City`", ("join", ("prop", "Link"), ("join", ("prop", "Type"), ("ent", "City")))),
    ("`argmax(Type.City, Area)`",
     ("argmax", ("join", ("prop", "Type"), ("ent", "City")), ("prop", "Area"))),
)
PROBE = ("mu", "x", ("not", ("join", ("prop", "Link"), ("var", "x"))))


def median_time(fn, repeats: int):
    times = []
    for _ in range(repeats):
        gc.collect()
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), result


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not Path("src/ldcs/__init__.py").is_file():
        print("error: run from the root of the ldcs repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    from ldcs import eval_unary, load_kb, parse_unary, resolve

    def timed_query(kb, form, repeats):
        u = resolve(parse_unary(gen.text(form)), kb, strict=True)
        return median_time(lambda: eval_unary(u, kb), repeats)

    rows = {"`load_kb`": [], **{label: [] for label, _ in QUERIES}}
    sizes = (1_000, 10_000, 100_000)
    for n_triples in sizes:
        _, triples = gen.synthetic_kb(random.Random(args.seed), n_triples // 5, LINKS)
        text = gen.kb_text(triples)
        reference = ref.RefKB(triples)
        load_s, kb = median_time(lambda: load_kb(text), 3 if n_triples >= 100_000 else 7)
        rows["`load_kb`"].append(ms(load_s))
        for label, form in QUERIES:
            seconds, result = timed_query(kb, form, 11)
            if ref.plain(result) != reference.unary(form):
                raise SystemExit(f"wrong answer to {label} at {n_triples} triples")
            rows[label].append(ms(seconds))
        del kb
    print("| measure | " + " | ".join(f"{n // 1000}k triples" for n in sizes) + " |")
    print("| --- |" + " --- |" * len(sizes))
    for label, cells in rows.items():
        print(f"| {label} | " + " | ".join(cells) + " |")

    print()
    print("| `(mu x . !Link.x)` | " + " | ".join(f"{n} entities" for n in (500, 1000, 2000, 4000)) + " |")
    print("| --- |" + " --- |" * 4)
    cells = []
    for n_entities in (500, 1000, 2000, 4000):
        _, triples = gen.synthetic_kb(random.Random(args.seed), n_entities, LINKS)
        kb = load_kb(gen.kb_text(triples))
        seconds, result = timed_query(kb, PROBE, 3 if n_entities >= 4000 else 5)
        if ref.plain(result) != ref.RefKB(triples).unary(PROBE):
            raise SystemExit(f"wrong answer to the probe at {n_entities} entities")
        cells.append(ms(seconds))
    print("| eval | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
