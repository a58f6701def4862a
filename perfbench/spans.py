"""Spans around the calls into each `ldcs` module, kept in memory.

A span is [name, start, end, parent], parent being the index of the span
that was open when it began, or -1. The benchmark opens one root span per
operation, so the spans of one operation share that root. Functions are
traced by wrapping them: the benchmark's own calls go through `api`, and
the few calls the program makes from one public function into another
(`load_kb` into `from_triples`, `check_equivalence` into the generator,
the evaluator, the translation and the oracle) by replacing the module
attribute the caller looks up for the length of the traced pass.
Recursive calls inside a module are not traced.
"""

from __future__ import annotations

import json
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# The program's public functions the benchmark calls, as (module, name).
API = (
    ("kb", "load_kb"),
    ("parser", "parse_unary"),
    ("parser", "resolve"),
    ("parser", "format_unary"),
    ("evaluator", "eval_unary"),
    ("convert", "to_lc_unary"),
    ("convert", "simplify"),
    ("lc", "format_lc"),
    ("lc", "parse_lc"),
    ("lc", "alpha_eq"),
    ("oracle", "check_equivalence"),
    ("sparql", "compile_sparql"),
)

# Calls between public functions inside the program, as (calling module,
# name it calls): these are traced by replacing that module's attribute.
INNER = (
    ("kb", "from_triples"),
    ("oracle", "gen_term"),
    ("oracle", "eval_unary"),
    ("oracle", "to_lc_unary"),
    ("oracle", "simplify"),
    ("oracle", "lc_eval"),
)


def _module(name):
    return __import__(f"ldcs.{name}", fromlist=[name])


def plain_api():
    """The untraced functions, looked up once."""
    return types.SimpleNamespace(
        **{name: getattr(_module(mod), name) for mod, name in API}
    )


def lc_nodes(t) -> int:
    """Number of lambda-calculus nodes in a term."""
    from ldcs.lc import LCTerm

    n = 1
    for value in vars(t).values():
        if isinstance(value, LCTerm):
            n += lc_nodes(value)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._last_simplified = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[1] = start
        span[2] = end

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, start, perf_counter())

    def wrap(self, fn, name=None, after=None):
        """fn with a span around each call; `name` may be a function of the args."""
        name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            index = self._open(name(args) if callable(name) else name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, perf_counter())
            if after is not None:
                after(args, result)
            return result

        return traced

    def api(self):
        """The functions of `plain_api`, each wrapped in a span."""
        plain = plain_api()
        wrapped = {name: self.wrap(getattr(plain, name)) for name in vars(plain)}
        wrapped["simplify"] = self.wrap(plain.simplify, after=self._simplified)
        return types.SimpleNamespace(**wrapped)

    def _simplified(self, args, result) -> None:
        self.counts["convert.raw_nodes"] += lc_nodes(args[0])
        self.counts["convert.simplified_nodes"] += lc_nodes(result)
        self._last_simplified = result

    def _lc_eval_name(self, args) -> str:
        stage = "simplified" if args[0] is self._last_simplified else "raw"
        return f"oracle.lc_eval_{stage}"

    def patch_inner(self) -> None:
        for mod, name in INNER:
            module = _module(mod)
            fn = getattr(module, name)
            if name == "simplify":
                traced = self.wrap(fn, after=self._simplified)
            elif name == "lc_eval":
                traced = self.wrap(fn, name=self._lc_eval_name)
            else:
                traced = self.wrap(fn)
            self._patched.append((module, name, fn))
            setattr(module, name, traced)

    def restore(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    # -- reading the spans ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each span name, minus time in its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def durations_by_parent(self, name: str) -> dict[str, list[float]]:
        """Durations of the spans called `name`, keyed by their parent's name."""
        out: dict[str, list[float]] = defaultdict(list)
        for span, start, end, parent in self.spans:
            if span == name and parent >= 0:
                out[self.spans[parent][0]].append(end - start)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)
