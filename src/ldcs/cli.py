"""Command-line front end.

    ldcs eval -k KB EXPR [--json]      evaluate against a KB
    ldcs lc EXPR [--raw]               show the lambda-calculus translation
    ldcs sparql EXPR [--prefix IRI]    compile to SPARQL
    ldcs check -k KB [options]         random agreement check
    ldcs repl [-k KB]                  interactive loop

Exit codes: 0 success, 1 bad input (syntax, resolution, KB loading, an
argument out of range), 2 evaluation error (no form that parses raises
one), 3 construct outside the SPARQL subset.

Each command imports the modules it runs, in its own function: a cold
`ldcs eval` loads neither the translation (`convert`, `lc`), the oracle
nor the SPARQL compiler.
"""

from __future__ import annotations

import argparse
import sys

from .core import Number, render_value, value_sort_key
from .errors import EvalError, KbFormatError, LdcsError, ParseError, ResolveError, UnsupportedConstruct
from .evaluator import eval_unary
from .kb import load_kb_file
from .parser import parse_unary, resolve

_BAD_INPUT = 1
_EVAL_ERROR = 2
_UNSUPPORTED = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ResolveError, KbFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _BAD_INPUT
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EVAL_ERROR
    except UnsupportedConstruct as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _UNSUPPORTED


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ldcs", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression against a KB")
    p_eval.add_argument("-k", "--kb", required=True, help="path to a TSV triple file")
    p_eval.add_argument("expr")
    p_eval.add_argument("--json", action="store_true", help="print a JSON array")
    p_eval.set_defaults(func=_cmd_eval)

    p_lc = sub.add_parser("lc", help="translate an expression to a lambda term")
    p_lc.add_argument("expr")
    p_lc.add_argument("--raw", action="store_true", help="skip simplification")
    p_lc.set_defaults(func=_cmd_lc)

    p_sparql = sub.add_parser("sparql", help="compile an expression to SPARQL")
    p_sparql.add_argument("expr")
    p_sparql.add_argument("--prefix", default=None, help="IRI prefix for names")
    p_sparql.set_defaults(func=_cmd_sparql)

    p_check = sub.add_parser("check", help="random agreement check of both semantics")
    p_check.add_argument("-k", "--kb", help="path to a TSV triple file")
    p_check.add_argument("--trials", type=int, default=100, help="forms to check (default 100)")
    p_check.add_argument(
        "--depth", type=int, default=4,
        help="nesting depth of the forms, 0 to 100 (default 4); the cost grows "
        "exponentially with it: 20 trials on the fixture KB took 0.005 s at "
        "depth 4, 0.05 s at 16, 1.4 s at 28 and 209 s at 32 on a 2-vCPU Xeon "
        "virtual machine",
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    p_repl = sub.add_parser("repl", help="interactive loop")
    p_repl.add_argument("-k", "--kb", help="path to a TSV triple file")
    p_repl.set_defaults(func=_cmd_repl)

    return top


def _sorted_values(values) -> list:
    return sorted(values, key=value_sort_key)


def _cmd_eval(args) -> int:
    kb = load_kb_file(args.kb)
    u = resolve(parse_unary(args.expr), kb, strict=True)
    values = _sorted_values(eval_unary(u, kb))
    if args.json:
        import json

        payload = [v.n if isinstance(v, Number) else v.entity_id for v in values]
        print(json.dumps(payload))
    else:
        for v in values:
            print(render_value(v))
    return 0


def _cmd_lc(args) -> int:
    from .convert import simplify, to_lc_unary
    from .lc import format_lc

    u = parse_unary(args.expr)
    term = to_lc_unary(u)
    if not args.raw:
        term = simplify(term)
    print(format_lc(term))
    return 0


def _cmd_sparql(args) -> int:
    from .sparql import compile_sparql

    u = parse_unary(args.expr)
    sys.stdout.write(compile_sparql(u, prefix=args.prefix))
    return 0


def _cmd_check(args) -> int:
    from .oracle import check_equivalence

    if args.trials < 0:
        raise ValueError("--trials must be at least 0")
    if args.trials == 0:
        print("trials=0 mismatches=0")
        return 0
    if not args.kb:
        print("error: --trials above zero needs a KB (-k)", file=sys.stderr)
        return _BAD_INPUT
    kb = load_kb_file(args.kb)
    report = check_equivalence(kb, args.trials, max_depth=args.depth, seed=args.seed)
    print(report.render())
    return 0 if report.ok else _EVAL_ERROR


def _cmd_repl(args) -> int:
    kb = load_kb_file(args.kb) if args.kb else None
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("ldcs> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        try:
            if line == ":quit":
                return 0
            if line.startswith(":load "):
                kb = load_kb_file(line[len(":load "):].strip())
                print(f"loaded {len(kb)} triples")
            elif line.startswith(":lc "):
                from .convert import simplify, to_lc_unary
                from .lc import format_lc

                u = parse_unary(line[len(":lc "):])
                print(format_lc(simplify(to_lc_unary(u))))
            elif line.startswith(":sparql "):
                from .sparql import compile_sparql

                u = parse_unary(line[len(":sparql "):])
                sys.stdout.write(compile_sparql(u))
            elif line.startswith(":"):
                print(f"error: unknown command {line.split()[0]}", file=sys.stderr)
            else:
                if kb is None:
                    print("error: no KB loaded (use :load PATH)", file=sys.stderr)
                    continue
                u = resolve(parse_unary(line), kb, strict=True)
                for v in _sorted_values(eval_unary(u, kb)):
                    print(render_value(v))
        except (LdcsError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
