"""Executable lambda DCS: parse, evaluate, translate, verify, compile.

The pieces fit together like this: `parse_unary` reads the concrete
syntax into a typed tree, classifying each name by where it stands, and
`resolve` checks its properties against a KB; `eval_unary` gives its set
denotation over a KB; `to_lc_unary` + `simplify` translate it into an
explicit lambda term; `lc_eval` evaluates that term by brute force so the
two semantics can be checked against each other; `compile_sparql` renders
the database-friendly subset as a query.

The package loads its submodules lazily (PEP 562). `_EXPORTS` below names
each public name once, under the submodule that defines it; the first
access to a name, as `ldcs.name` or `from ldcs import name`, imports that
submodule and caches the value here. So `import ldcs` loads no submodule,
and a program that uses only the evaluator never loads the translation,
the oracle or the SPARQL compiler.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, once, under the submodule that defines it.
_EXPORTS = {
    "core": (
        "Aggregate", "Entity", "EntityLit", "Intersect", "Join", "Lambda",
        "Mu", "Negate", "Number", "Property", "Reverse", "Superlative",
        "Union", "Var", "free_vars", "render_value", "value_sort_key",
    ),
    "errors": (
        "BadObject", "BadSubject", "EvalError", "IllTyped", "KbFormatError",
        "LdcsError", "MalformedLine", "ParseError", "ResolveError",
        "ShadowedVariable", "UnbalancedDelimiter", "UnboundVariable",
        "UnknownProperty", "UnsupportedConstruct", "VariableInBinaryPosition",
    ),
    "kb": ("KnowledgeBase", "Triple", "dump_kb", "from_triples", "load_kb", "load_kb_file"),
    "parser": ("format_binary", "format_unary", "parse_unary", "resolve"),
    "evaluator": ("degree_of", "eval_binary", "eval_unary"),
    "lc": ("alpha_eq", "format_lc", "parse_lc", "well_formed"),
    "convert": ("fresh_var", "simplify", "to_lc_binary", "to_lc_unary"),
    "oracle": (
        "EquivalenceReport", "GenSchema", "Mismatch", "check_equivalence",
        "gen_term", "lc_eval",
    ),
    "sparql": ("compile_sparql",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
