"""Executable lambda DCS: parse, evaluate, translate, verify, compile.

The pieces fit together like this: `parse_unary` reads the concrete
syntax into a typed tree, classifying each name by where it stands, and
`resolve` checks its properties against a KB; `eval_unary` gives its set
denotation over a KB; `to_lc_unary` + `simplify` translate it into an
explicit lambda term; `lc_eval` evaluates that term by brute force so the
two semantics can be checked against each other; `compile_sparql` renders
the database-friendly subset as a query.
"""

from types import ModuleType as _ModuleType

from .core import (
    Aggregate,
    EntityLit,
    Entity,
    Env,
    EMPTY_ENV,
    Intersect,
    Join,
    Lambda,
    Mu,
    Negate,
    Number,
    Property,
    Reverse,
    Superlative,
    Union,
    Var,
    free_vars,
    render_value,
    value_sort_key,
)
from .convert import fresh_var, simplify, to_lc_binary, to_lc_unary
from .errors import (
    BadObject,
    BadSubject,
    EvalError,
    IllTyped,
    KbFormatError,
    LdcsError,
    MalformedLine,
    NonNumericDegree,
    ParseError,
    ResolveError,
    ShadowedVariable,
    UnbalancedDelimiter,
    UnboundVariable,
    UnknownProperty,
    UnsupportedConstruct,
    VariableInBinaryPosition,
)
from .evaluator import degree_of, eval_binary, eval_unary
from .kb import KnowledgeBase, Triple, dump_kb, from_triples, load_kb, load_kb_file
from .lc import alpha_eq, format_lc, parse_lc, well_formed
from .oracle import (
    EquivalenceReport,
    GenSchema,
    Mismatch,
    check_equivalence,
    gen_term,
    lc_eval,
)
from .parser import format_binary, format_unary, parse_unary, resolve
from .sparql import compile_sparql

__version__ = "0.1.0"

# The public names are the ones imported above, stated there once.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__all__.append("__version__")
