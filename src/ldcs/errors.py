"""Exception hierarchy shared by all ldcs modules."""

from __future__ import annotations


class LdcsError(Exception):
    """Base class for every error this package raises deliberately."""


# --- knowledge-base file errors ---------------------------------------------

class KbFormatError(LdcsError):
    """A line of a triple file could not be used. Carries its line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MalformedLine(KbFormatError):
    """The line does not have exactly three tab-separated fields."""


class BadSubject(KbFormatError):
    """The subject field cannot name an entity (e.g. it is a number)."""


class BadObject(KbFormatError):
    """The object field is neither an identifier nor an integer literal."""


# --- expression syntax errors -----------------------------------------------

class ParseError(LdcsError):
    """Malformed expression text. `position` is a character offset."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"at {position}: expected {expected}")
        self.position = position
        self.expected = expected


class UnbalancedDelimiter(ParseError):
    """A parenthesis or bracket was left unclosed (or closed twice)."""


# --- name-resolution errors --------------------------------------------------

class ResolveError(LdcsError):
    """An identifier could not be classified against the scope or KB."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


class UnknownProperty(ResolveError):
    def __init__(self, name: str):
        super().__init__(name, f"unknown property: {name}")


class ShadowedVariable(ResolveError):
    def __init__(self, name: str):
        super().__init__(name, f"variable shadows an enclosing binder: {name}")


class VariableInBinaryPosition(ResolveError):
    def __init__(self, name: str):
        super().__init__(name, f"bound variable used as a binary form: {name}")


# --- evaluation errors --------------------------------------------------------

class EvalError(LdcsError):
    """An expression could not be evaluated against the knowledge base."""


class UnboundVariable(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class IllTyped(EvalError):
    """A lambda-calculus term mixes denotation kinds illegally."""

    def __init__(self, description: str):
        super().__init__(description)
        self.description = description


# --- query compilation errors --------------------------------------------------

class UnsupportedConstruct(LdcsError):
    """The form uses a construct outside the compilable subset."""

    def __init__(self, construct: str):
        super().__init__(f"cannot compile: {construct}")
        self.construct = construct
