"""Arbitrary input to the parsers and the loader ends in a result or an LdcsError."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from ldcs import LdcsError, ParseError, load_kb, load_kb_file, parse_lc, parse_unary, resolve


def _soup(tokens):
    """Text made of the grammar's own tokens, with and without spaces."""
    return st.lists(st.sampled_from(tokens), max_size=40).flatmap(
        lambda parts: st.sampled_from(["", " "]).map(lambda sep: sep.join(parts))
    )


_FORM_TOKENS = [
    "Seattle", "Type", "x", "y", "R", "mu", "lam", "count", "argmax", "argmin",
    "lambda", "exists", "in", "0", "42", "-7", "99999999999999999999", "a:b",
    ".", "&", "|", "!", "(", ")", "[", "]", ",", "-", ":", "@", "é", "\t", "\n ",
]
_LC_TOKENS = [
    "lambda", "exists", "count", "argmax", "argmin", "in", "x", "y", "P", "Seattle",
    "3", "-1", "99999999999999999999",
    ".", "&", "||", "|", "!", "=", "(", ")", "[", "]", ",", "-", "@", "é", "\t", "\n ",
]
_KB_TOKENS = [
    "Alice", "Type", "City", "a.b", "mu", "count", "7", "-3", "9lives",
    "99999999999999999999", "#", "\t", "\n", " ", "", ":x",
]

_SETTINGS = settings(max_examples=100, deadline=None)


def _form(text):
    try:
        resolve(parse_unary(text))
    except LdcsError:
        pass


def _term(text):
    try:
        parse_lc(text)
    except LdcsError:
        pass


def _kb(text):
    try:
        load_kb(text)
    except LdcsError:
        pass


@_SETTINGS
@given(st.one_of(st.text(max_size=60), _soup(_FORM_TOKENS)))
def test_form_text_parses_or_raises_ldcs_error(text):
    _form(text)


@_SETTINGS
@given(st.one_of(st.text(max_size=60), _soup(_LC_TOKENS)))
def test_lambda_term_text_parses_or_raises_ldcs_error(text):
    _term(text)


def _points_at_a_token_or_the_end(parse, text):
    try:
        parse(text)
    except ParseError as exc:
        assert exc.position == len(text) or not text[exc.position].isspace()
    except LdcsError:
        pass


@_SETTINGS
@given(st.one_of(st.text(max_size=60), _soup(_FORM_TOKENS)))
def test_form_parse_errors_point_at_a_token_or_the_end(text):
    _points_at_a_token_or_the_end(parse_unary, text)


@_SETTINGS
@given(st.one_of(st.text(max_size=60), _soup(_LC_TOKENS)))
def test_lambda_term_parse_errors_point_at_a_token_or_the_end(text):
    _points_at_a_token_or_the_end(parse_lc, text)


@_SETTINGS
@given(st.one_of(st.text(max_size=80), _soup(_KB_TOKENS)))
def test_kb_text_loads_or_raises_ldcs_error(text):
    _kb(text)


_KB_BYTES = [token.encode() for token in _KB_TOKENS] + [
    b"\r", b"\r\n", b"\xff", b"\xc3", b"\xc3\xa9", b"\xe2\x82", b"\x80", b"\xed\xa0\x80",
]


@_SETTINGS
@given(st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from(_KB_BYTES), max_size=40).map(b"".join),
))
def test_kb_file_bytes_load_or_raise_ldcs_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kb.tsv")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            load_kb_file(path)
        except LdcsError:
            pass
