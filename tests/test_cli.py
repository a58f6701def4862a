"""Command-line behavior: output, exit codes, the repl loop."""

import io
import json
import os
import pathlib

import pytest

from ldcs import ParseError, UnboundVariable, parse_unary
from ldcs.cli import main
from ldcs.parser import MAX_DEPTH

KB = str(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "demo.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_prints_sorted_values(capsys):
    code, out, err = run(capsys, "eval", "-k", KB, "PlaceOfBirth.Seattle")
    assert code == 0
    assert out == "Alice\nCarol\n"


def test_eval_numbers_sort_after_entities(capsys):
    code, out, _ = run(capsys, "eval", "-k", KB, "Type.City | count(Type.City)")
    assert code == 0
    assert out == "Portland\nSeattle\n2\n"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "-k", KB, "count(Type.USState)", "--json")
    assert code == 0
    assert json.loads(out) == [3]
    code, out, _ = run(capsys, "eval", "-k", KB, "PlaceOfBirth.Seattle", "--json")
    assert json.loads(out) == ["Alice", "Carol"]


def test_eval_exit_codes(capsys, monkeypatch):
    code, _, err = run(capsys, "eval", "-k", KB, "Type.(")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "eval", "-k", KB, "Nope.Seattle")
    assert code == 1 and "unknown property" in err
    code, _, err = run(capsys, "eval", "-k", "/no/such/file.tsv", "Seattle")
    assert code == 1
    # No state has a number among its borders, so none has a degree.
    code, out, err = run(capsys, "eval", "-k", KB, "argmax(Type.USState, Border)", "--json")
    assert (code, out, err) == (0, "[]\n", "")
    # No parsed form raises an evaluation error; a tree built through the
    # API can, and the handler keeps its exit code.
    def unbound(u, kb):
        raise UnboundVariable("y")

    monkeypatch.setattr("ldcs.cli.eval_unary", unbound)
    code, _, err = run(capsys, "eval", "-k", KB, "Seattle")
    assert (code, err) == (2, "error: unbound variable: y\n")


def test_lc_simplified_and_raw(capsys):
    code, out, _ = run(capsys, "lc", "PlaceOfBirth.Seattle")
    assert code == 0
    assert out == "lambda x . PlaceOfBirth(x,Seattle)\n"
    code, raw_out, _ = run(capsys, "lc", "PlaceOfBirth.Seattle", "--raw")
    assert code == 0
    assert raw_out == "lambda x . exists y . PlaceOfBirth(x,y) & [y = Seattle]\n"


def test_lc_needs_no_kb(capsys):
    code, out, _ = run(capsys, "lc", "UnheardOf.Thing")
    assert code == 0
    assert out == "lambda x . UnheardOf(x,Thing)\n"


def test_sparql_command(capsys):
    code, out, _ = run(capsys, "sparql", "PlaceOfBirth.Seattle")
    assert code == 0
    assert out.startswith("SELECT DISTINCT ?x WHERE {")
    assert out.endswith("}\n")
    code, out, _ = run(capsys, "sparql", "PlaceOfBirth.Seattle",
                       "--prefix", "http://example.org/")
    assert "<http://example.org/PlaceOfBirth>" in out


def test_sparql_refuses_a_prefix_that_would_inject_text(capsys):
    code, out, err = run(capsys, "sparql", "Type.City",
                         "--prefix", "http://x/> } . ?s ?p ?o { <")
    assert code == 1 and out == ""
    assert err == "error: an IRI prefix cannot hold '>'\n"


@pytest.mark.parametrize("op", ["&", "|"])
def test_sparql_on_a_long_flat_chain(capsys, op):
    code, out, err = run(capsys, "sparql", f" {op} ".join(["Type.City"] * 5000))
    assert code == 0 and err == ""
    assert out.count("?x :Type :City .") == 5000


def test_sparql_unsupported_exit_code(capsys):
    code, _, err = run(capsys, "sparql", "(mu x . Children.Influenced.x)")
    assert code == 3 and "cannot compile" in err


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "-k", KB, "--trials", "30", "--seed", "5")
    assert code == 0
    assert out.strip() == "trials=30 mismatches=0"


def test_check_zero_trials_needs_no_kb(capsys):
    code, out, _ = run(capsys, "check", "--trials", "0")
    assert code == 0
    assert out.strip() == "trials=0 mismatches=0"


@pytest.mark.parametrize("kb_args", [(), ("-k", KB)])
def test_check_refuses_negative_trials(capsys, kb_args):
    code, out, err = run(capsys, "check", *kb_args, "--trials", "-1")
    assert code == 1 and out == ""
    assert err == "error: --trials must be at least 0\n"


def test_check_without_kb_fails(capsys):
    code, _, err = run(capsys, "check", "--trials", "5")
    assert code == 1 and "needs a KB" in err


def test_check_refuses_an_empty_kb(capsys, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    for path in (os.devnull, str(empty)):
        code, out, err = run(capsys, "check", "-k", path, "--trials", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("depth", [-1, MAX_DEPTH + 1, 3000])
def test_check_refuses_a_depth_outside_the_nesting_limit(capsys, depth):
    code, out, err = run(capsys, "check", "-k", KB, "--trials", "3", "--depth", str(depth))
    assert code == 1 and out == ""
    assert err == f"error: --depth must be between 0 and {MAX_DEPTH}\n"


def test_check_accepts_depth_zero(capsys):
    code, out, _ = run(capsys, "check", "-k", KB, "--trials", "5", "--depth", "0")
    assert code == 0 and out.strip() == "trials=5 mismatches=0"


_NOT_UTF8 = b"Alice\tType\tPerson\n\xff\n"


def test_eval_on_a_kb_that_is_not_utf8_names_the_line(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(_NOT_UTF8)
    code, out, err = run(capsys, "eval", "-k", str(bad), "Alice")
    assert code == 1 and out == ""
    assert err == "error: line 2: not valid UTF-8 (byte 0xff)\n"


def _run_repl(monkeypatch, capsys, lines, *argv):
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["repl", *argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repl_eval_and_quit(monkeypatch, capsys):
    code, out, err = _run_repl(
        monkeypatch, capsys,
        ["PlaceOfBirth.Seattle", ":quit"],
        "-k", KB,
    )
    assert code == 0
    assert out == "Alice\nCarol\n"
    assert err == ""


def test_repl_commands_and_recovery(monkeypatch, capsys):
    code, out, err = _run_repl(
        monkeypatch, capsys,
        [
            ":lc PlaceOfBirth.Seattle",
            "this ( is broken",
            ":sparql Type.City",
            ":unknown",
            "",
            "Type.City",
        ],
        "-k", KB,
    )
    assert code == 0
    assert "lambda x . PlaceOfBirth(x,Seattle)" in out
    assert "SELECT DISTINCT ?x WHERE {" in out
    assert out.endswith("Portland\nSeattle\n")
    assert "error:" in err and "unknown command" in err


def test_repl_load(monkeypatch, capsys, tmp_path):
    other = tmp_path / "mini.tsv"
    other.write_text("A\tP\tB\n", encoding="utf-8")
    code, out, err = _run_repl(
        monkeypatch, capsys,
        ["P.B", f":load {other}", "P.B"],
    )
    assert code == 0
    assert "no KB loaded" in err
    assert "loaded 1 triples" in out
    assert out.endswith("A\n")


def test_repl_survives_loading_a_kb_that_is_not_utf8(monkeypatch, capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(_NOT_UTF8)
    code, out, err = _run_repl(
        monkeypatch, capsys,
        [f":load {bad}", f":load {KB}", "PlaceOfBirth.Seattle"],
    )
    assert code == 0
    assert "error: line 2: not valid UTF-8" in err and "Traceback" not in err
    assert out.endswith("Alice\nCarol\n")


# --- deep nesting -------------------------------------------------------------

def _nested(kind, n):
    """A form whose `kind` construct is nested n levels deep."""
    if kind == "!":
        return "!" * n + "Seattle"
    if kind == "(":
        return "(" * n + "Seattle" + ")" * n
    if kind == "mu":
        return "".join(f"(mu x{i} . " for i in range(n)) + "Seattle" + ")" * n
    if kind == "join":
        return "Type." * n + "City"
    if kind == "R[":
        # The join itself is the first level.
        return "R[" * (n - 1) + "Type" + "]" * (n - 1) + ".City"
    if kind == "count":
        return "count(" * n + "Seattle" + ")" * n
    assert kind == "argmax"
    return "argmax(" * n + "Seattle" + ", Area)" * n


def _command(cmd, text):
    return ["eval", "-k", KB, text] if cmd == "eval" else [cmd, text]


# Outside the SPARQL subset at any depth: a bare negation, mu, and count or
# a superlative below the root.
_NO_SPARQL = {"!", "mu", "count", "argmax"}


@pytest.mark.parametrize("cmd", ["eval", "lc", "sparql"])
@pytest.mark.parametrize("kind", ["!", "(", "mu", "join", "R[", "count", "argmax"])
def test_nesting_at_the_limit_is_accepted(capsys, cmd, kind):
    code, out, err = run(capsys, *_command(cmd, _nested(kind, MAX_DEPTH)))
    assert "Traceback" not in err
    if cmd == "sparql" and kind in _NO_SPARQL:
        assert code == 3 and "cannot compile" in err
    else:
        assert code == 0 and err == ""


@pytest.mark.parametrize("cmd", ["eval", "lc", "sparql"])
@pytest.mark.parametrize("kind", ["!", "(", "mu", "join", "R[", "count", "argmax"])
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
def test_nesting_past_the_limit_is_a_parse_error(capsys, cmd, kind, depth):
    code, out, err = run(capsys, *_command(cmd, _nested(kind, depth)))
    assert code == 1 and out == ""
    assert err.startswith("error: at ") and f"at most {MAX_DEPTH} levels" in err
    assert "Traceback" not in err


def _under(frames, fn):
    """fn() called with `frames` more Python frames on the stack."""
    return fn() if frames == 0 else _under(frames - 1, fn)


@pytest.mark.parametrize("kind", ["!", "(", "mu", "join", "R[", "count", "argmax"])
def test_lc_at_the_limit_leaves_room_on_the_stack(capsys, kind):
    # simplify is one pass and compares no terms, so the translation runs
    # with the caller's stack already deep.
    text = _nested(kind, MAX_DEPTH)
    code, out, err = _under(200, lambda: run(capsys, "lc", text))
    assert code == 0 and err == ""


def test_nesting_limit_points_at_the_first_level_too_many():
    with pytest.raises(ParseError) as exc:
        parse_unary("!" * (MAX_DEPTH + 5) + "Seattle")
    assert exc.value.position == MAX_DEPTH
    # Each level closes where its construct ends, and & and | open none, so
    # a long flat form of shallow parts stays within the limit.
    part = "!Type.(Seattle) & count(R[Type].City) | argmax((mu x . x), (lam y . y))"
    assert parse_unary(" | ".join([part] * MAX_DEPTH))
