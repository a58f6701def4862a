"""The lazy package: what `import ldcs` and each command load, and that every
public name still reaches its object."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ldcs
from test_core import PUBLIC_NAMES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fresh(code: str):
    """Run `code` in a new interpreter and return the JSON of its last line."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src") + (os.pathsep + path if path else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'ldcs')))"


def test_eval_loads_only_what_it_runs():
    loaded = _fresh(
        "import json, sys, ldcs.cli\n"
        "code = ldcs.cli.main(['eval', '-k', 'fixtures/demo.tsv', '--json', 'Type.City'])\n"
        "assert code == 0\n" + _LOADED
    )
    assert loaded == [
        "ldcs", "ldcs.cli", "ldcs.core", "ldcs.errors", "ldcs.evaluator", "ldcs.kb",
        "ldcs.parser",
    ]


def _newly_loaded(argv, names) -> list:
    """Which of `names` running the command `argv` loads in a new interpreter.
    Modules the interpreter loaded at start-up are not the command's doing."""
    return _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ldcs.cli\n"
        f"assert ldcs.cli.main({argv!r}) == 0\n"
        f"loaded = sorted({set(names)!r} & (set(sys.modules) - before))\n"
        "import json\n"
        "print(json.dumps(loaded))"
    )


@pytest.mark.parametrize("argv", [
    ["eval", "-k", "fixtures/demo.tsv", "Type.City"],
    ["eval", "-k", "fixtures/demo.tsv", "--json", "Type.City"],
    ["lc", "argmax(Type.City, Area)"],
    ["sparql", "count(Type.City)"],
    ["check", "-k", "fixtures/demo.tsv", "--trials", "5"],
], ids=["eval", "eval-json", "lc", "sparql", "check"])
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # `dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`:
    # milliseconds of every cold launch.
    assert _newly_loaded(argv, {"dataclasses", "inspect"}) == []


def test_eval_loads_json_only_to_print_json():
    argv = ["eval", "-k", "fixtures/demo.tsv", "Type.City"]
    assert _newly_loaded(argv, {"json"}) == []
    assert _newly_loaded(argv[:-1] + ["--json", "Type.City"], {"json"}) == ["json"]


def test_bare_import_loads_no_submodule():
    # The table of public names is plain data: it needs no submodule.
    assert _fresh("import json, sys, ldcs\n" + _LOADED) == ["ldcs"]


def test_submodules_import_as_before():
    loaded = _fresh(
        "import json, sys\n"
        "from ldcs import core\n"
        "import ldcs.lc\n"
        "from ldcs import eval_unary, load_kb, parse_unary, resolve\n"
        "assert core is sys.modules['ldcs.core'] and ldcs.lc is sys.modules['ldcs.lc']\n"
        "assert core.Entity is ldcs.Entity\n" + _LOADED
    )
    assert "ldcs.oracle" not in loaded and "ldcs.sparql" not in loaded


def test_star_import_binds_every_public_name():
    names: dict = {}
    exec("from ldcs import *", names)
    assert PUBLIC_NAMES <= set(names)


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES - {"__version__"}))
def test_each_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"ldcs.{ldcs._HOME[name]}")
    assert getattr(ldcs, name) is getattr(home, name)
    assert getattr(home, name).__module__ == home.__name__
    assert name in vars(ldcs)


def test_dir_lists_every_public_name():
    listed = dir(ldcs)
    assert "__all__" in listed and set(ldcs.__all__) <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        ldcs.nope  # noqa: B018
    assert not hasattr(ldcs, "nope")
