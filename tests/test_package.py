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
