"""The package boundary: what ships under src/rankfair and what it exports."""

import ast
import os
import pkgutil
import subprocess
import sys
import types

import rankfair
from rankfair.documents import dump_path, serialize_instance

import fixtures


def _src():
    return os.path.dirname(os.path.dirname(os.path.abspath(rankfair.__file__)))


def test_every_module_is_reached_from_the_package_and_cli():
    # a fresh interpreter, so modules imported by other tests do not count
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, rankfair, rankfair.cli; "
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('rankfair.'))))"],
        env=dict(os.environ, PYTHONPATH=_src()), capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    shipped = {"rankfair." + info.name for info in pkgutil.iter_modules(rankfair.__path__)}
    assert shipped - {"rankfair.__main__"} <= loaded


def test_the_module_entry_point_runs_the_cli(tmp_path):
    """``python -m rankfair`` reaches ``cli.console_main`` and exits with main's code."""
    doc = str(tmp_path / "instance.json")
    dump_path(serialize_instance(fixtures.two_group_matching_instance()), doc)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rankfair", *argv],
                              env=dict(os.environ, PYTHONPATH=_src()),
                              capture_output=True, text=True)

    usage = run()
    assert usage.returncode == 1 and usage.stderr.startswith("error: ")
    solved = run("solve", "--algorithm", "usw-ef1", "--input", doc, "--format", "machine")
    assert solved.returncode == 0 and solved.stderr == ""
    assert solved.stdout.startswith("{")


def test_every_exported_name_is_bound():
    assert [name for name in rankfair.__all__ if not hasattr(rankfair, name)] == []
    assert len(set(rankfair.__all__)) == len(rankfair.__all__)


def test_every_public_import_is_exported():
    public = {name for name, value in vars(rankfair).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(rankfair.__all__)


def test_intra_package_imports_sit_at_module_level():
    """A lazy import would hide an import cycle; this makes a cycle fail loudly."""
    package = os.path.dirname(os.path.abspath(rankfair.__file__))
    nested = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                intra = node.level > 0 or (node.module or "").split(".")[0] == "rankfair"
            elif isinstance(node, ast.Import):
                intra = any(alias.name.split(".")[0] == "rankfair" for alias in node.names)
            else:
                continue
            if intra and id(node) not in top:
                nested.append("%s:%d" % (name, node.lineno))
    assert nested == []
