"""What importing and running the command line loads.

A cold call is mostly start-up, so `import higgsmult.cli` loads no other
package module than `errors`, and each subcommand loads only the modules
it uses.  Each check runs in a fresh `python -S` process, so no site hook
has loaded anything beforehand.
"""
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# prints the modules loaded by `import higgsmult.cli`, then those that
# cli.run(argv) added, then those loaded once every package module is
PROBE = """
import contextlib, io, json, sys
import higgsmult.cli as cli
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(json.loads(sys.argv[1])) == 0
ran = set(sys.modules)
import higgsmult.chain, higgsmult.hecke, higgsmult.multgl, higgsmult.multsimple
import higgsmult.polyalg, higgsmult.rootsys
print(json.dumps([sorted(imported), sorted(ran - imported), sorted(sys.modules)]))
"""

HEAVY = {"dataclasses", "typing", "pathlib", "inspect"}


def _probe(argv):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(names) for names in json.loads(proc.stdout)]


def _package(names):
    return {name for name in names if name.startswith("higgsmult.")}


@pytest.fixture(scope="module")
def rootinfo():
    return _probe(["rootinfo", "--type", "B", "--rank", "3"])


def test_importing_the_cli_loads_only_errors(rootinfo):
    imported = rootinfo[0]
    assert not HEAVY & imported
    assert _package(imported) == {"higgsmult.cli", "higgsmult.errors"}


CHAIN = {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": [{"p": 1, "q": 1}]}

# each subcommand's call, and the package modules it adds to the cli
ADDED = {
    "rootinfo": (["rootinfo", "--type", "B", "--rank", "3"], {"rootsys"}),
    "mult-gl": (
        ["mult", "gl", "--type", "n", "--g", "2", "--n", "3"],
        {"chain", "multgl", "polyalg"},
    ),
    "pair": (
        ["pair", "--g", "2", "--n", "2", "--order", "5", "--a", "n", "--b", "1"],
        {"chain", "multgl", "polyalg"},
    ),
    "mult-simple": (
        ["mult", "simple", "--type", "C", "--rank", "2", "--m", "0,1"],
        {"multsimple", "polyalg", "rootsys"},
    ),
    "scan": (
        ["scan", "--type", "G", "--rank", "2", "--bound", "1"],
        {"multsimple", "polyalg", "rootsys"},
    ),
    "classify": (["classify", "--chain-file", "@chain"], {"chain"}),
    "hecke": (["hecke", "--chain-file", "@chain", "--move", "remove:1:p"], {"chain", "hecke"}),
    "count": (["count", "--chain-file", "@chain"], {"chain", "hecke"}),
}


@pytest.mark.parametrize("name", sorted(ADDED))
def test_a_call_adds_only_its_modules(name, tmp_path):
    argv, modules = ADDED[name]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN))
    added = _probe([str(path) if arg == "@chain" else arg for arg in argv])[1]
    assert _package(added) == {f"higgsmult.{module}" for module in modules}


def test_no_package_module_imports_the_heavy_stdlib(rootinfo):
    everything = rootinfo[2]
    assert _package(everything) >= {"higgsmult.multsimple", "higgsmult.hecke"}
    assert not HEAVY & everything
