"""Import-on-demand guards: `import genus_forge` loads only the error
classes, every exported name imports its module on first use, and a cold
`genus-forge` process loads only the modules its command runs.  One table
holds every command, `--help` and a usage error, and every row holds every
rule: its exact set of `genus_forge` modules; no CLI framework (click),
scipy or numpy, no `__future__`, and none of the stdlib that only
packaged-resource reading or type hints would need; `dataclasses` and the
`inspect` module it imports only with the q-series engine
(`genus_forge.elliptic`); and `cmath` only for `modular check`, whose
S-check sums series in floats.  Each cold process runs once: the named
rule tests, and `test_bounds.py`'s scipy and numpy check, read the cached
module set of a table row.  The test oracle imports from the package
only its data types and error classes.  Every relative import in the
package, function-local ones included, names a lower layer, so its module
graph has no cycle."""

import ast
import functools
import os
import site
import subprocess
import sys
from pathlib import Path

import pytest

import genus_forge
from genus_forge import cli, elliptic, errors

SRC = str(Path(genus_forge.__file__).resolve().parents[1])


@functools.cache
def cold_modules(argv=None) -> frozenset:
    """sys.modules once `main(argv)` has run, or once `genus_forge` is
    imported if `argv` is None, in a fresh interpreter without the site
    module, which may preload some of them.  The installed packages go on
    the path after the stdlib, so that an optional import of one shows.
    Cached: a rule test that names a row's argv reuses that row's child."""
    run = ("import genus_forge" if argv is None
           else "from genus_forge.cli import main\nmain(sys.argv[1:])")
    probe = f"import sys\nsys.path += {site.getsitepackages()!r}\n{run}\nprint(*sys.modules)"
    child = subprocess.run([sys.executable, "-S", "-c", probe, *(argv or ())], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert child.returncode == 0, child.stderr
    return frozenset(child.stdout.splitlines()[-1].split())


BASE = {"genus_forge", "genus_forge.cli", "genus_forge.errors"}
CATALOG = BASE | {"genus_forge.catalog", "genus_forge.manifolds"}
ELLIPTIC = CATALOG | {"genus_forge.genera", "genus_forge.qseries", "genus_forge.elliptic"}
# importlib.resources pulls in pathlib, typing, zipfile and tempfile
UNUSED_STDLIB = ("importlib.resources", "pathlib", "typing", "zipfile", "tempfile")
NEVER = ("click", "scipy", "numpy", "__future__", *UNUSED_STDLIB)
# elliptic.GenusSeries is still a dataclass
DATACLASSES = {"dataclasses", "inspect"}

# the rows that the rule tests also name, here and in test_bounds.py
BOUND_CB = ("bound", "cb", "--m", "2", "--b", "1.0")
CATALOG_LIST = ("catalog", "list")
COMPUTE_TODD = ("compute", "--manifold", "CP3", "--genus", "todd")
INDICES = ("indices", "--manifold", "K3", "--family", "B", "--max", "3")
MODULAR_CHECK = ("modular", "check", "--manifold", "HP2", "--tau-im", "2.0")
ELLIPTIC_ELL1 = ("elliptic", "--manifold", "K3", "--kind", "ell1", "--order", "4")
MODULAR_FIT = ("modular", "fit", "--manifold", "K3xK3", "--order", "24")

ROWS = [
    (("--help",), BASE),
    (("compute", "--manifold", "K3"), BASE),  # usage error, exit 1
    (("cover", "tower", "--k", "3", "--depth", "3"), BASE | {"genus_forge.covering"}),
    (("cover", "l2", "--k", "2", "--p", "1", "--depth", "3"), BASE | {"genus_forge.covering"}),
    (BOUND_CB, BASE | {"genus_forge.bounds"}),
    (CATALOG_LIST, CATALOG),
    (COMPUTE_TODD, CATALOG | {"genus_forge.genera"}),
    (INDICES, ELLIPTIC),
    (MODULAR_CHECK, ELLIPTIC | {"genus_forge.modular"}),
    (("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
     BASE | {"genus_forge.bounds"}),
    (("catalog", "show", "K3"), CATALOG),
    (ELLIPTIC_ELL1, ELLIPTIC),
    (MODULAR_FIT, ELLIPTIC | {"genus_forge.modular"}),
    (("cover", "diam", "--k", "2", "--base", "3,3", "--factor", "2"),
     BASE | {"genus_forge.covering"}),
]


@pytest.mark.parametrize("argv, expected", ROWS)
def test_command_loads_only_its_modules(argv, expected):
    loaded = cold_modules(argv)
    # the class-polynomial ring serves tests only, so genus_forge.charpoly is never here
    assert {m for m in loaded if m.split(".")[0] == "genus_forge"} == expected
    assert [m for m in NEVER if m in loaded] == []
    assert DATACLASSES & loaded == (DATACLASSES if "genus_forge.elliptic" in loaded else set())
    # the exact q-series commands, the Eisenstein fit among them, sum no series in floats
    assert ("cmath" in loaded) == (argv[:2] == ("modular", "check"))


@pytest.mark.parametrize("argv", [CATALOG_LIST, COMPUTE_TODD])
def test_catalog_commands_skip_unused_stdlib(argv):
    # -S: a site .pth file may import these before genus_forge runs
    loaded = cold_modules(argv)
    assert [m for m in UNUSED_STDLIB if m in loaded] == []


@pytest.mark.parametrize("argv, loads_cmath", [
    (ELLIPTIC_ELL1, False), (INDICES, False), (MODULAR_CHECK, True), (MODULAR_FIT, False),
])
def test_only_the_s_check_loads_cmath(argv, loads_cmath):
    assert ("cmath" in cold_modules(argv)) is loads_cmath


def test_table_covers_every_command():
    covered = {path for path in cli.COMMANDS for argv, _ in ROWS if argv[:len(path)] == path}
    assert covered == set(cli.COMMANDS)


# the package's layers, lowest first; `__init__` sits above them all
LAYERS = ("errors", "charpoly", "qseries", "bounds", "covering", "manifolds", "catalog",
          "genera", "elliptic", "modular", "cli")


def test_modules_import_only_lower_layers():
    # every relative import, function-local ones included, names a lower
    # layer, so the module graph has no cycle and no lazy import hides one
    package = Path(genus_forge.__file__).parent
    modules = {path.stem: path for path in package.glob("*.py")}
    assert set(modules) == {*LAYERS, "__init__"}  # a new module takes its place here
    rank = {name: i for i, name in enumerate((*LAYERS, "__init__"))}
    upward = []
    for name, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [(name, t) for t in targets if rank[t.split(".")[0]] >= rank[name]]
    assert upward == []


def test_package_import_loads_only_errors():
    loaded = cold_modules()
    assert {m for m in loaded if m.split(".")[0] == "genus_forge"} == {"genus_forge",
                                                                       "genus_forge.errors"}
    assert [m for m in (*NEVER, *DATACLASSES, "cmath") if m in loaded] == []


def test_exported_names_resolve_to_their_modules():
    for name in genus_forge.__all__:
        value = getattr(genus_forge, name)
        module = genus_forge._LAZY.get(name)
        if module is not None:
            assert value is getattr(sys.modules[f"genus_forge.{module}"], name)
            assert name in vars(genus_forge)  # cached: later reads are plain attributes
    assert set(genus_forge.__all__) <= set(dir(genus_forge))
    with pytest.raises(AttributeError, match="no_such_name"):
        genus_forge.no_such_name  # noqa: B018


def test_cli_choices_are_the_library_names():
    # one spelling: the options offer the very tuples the library checks against
    types = {opt.flag: opt.type for _, options in cli.COMMANDS.values() for opt in options}
    assert types["--genus"] is errors.GENERA
    assert types["--kind"] is errors.ELLIPTIC
    assert types["--family"] is errors.FAMILIES
    assert tuple(elliptic._FAMILIES) == errors.FAMILIES


def test_cli_default_order_is_the_library_truncation():
    assert cli._trunc(cli.DEFAULT_ORDER) == elliptic.DEFAULT_Q_TRUNC


def test_oracle_imports_only_data_types_and_errors():
    # the oracle's series and partitions are its own: a fault in the engine's
    # arithmetic cannot reach both routes
    tree = ast.parse((Path(__file__).parent / "theta_oracle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "genus_forge"]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "genus_forge":
            names |= {a.name for a in node.names}
    error_classes = {name for name, value in vars(errors).items()
                     if isinstance(value, type) and issubclass(value, Exception)}
    assert names - error_classes == {"ManifoldData", "Partition"}
