"""Import-on-demand guards: `import genus_forge` loads only the error
classes, every exported name imports its module on first use, and a cold
`genus-forge` process loads only the modules its command runs, with no CLI
framework (click) among them and, outside the q-series commands, neither
`dataclasses` nor the `inspect` module it imports.  Without the site
module, which may preload them, the catalog commands load none of the
stdlib that only packaged-resource reading or type hints would need, no
command loads `__future__`, and of the q-series commands only `modular
check`, whose S-check sums series in floats, loads `cmath`.  The test
oracle imports from the package only its data types and error classes.
Every relative import in the package, function-local ones included, names
a lower layer, so its module graph has no cycle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genus_forge
from genus_forge import cli, elliptic, errors

SRC = str(Path(genus_forge.__file__).resolve().parents[1])


def _loaded_after(code: str, *args: str) -> set:
    """The genus_forge, scipy, numpy, click, dataclasses, inspect and
    __future__ modules in sys.modules once `code` has run, with `args` as
    sys.argv[1:], in a fresh interpreter without the site module, which may
    preload some of them."""
    probe = code + (
        "\nprint('MODULES', *sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('genus_forge', 'scipy', 'numpy', 'click', 'dataclasses', 'inspect', '__future__')))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe, *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    return set(out.strip().splitlines()[-1].split()[1:])


BASE = {"genus_forge", "genus_forge.cli", "genus_forge.errors"}
CATALOG = BASE | {"genus_forge.catalog", "genus_forge.manifolds"}
# elliptic.GenusSeries is still a dataclass
ELLIPTIC = CATALOG | {"genus_forge.genera", "genus_forge.qseries", "genus_forge.elliptic",
                      "dataclasses", "inspect"}


@pytest.mark.parametrize("argv, expected", [
    (("--help",), BASE),
    (("compute", "--manifold", "K3"), BASE),  # usage error, exit 1
    (("cover", "tower", "--k", "3", "--depth", "3"), BASE | {"genus_forge.covering"}),
    (("cover", "l2", "--k", "2", "--p", "1", "--depth", "3"), BASE | {"genus_forge.covering"}),
    (("bound", "cb", "--m", "2", "--b", "1.0"), BASE | {"genus_forge.bounds"}),
    (("catalog", "list"), CATALOG),
    (("compute", "--manifold", "CP3", "--genus", "todd"), CATALOG | {"genus_forge.genera"}),
    (("indices", "--manifold", "K3", "--family", "B", "--max", "3"), ELLIPTIC),
    (("modular", "check", "--manifold", "HP2", "--tau-im", "2.0"),
     ELLIPTIC | {"genus_forge.modular"}),
    (("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
     BASE | {"genus_forge.bounds"}),
    (("catalog", "show", "K3"), CATALOG),
])
def test_command_loads_only_its_modules(argv, expected):
    code = "import sys\nfrom genus_forge.cli import main\nmain(sys.argv[1:])"
    loaded = _loaded_after(code, *argv)
    assert loaded == expected
    assert "genus_forge.charpoly" not in loaded  # the class-polynomial ring serves tests only
    assert "click" not in loaded  # the command table is stdlib only
    assert "__future__" not in loaded  # the annotations need no future import


# importlib.resources pulls in pathlib, typing, zipfile and tempfile
UNUSED_STDLIB = ("importlib.resources", "pathlib", "typing", "zipfile", "tempfile")


@pytest.mark.parametrize("argv", [
    ("catalog", "list"),
    ("compute", "--manifold", "CP3", "--genus", "todd"),
])
def test_catalog_commands_skip_unused_stdlib(argv):
    # -S: a site .pth file may import these before genus_forge runs
    probe = ("import sys\nfrom genus_forge.cli import main\nmain(sys.argv[1:])\n"
             f"print('MODULES', *[m for m in {UNUSED_STDLIB!r} if m in sys.modules])")
    run = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "MODULES"


@pytest.mark.parametrize("argv, loads_cmath", [
    (("elliptic", "--manifold", "K3", "--kind", "ell1", "--order", "4"), False),
    (("indices", "--manifold", "K3", "--family", "B", "--max", "3"), False),
    (("modular", "check", "--manifold", "HP2", "--tau-im", "2.0"), True),
    (("modular", "fit", "--manifold", "K3xK3", "--order", "24"), False),
])
def test_only_the_s_check_loads_cmath(argv, loads_cmath):
    # the exact q-series commands, the Eisenstein fit among them, sum no
    # series in floats
    probe = ("import sys\nfrom genus_forge.cli import main\nmain(sys.argv[1:])\n"
             "print('CMATH', 'cmath' in sys.modules)")
    run = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == f"CMATH {loads_cmath}"


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
    assert _loaded_after("import sys, genus_forge") == {"genus_forge", "genus_forge.errors"}


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
