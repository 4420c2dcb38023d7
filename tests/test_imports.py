"""Import-on-demand guards: `import genus_forge` loads only the error
classes, every exported name imports its module on first use, and a cold
`genus-forge` process loads only the modules its command runs.  One table
holds every command, `--help` and a usage error.  Each row, run once in a
cold `python -S` child, and `import genus_forge` hold one rule: the exact
set of `genus_forge` modules, and past the interpreter's start-up only the
top-level packages those modules allow (`STDLIB`, and `HANDLER` for a
handler's own import), each of them used but the few that only some
Pythons from 3.10 to 3.13 load.  An allow-list of top-level names cannot
see a submodule of the allowed `importlib`, so one check stays apart: no
`importlib.resources`, which pulls in `pathlib`, `typing`, `zipfile` and
`tempfile`.  The test oracle imports from the package only its data types
and error classes.  Every relative import in the package, function-local
ones included, names a lower layer, so its module graph has no cycle."""

import ast
import os
import site
import subprocess
import sys
from pathlib import Path

import pytest

import genus_forge
from genus_forge import cli, elliptic, errors

SRC = str(Path(genus_forge.__file__).resolve().parents[1])


def cold_modules(argv=None) -> set:
    """The modules that `main(argv)` loads, or `import genus_forge` if `argv`
    is None, in a fresh interpreter without the site module, which may
    preload some of them; those loaded at start-up are left out.  The
    installed packages go on the path after the stdlib, so that an optional
    import of one shows."""
    run = ("import genus_forge" if argv is None
           else "from genus_forge.cli import main\nmain(sys.argv[1:])")
    probe = (f"import sys\nstart = set(sys.modules)\nsys.path += {site.getsitepackages()!r}\n"
             f"{run}\nprint(*(m for m in sys.modules if m not in start))")
    child = subprocess.run([sys.executable, "-S", "-c", probe, *(argv or ())], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert child.returncode == 0, child.stderr
    return set(child.stdout.splitlines()[-1].split())


BASE = {"genus_forge", "genus_forge.cli", "genus_forge.errors"}
CATALOG = BASE | {"genus_forge.catalog", "genus_forge.manifolds"}
ELLIPTIC = CATALOG | {"genus_forge.genera", "genus_forge.qseries", "genus_forge.elliptic"}
BOUNDS, COVERING = BASE | {"genus_forge.bounds"}, BASE | {"genus_forge.covering"}
MODULAR = ELLIPTIC | {"genus_forge.modular"}

# a stdlib package and the top-level packages it loads, as probed on Python
# 3.10.13, 3.11.7, 3.12.1 and 3.13.0
OS = {"os", "stat", "_stat", "posixpath", "genericpath", "_collections_abc"}
COLLECTIONS = {"collections", "_collections", "_collections_abc", "itertools", "keyword",
               "operator", "_operator", "reprlib"}
FUNCTOOLS = COLLECTIONS | {"functools", "_functools", "types"}
RE = FUNCTOOLS | {"re", "_sre", "copyreg", "enum", "_locale", "sre_compile", "sre_constants",
                  "sre_parse"}
FRACTIONS = RE | {"fractions", "decimal", "_decimal", "numbers", "math"}
DATACLASSES = RE | OS | {"dataclasses", "inspect", "importlib", "warnings", "linecache", "ast",
                         "_ast", "dis", "opcode", "_opcode", "_opcode_metadata", "contextlib",
                         "copy", "token", "tokenize", "_tokenize", "weakref", "_weakrefset"}
# loaded by some of them only: re's `_locale` and `sre_*` on 3.10, tokenize's
# `_tokenize` from 3.12, dis's `_opcode_metadata` on 3.13; before 3.13, inspect's
# `linecache` (3.13 loads it at start-up), functools' `types`, importlib's `warnings`
VERSION_ONLY = {"_locale", "sre_compile", "sre_constants", "sre_parse", "_tokenize",
                "_opcode_metadata", "linecache", "types", "warnings"}

# what each module may bring into a cold process; the others add nothing
STDLIB = {
    "genus_forge": {"importlib", "warnings"},
    "genus_forge.errors": {"math"},
    "genus_forge.cli": OS | COLLECTIONS | {"warnings"},
    "genus_forge.bounds": FUNCTOOLS,
    "genus_forge.manifolds": FRACTIONS,
    "genus_forge.catalog": RE | {"json", "_json"},
    "genus_forge.elliptic": DATACLASSES,
}
# a handler's own import: the Fraction ratios of `cover l2`, and the S-check's
# float sums of `modular check`
HANDLER = {("cover", "l2"): FRACTIONS, ("modular", "check"): {"cmath"}}

ROWS = [
    (("--help",), BASE),
    (("compute", "--manifold", "K3"), BASE),  # usage error, exit 1
    (("cover", "tower", "--k", "3", "--depth", "3"), COVERING),
    (("cover", "l2", "--k", "2", "--p", "1", "--depth", "3"), COVERING),
    (("bound", "cb", "--m", "2", "--b", "1.0"), BOUNDS),
    (("catalog", "list"), CATALOG),
    (("compute", "--manifold", "CP3", "--genus", "todd"), CATALOG | {"genus_forge.genera"}),
    (("indices", "--manifold", "K3", "--family", "B", "--max", "3"), ELLIPTIC),
    (("modular", "check", "--manifold", "HP2", "--tau-im", "2.0"), MODULAR),
    (("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
     BOUNDS),
    (("catalog", "show", "K3"), CATALOG),
    (("elliptic", "--manifold", "K3", "--kind", "ell1", "--order", "4"), ELLIPTIC),
    (("modular", "fit", "--manifold", "K3xK3", "--order", "24"), MODULAR),
    (("cover", "diam", "--k", "2", "--base", "3,3", "--factor", "2"), COVERING),
]


def assert_loads_only(loaded, modules, handler=()):
    # the class-polynomial ring serves tests only, so genus_forge.charpoly is never here
    assert {m for m in loaded if m.split(".")[0] == "genus_forge"} == modules
    top = {m.split(".")[0] for m in loaded} - {"genus_forge"}
    allowed = set(handler).union(*(STDLIB.get(m, ()) for m in modules))
    assert top - allowed == set()  # click, scipy, numpy, typing, ... are nowhere
    assert allowed - top <= VERSION_ONLY  # an import that goes takes its allowance along
    assert "importlib.resources" not in loaded


@pytest.mark.parametrize("argv, expected", ROWS)
def test_command_loads_only_its_modules(argv, expected):
    assert_loads_only(cold_modules(argv), expected, HANDLER.get(argv[:2], ()))


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
    assert_loads_only(cold_modules(), {"genus_forge", "genus_forge.errors"})


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
