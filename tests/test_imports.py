"""Import-on-demand guards: `import genus_forge` loads only the error
classes, every exported name imports its module on first use, and a cold
`genus-forge` process loads only the modules its command runs, with no CLI
framework (click) among them and, outside the q-series commands, neither
`dataclasses` nor the `inspect` module it imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import genus_forge
from genus_forge import cli, elliptic
from genus_forge.elliptic import EllKind
from genus_forge.manifolds import GenusKind

SRC = str(Path(genus_forge.__file__).resolve().parents[1])


def _loaded_after(code: str, *args: str) -> set:
    """The genus_forge, scipy, numpy, click, dataclasses and inspect modules
    in sys.modules once `code` has run in a fresh interpreter (with `args` as
    sys.argv[1:])."""
    probe = code + (
        "\nprint('MODULES', *sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('genus_forge', 'scipy', 'numpy', 'click', 'dataclasses', 'inspect')))"
    )
    out = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
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


def test_cli_choices_match_the_enums():
    assert list(cli.GENUS_CHOICES) == [k.value for k in GenusKind]
    assert list(cli.ELL_CHOICES) == [k.value for k in EllKind]


def test_cli_default_order_is_the_library_truncation():
    assert cli._trunc(cli.DEFAULT_ORDER) == elliptic.DEFAULT_Q_TRUNC
