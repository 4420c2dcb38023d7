"""The README's "Library entry points" block runs against the package
exports, so the documentation and `genus_forge.__all__` cannot drift, and
every command its CLI block shows exits 0."""

import re
import shlex
from pathlib import Path

import genus_forge
from genus_forge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_points_block() -> str:
    section = README.read_text().split("## Library entry points", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under 'Library entry points'"
    return match.group(1)


def test_readme_entry_points_run():
    exec(compile(_entry_points_block(), str(README), "exec"), {})


def test_readme_imports_are_exported():
    block = _entry_points_block()
    imported = re.search(r"from genus_forge import \((.*?)\)", block, re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names <= set(genus_forge.__all__)
    assert all(hasattr(genus_forge, name) for name in genus_forge.__all__)


def test_readme_cli_commands_run(capsys):
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("genus-forge ")]
    assert len(commands) == 14
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
