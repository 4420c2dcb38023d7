"""The README's "Library entry points" block runs against the package
exports, so the documentation and `genus_forge.__all__` cannot drift."""

import re
from pathlib import Path

import genus_forge

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
