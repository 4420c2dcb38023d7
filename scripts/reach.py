#!/usr/bin/env python3
"""Line-reach audit of `src/genus_forge`: which executable lines the CLI
sweep's commands, or the tier-1 tests, run.

    python scripts/reach.py --cli      # the golden's commands, in process
    python scripts/reach.py --tests    # tier-1, in process

`--cli` runs every command of `scripts/cli_sweep.py` (`cli_sweep.commands`)
through `cli.main`, one after another in this process, with its output
discarded.  `--tests` runs tier-1 (`pytest tests`) in this process.  Both
modes print, per module, the executable and the reached line counts, then
every unreached line with its source.  `--tests` exits 1 when tier-1 leaves
a line unreached that `KEPT` below does not list with its reason, or when a
`KEPT` entry names no line; it judges reach only, not test outcomes.  `--cli`
gates nothing.

Executable lines are the line numbers of the compiled modules' code objects
(`co_lines`), docstrings left out.  Lines are collected with `sys.settrace`
on every Python version, and a code object stops being traced once all its
lines are reached.  `--tests` runs hypothesis with `--hypothesis-seed=0`, so
the examples its property tests draw, and with them the lines they reach,
are the same on every run.  Code run in a child process is not seen: tests
that start the CLI as a subprocess count for nothing here.  The collector
slows traced code and holds memory, so a test with a time or memory bound
may fail under it and pass in a plain run: the 1-s bound of
`test_truncation_cap` and the `tracemalloc` bound of
`test_c_of_b_search_cache_is_bounded` are two.  On a 2-core x86-64 host
`--tests` takes about 75 s under Python 3.11 and 95-125 s under 3.12 and
3.13; `--cli` takes about 70 s under 3.11 and 140-170 s under 3.10, 3.12
and 3.13.
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "genus_forge"

# Lines tier-1 may leave unreached: (module, the stripped source of the first
# line, how many lines from it, why no in-process test reaches them).
KEPT = [
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", 2,
     "the broken-pipe exit needs a real closed pipe on stdout; "
     "test_closed_stdout_exits_1_quietly reaches it in a child process"),
    ("cli.py", "sys.exit(main())", 1, "the module form runs only in a child process"),
]


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from `path`, without its
    docstrings."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docstrings


class Collector:
    """The lines of `files` that run between start() and stop()."""

    def __init__(self, files):
        self.reached = {str(f): set() for f in files}
        self.pending = {}  # code object -> its lines not reached yet

    def _left(self, code):
        left = self.pending.get(code)
        if left is None:
            # the def line ran in the enclosing code before this call
            left = self.pending[code] = ({line for _, _, line in code.co_lines() if line}
                                         - self.reached[code.co_filename])
        return left

    def _line(self, frame, event, arg):
        if event == "line":
            left = self.pending[frame.f_code]
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
            left.discard(frame.f_lineno)
            if not left:
                frame.f_trace_lines = False
        return self._line

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename in self.reached and self._left(code):
            return self._line
        return None

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


def run_cli(collector) -> None:
    sys.path.insert(0, str(ROOT / "scripts"))
    import cli_sweep

    argvs = cli_sweep.commands(ROOT)
    os.environ.pop("GENUS_FORGE_CATALOG", None)
    sink = io.StringIO()
    collector.start()
    try:
        from genus_forge.cli import main

        for argv in argvs:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                main(list(argv))
            sink.seek(0)
            sink.truncate()
    finally:
        collector.stop()
    print(f"# {len(argvs)} commands of scripts/cli_sweep.py through cli.main")


def run_tests(collector) -> None:
    import pytest

    collector.start()
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        collector.stop()
    print(f"# tier-1 in process: pytest exit {int(code)} (reach is judged, not outcomes)")


def kept_lines(sources) -> tuple[dict, list]:
    """{(module, line): reason} for the KEPT entries, and the entries that
    name no line."""
    kept, stale = {}, []
    for module, first, count, reason in KEPT:
        lines = sources[module]
        start = next((i for i, text in enumerate(lines, 1) if text.strip() == first), None)
        if start is None:
            stale.append((module, first))
            continue
        kept.update({(module, line): reason for line in range(start, start + count)})
    return kept, stale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cli", action="store_true", help="run the CLI sweep's commands")
    mode.add_argument("--tests", action="store_true", help="run tier-1; exit 1 on a missed line")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    collector = Collector(paths)
    (run_tests if args.tests else run_cli)(collector)

    sources = {path.name: path.read_text().splitlines() for path in paths}
    kept, stale = kept_lines(sources)
    print(f"# Python {sys.version.split()[0]}")
    print(f"{'module':<14} {'lines':>6} {'reached':>8}")
    missed, total, hit = [], 0, 0
    for path in paths:
        lines = executable_lines(path)
        reached = collector.reached[str(path)] & lines
        total, hit = total + len(lines), hit + len(reached)
        print(f"{path.name:<14} {len(lines):>6} {len(reached):>8}")
        missed += [(path.name, line) for line in sorted(lines - reached)]
    print(f"{'total':<14} {total:>6} {hit:>8}")
    failed = bool(stale) and args.tests
    for module, first in stale:
        print(f"KEPT names no line: {module}: {first}")
    for module, line in missed:
        reason = kept.get((module, line))
        if reason is None and args.tests:
            failed = True
        note = f"  [kept: {reason}]" if reason else ""
        print(f"unreached {module}:{line}: {sources[module][line - 1].strip()}{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
