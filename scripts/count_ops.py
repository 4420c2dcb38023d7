#!/usr/bin/env python3
"""Count the work of `genus-forge` commands: opcodes executed, modules
imported and bytes of `genus_forge` source compiled, each command in a cold
`python -S` process.

Unlike timings, these counts repeat exactly from run to run, so they show
changes of a few hundred microseconds that a noisy host hides.  They do not
see work done in C (big-integer arithmetic, `compile()` itself), so they sit
next to timings and do not replace them.  Counts differ between Python
versions: compare them within one.

    python scripts/count_ops.py                          # the default commands
    python scripts/count_ops.py bound cb --m 2 --b 1.0   # one command
    python scripts/count_ops.py --root ../parent         # another checkout

Each line reads `opcodes modules source-bytes exit argv`.  The child runs
with PYTHONHASHSEED=0 and counts every bytecode instruction with
`sys.settrace` (`f_trace_opcodes`), the imports included.  It reads and
writes no bytecode cache, so every module it imports is compiled from
source, and the source bytes are the sizes of the `genus_forge` modules it
imported.  The program is imported from the checkout's `src/`.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT = [
    ("catalog", "list"),
    ("compute", "--manifold", "CP3", "--genus", "todd"),
    ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "12"),
    ("bound", "cb", "--m", "2", "--b", "1.0"),
    ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
    ("cover", "diam", "--k", "2", "--base", "3,3", "--factor", "2"),
]
TIMEOUT_S = 120.0

# argv: counts file, package directory, then the command.  The trace starts
# after this script's own setup, and the counts are taken before anything
# else is imported.
CHILD = """\
import sys
counts_path, package, *argv = sys.argv[1:]
ops = [0]

def step(frame, event, arg):
    if event == "opcode":
        ops[0] += 1
    return step

def enter(frame, event, arg):
    frame.f_trace_opcodes = True
    return step

before = set(sys.modules)
sys.settrace(enter)
from genus_forge.cli import main
code = main(argv)
sys.settrace(None)
new = set(sys.modules) - before
import os
size = sum(os.path.getsize(sys.modules[name].__file__) for name in new
           if (getattr(sys.modules[name], "__file__", None) or "").startswith(package))
with open(counts_path, "w") as out:
    out.write(f"{ops[0]} {len(new)} {size} {code}")
"""


def count(root: Path, argv, cache: str) -> tuple[int, int, int, int]:
    """(opcodes, modules imported, genus_forge source bytes, exit code) of
    one command; `cache` is an empty directory that stands in for the
    bytecode cache."""
    src = root.resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=cache)
    env.pop("GENUS_FORGE_CATALOG", None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts")
        subprocess.run([sys.executable, "-S", "-B", "-c", CHILD, path,
                        str(src / "genus_forge") + os.sep, *argv],
                       cwd=root, env=env, capture_output=True, timeout=TIMEOUT_S)
        with open(path) as fh:
            return tuple(int(word) for word in fh.read().split())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to run (default: the current directory)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="one genus-forge command (default: a fixed list)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as cache:
        for command in [tuple(args.command)] if args.command else DEFAULT:
            ops, modules, size, code = count(args.root, command, cache)
            print(f"{ops:>9} {modules:>3} {size:>7} {code:>2}  {' '.join(command)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
