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

The fifteen default commands are every command of the benchmark's `cli`
workload that exits 0 (`CLI_FIXED` in `perfbench/workloads.py`), with its
`elliptic` command at order 12, plus an ell1 series, an lhat genus and a
secant `bound cb`.

A first line, starting with `#`, names the Python version and the counter;
then each command's line reads `opcodes modules source-bytes exit argv`.
The child runs with PYTHONHASHSEED=0 and counts every bytecode instruction,
the imports included: with `sys.monitoring` INSTRUCTION events on Python
3.12 and later, where `sys.settrace` sends no opcode events under 3.12.1,
and with `sys.settrace` (`f_trace_opcodes`) before.  It reads and writes no
bytecode cache, so every module it imports is compiled from source, and the
source bytes are the sizes of the `genus_forge` modules it imported.  The
program is imported from the checkout's `src/`.  Where the counter receives
no instruction events, a command would count 0 opcodes: the script raises
instead of printing that count.

A second line after each command's, starting with `#`, splits its opcodes
by the source file of the code that ran them (`frame.f_code.co_filename`
under `sys.settrace`, `code.co_filename` under `sys.monitoring`): one layer
per `genus_forge` module, `import` (the frozen importlib frames), `re` (the
pure-Python regex compiler: `re/_parser.py` and `re/_compiler.py`, or
`sre_parse.py` and `sre_compile.py` before 3.11) and `stdlib` (the rest).
The layers sum to the command's opcodes.  They say where Python-level work
goes, not where the time goes: C work, such as big-integer products or
`json` decoding, is not seen.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT = [
    ("catalog", "list"),
    ("catalog", "show", "K3"),
    ("compute", "--manifold", "CP3", "--genus", "todd"),
    ("compute", "--manifold", "HP2", "--genus", "lhat"),
    ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "12"),
    ("elliptic", "--manifold", "K3", "--kind", "ell1", "--order", "12"),
    ("indices", "--manifold", "K3", "--family", "B", "--max", "3"),
    ("modular", "fit", "--manifold", "K3xK3", "--order", "24"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "2.0"),
    ("bound", "cb", "--m", "2", "--b", "1.0"),
    ("bound", "cb", "--m", "7", "--b", "0.5", "--method", "secant"),
    ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
    ("cover", "diam", "--k", "2", "--base", "3,3", "--factor", "2"),
    ("cover", "tower", "--k", "3", "--depth", "3"),
    ("cover", "l2", "--k", "2", "--p", "1", "--depth", "3"),
]
TIMEOUT_S = 120.0
VERSION = sys.version.split()[0]
COUNTER = "sys.monitoring" if hasattr(sys, "monitoring") else "sys.settrace"

# argv: counts file, package directory, then the command.  The trace starts
# after this script's own setup, and the counts are taken before anything
# else is imported.  The counts file's first line is the four counts, and
# each further line the opcodes of one source file and its name.
CHILD = """\
import sys
counts_path, package, *argv = sys.argv[1:]
ops = {}
monitoring = getattr(sys, "monitoring", None)

if monitoring:
    def count(code, offset):
        ops[code.co_filename] = ops.get(code.co_filename, 0) + 1

    monitoring.use_tool_id(monitoring.PROFILER_ID, "count_ops")
    monitoring.register_callback(monitoring.PROFILER_ID, monitoring.events.INSTRUCTION, count)
else:
    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        cell = ops.setdefault(frame.f_code.co_filename, [0])

        def step(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            return step
        return step

before = set(sys.modules)
if monitoring:
    monitoring.set_events(monitoring.PROFILER_ID, monitoring.events.INSTRUCTION)
else:
    sys.settrace(enter)
from genus_forge.cli import main
code = main(argv)
if monitoring:
    monitoring.set_events(monitoring.PROFILER_ID, 0)
else:
    sys.settrace(None)
new = set(sys.modules) - before
import os
size = sum(os.path.getsize(sys.modules[name].__file__) for name in new
           if (getattr(sys.modules[name], "__file__", None) or "").startswith(package))
ops = {file: n if monitoring else n[0] for file, n in ops.items()}
with open(counts_path, "w") as out:
    out.write(f"{sum(ops.values())} {len(new)} {size} {code}")
    out.writelines(f"\\n{n} {file}" for file, n in ops.items() if n)
"""
RE_FILES = ("/re/_parser.py", "/re/_compiler.py", "/sre_parse.py", "/sre_compile.py")
SHARED = ("import", "re", "stdlib")  # the layers outside genus_forge, printed last


def layer(file: str, package: str) -> str:
    """The layer that a code object's source file belongs to."""
    if file.startswith(package):
        return os.path.splitext(file[len(package):])[0]
    if file.startswith("<frozen importlib"):
        return "import"
    if file.replace(os.sep, "/").endswith(RE_FILES):
        return "re"
    return "stdlib"


def count(root: Path, argv, cache: str) -> tuple[int, int, int, int, dict]:
    """(opcodes, modules imported, genus_forge source bytes, exit code,
    opcodes by layer) of one command; `cache` is an empty directory that
    stands in for the bytecode cache."""
    src = root.resolve() / "src"
    package = str(src / "genus_forge") + os.sep
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=cache)
    env.pop("GENUS_FORGE_CATALOG", None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts")
        subprocess.run([sys.executable, "-S", "-B", "-c", CHILD, path, package, *argv],
                       cwd=root, env=env, capture_output=True, timeout=TIMEOUT_S)
        with open(path) as fh:
            first, *files = fh.read().split("\n")
    counts = tuple(int(word) for word in first.split())
    if counts[0] == 0:
        raise RuntimeError(f"the tracer counted no opcodes under Python {VERSION}: "
                           "count within another version")
    layers = {}
    for line in files:
        n, file = line.split(" ", 1)
        name = layer(file, package)
        layers[name] = layers.get(name, 0) + int(n)
    return (*counts, layers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to run (default: the current directory)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="one genus-forge command (default: a fixed list)")
    args = parser.parse_args(argv)
    print(f"# Python {VERSION}, opcodes counted with {COUNTER}", flush=True)
    with tempfile.TemporaryDirectory() as cache:
        for command in [tuple(args.command)] if args.command else DEFAULT:
            ops, modules, size, code, layers = count(args.root, command, cache)
            print(f"{ops:>9} {modules:>3} {size:>7} {code:>2}  {' '.join(command)}", flush=True)
            names = (*sorted(set(layers) - set(SHARED)), *SHARED)
            print("#", *(f"{name}={layers.get(name, 0)}" for name in names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
