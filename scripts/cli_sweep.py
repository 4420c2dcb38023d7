#!/usr/bin/env python3
"""Run a fixed list of `genus-forge` commands, each as a cold process, and
print every command's exit code and the sha256 of its stdout and stderr.

The list covers `compute` (four genera), `elliptic` (three kinds),
`indices` (B and W), `modular fit` and `modular check`, in text and with
`--json`, on every catalog entry and five builtins, and on CP24 at order
and max 100, the caps; the `catalog`, `bound` and `cover` commands, with
`cover diam` at its cap of 10^6 vertices; `--help`
pages; the exit-1, exit-2 and exit-3 paths; and command-line syntax edge
cases (bare groups, `--opt=value`, a repeated option, option values that
start with '-').  Run from the root of a checkout:

    python scripts/cli_sweep.py                   # this checkout
    python scripts/cli_sweep.py --root ../other   # another checkout
    python scripts/cli_sweep.py | diff -u scripts/cli_golden.txt -

Each line of the listing reads `exit stdout-sha256 stderr-sha256 argv`.
`scripts/cli_golden.txt` is the committed listing: a change of any CLI
byte shows up as a diff against it, and so does the listing of another
checkout, whose program is imported from its own `src/`.  631 commands;
with two jobs at a time a checkout takes about 30 s on a 2-core x86-64
host.  Each command runs under 512 MiB of address space and its
`FRONTIER` budget of CPU seconds, else `DEFAULT_CPU_S`, set in the child
before `genus_forge` is imported: a kill changes its exit code, and past
120 s of wall time it is listed as `timeout`.  Stderr gets each frontier
row as `cpu-s wall-s peak-rss-MiB budget-s exit argv`, the peak RSS being
the child's own VmHWM, or `-` without `/proc` or for a killed child.
POSIX only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import signal
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ENTRY = "import sys; from genus_forge.cli import main; sys.exit(main())"
BUILTINS = ("CP1", "CP5", "S2", "S8", "T6")
GENERA = ("todd", "ahat", "lhat", "signature")
ELLIPTIC = ("ell1", "ell2", "witten")
JOBS = 2            # processes at a time
TIMEOUT_S = 120     # seconds before one command counts as hung
MEMORY_BYTES = 512 * 2**20  # RLIMIT_AS of every command
DEFAULT_CPU_S = 2   # RLIMIT_CPU outside FRONTIER: over 10x the slowest such command, 0.14 s
# set in the child, SIGALRM for a hang too: a preexec_fn is unsafe with threads.
# At exit the child copies its /proc/self/status to a file run_one names: exec
# starts VmHWM afresh, while ru_maxrss starts at the sweep's own RSS
LIMITED = """\
import atexit, resource as r, signal
r.setrlimit(r.RLIMIT_AS, ({0}, {0}))
r.setrlimit(r.RLIMIT_CPU, ({1}, {1} + 1))
signal.alarm({2})
def status(path={3!r}):
    try:
        with open("/proc/self/status") as src, open(path, "w") as dst:
            dst.write(src.read())
    except OSError:
        pass
atexit.register(status)
""" + ENTRY

FIXED = [
    ("--help",),
    ("compute", "--help"),
    ("elliptic", "--help"),
    ("modular", "check", "--help"),
    ("bound", "index", "--help"),
    ("cover", "diam", "--help"),
    ("catalog", "list"),
    ("catalog", "list", "--json"),
    ("catalog", "show", "CP20"),
    ("catalog", "show", "K3"),
    ("bound", "cb", "--m", "2", "--b", "1.0"),
    ("bound", "cb", "--m", "7", "--b", "0.5", "--method", "secant", "--json"),
    # small roots, where the root search used to stop at an absolute width
    ("bound", "cb", "--m", "2", "--b", "50"),
    ("bound", "cb", "--m", "8", "--b", "5.0"),
    ("bound", "cb", "--m", "12", "--b", "5.0", "--method", "secant", "--json"),
    ("bound", "cb", "--m", "100", "--b", "0.1", "--method", "secant"),
    ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
    ("bound", "index", "--m", "2", "--p", "3", "--lambda", "0", "--diam", "2", "--b", "0.5",
     "--v", "3", "--l", "2", "--json"),
    ("cover", "diam", "--k", "2", "--base", "3,3", "--factor", "2"),
    ("cover", "diam", "--k", "3", "--base", "5,6,7", "--factor", "3", "--json"),
    ("cover", "tower", "--k", "3", "--depth", "3"),
    ("cover", "tower", "--k", "2", "--depth", "5", "--json"),
    ("cover", "l2", "--k", "2", "--p", "1", "--depth", "3"),
    ("cover", "l2", "--k", "3", "--p", "2", "--depth", "4", "--json"),
    # unit moduli: the quotient graph is one vertex, of diameter 0
    ("cover", "diam", "--k", "2", "--base", "1,1", "--factor", "2"),
    # a long outer path: the BFS adds the levels that repeat in one step
    ("cover", "diam", "--k", "2", "--base", "2,40", "--factor", "2"),
    # the `cli` benchmark workload's commands that the per-manifold lines miss
    ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "4"),
    ("indices", "--manifold", "K3", "--family", "B", "--max", "3"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "2.0"),
    ("modular", "fit", "--manifold", "K3xK3", "--order", "24"),
    # exit 1: usage
    ("compute", "--manifold", "K3"),
    ("compute", "--manifold", "K3", "--genus", "euler"),
    ("elliptic", "--manifold", "K3", "--kind", "ell3"),
    ("frobnicate",),
    ("cover", "diam", "--k", "2", "--base", "3,x", "--factor", "2"),
    ("catalog", "list", "--json=1"),
    ("compute", "--manifold"),
    ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "abc"),
    # command-line syntax: bare groups print their help on stderr (exit 1),
    # options are not abbreviated, `--opt=value`, the last repeat wins, and an
    # option value may start with '-'
    (),
    ("catalog",),
    ("bound",),
    ("compute", "--man", "CP3", "--genus", "todd"),
    ("compute", "--manifold=CP3", "--genus=todd"),
    ("compute", "--manifold", "CP2", "--genus", "todd", "--genus", "ahat"),
    ("bound", "cb", "--m", "2", "--b", "-1e-3"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "-inf"),
    ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "-1"),
    ("catalog", "show"),
    ("catalog", "show", "K3", "extra"),
    ("catalog", "show", "--json", "--", "K3"),
    # exit 2: data, including the size caps
    ("compute", "--manifold", "NOPE", "--genus", "todd"),
    ("elliptic", "--manifold", "T2", "--kind", "witten"),
    ("indices", "--manifold", "B8", "--family", "B", "--max", "2"),
    ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "101"),
    ("cover", "diam", "--k", "3", "--base", "200,200,200", "--factor", "2"),
    ("cover", "tower", "--k", "1", "--depth", "65"),
    ("bound", "index", "--m", "4", "--p", "1.5", "--lambda", "1", "--diam", "1", "--b", "1"),
    ("catalog", "show", "T50"),
    ("catalog", "show", "CP25"),
    ("compute", "--manifold", "S52", "--genus", "ahat"),
    ("compute", "--manifold", "CP0", "--genus", "todd"),
    ("compute", "--manifold", "S3", "--genus", "ahat"),
    ("compute", "--manifold", "T3", "--genus", "ahat"),
    ("compute", "--manifold", "CP10000000000", "--genus", "todd"),
    ("cover", "diam", "--k", "2", "--base", "0,3", "--factor", "2"),
    ("cover", "diam", "--k", "2", "--base", "3", "--factor", "2"),
    ("cover", "tower", "--k", "65", "--depth", "1"),
    ("cover", "l2", "--k", "2", "--p", "3", "--depth", "1"),
    ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1",
     "--v", "1.5"),
    ("bound", "cb", "--m", "301", "--b", "1.0"),
    # mu (p - 1) - p rounds to 0 just above p = m/2
    ("bound", "index", "--m", "7", "--p", "3.5000000000000004", "--lambda", "1", "--diam", "1",
     "--b", "1"),
    # a fit too short to check: CP24 has three monomials and order 1 no q^3
    ("modular", "fit", "--manifold", "CP24", "--order", "1"),
    # builtin suffixes are ASCII digits only
    ("compute", "--manifold", "CP²", "--genus", "todd"),
    ("catalog", "show", "T²"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "nan"),
    ("modular", "check", "--manifold", "HP2", "--tol", "nan"),
    ("modular", "check", "--manifold", "HP2", "--tol", "-1"),
    # exit 3: numerical, including a truncation too short for the requested tau
    ("modular", "check", "--manifold", "HP2", "--tau-im", "0.5"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "10"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "50"),
    # q' = e^(-2 pi / tau_im) rounds to 1.0: the evaluation diverges
    ("modular", "check", "--manifold", "K3", "--tau-im", "1e20"),
    ("modular", "check", "--manifold", "HP2", "--tau-im", "2.0", "--order", "4"),
    # a sum whose rounding error may reach tol: CP16's sides are about 8.5e6
    ("modular", "check", "--manifold", "CP16", "--tau-im", "3", "--order", "40"),
    # the scale (2 tau)^(2m) past binary64
    ("modular", "check", "--manifold", "HP2", "--tau-im", "1e80"),
    ("modular", "check", "--manifold", "CP24", "--tau-im", "1e13", "--order", "4"),
    ("bound", "cb", "--m", "2", "--b", "710"),
    # a root above 2^80
    ("bound", "cb", "--m", "2", "--b", "1e-300"),
    # a power in B overflows, mu = v/(v-1) rounds to 1, and B overflows to inf
    ("bound", "index", "--m", "2", "--p", "5", "--lambda", "0", "--diam", "1", "--b", "700"),
    ("bound", "index", "--m", "2", "--p", "1e17", "--lambda", "1", "--diam", "1", "--b", "1"),
    ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1",
     "--cmp", "1e308"),
    # the dimension bound l * L_sup past binary64
    ("bound", "index", "--m", "4", "--p", "5", "--lambda", "0", "--diam", "1", "--b", "1",
     "--l", str(10**308)),
]

# the slowest accepted inputs, CP24 at the caps and covers of 10^6 vertices of
# diameter sum(base), with CPU budgets 3 to 10 times their CPU time on a 2-core
# host: a ten times slower `QSeries.__mul__` exceeds Ell2's and `modular check`'s
FRONTIER = {
    ("compute", "--manifold", "CP24", "--genus", "todd"): 5,
    ("compute", "--manifold", "CP24", "--genus", "ahat"): 1,
    ("compute", "--manifold", "CP24", "--genus", "lhat"): 1,
    ("compute", "--manifold", "CP24", "--genus", "signature"): 1,
    ("elliptic", "--manifold", "CP24", "--kind", "ell1", "--order", "100"): 2,
    ("elliptic", "--manifold", "CP24", "--kind", "ell2", "--order", "100"): 3,
    ("elliptic", "--manifold", "CP24", "--kind", "witten", "--order", "100"): 2,
    ("indices", "--manifold", "CP24", "--family", "B", "--max", "100"): 2,
    ("indices", "--manifold", "CP24", "--family", "W", "--max", "100"): 2,
    ("modular", "fit", "--manifold", "CP24", "--order", "100"): 2,
    ("modular", "check", "--manifold", "CP24", "--tau-im", "1.5", "--order", "100"): 4,
    ("cover", "diam", "--k", "1", "--base", "500000", "--factor", "2"): 1,
    ("cover", "diam", "--k", "2", "--base", "500,500", "--factor", "2"): 1,
    ("cover", "diam", "--k", "2", "--base", "2500,100", "--factor", "2"): 1,
    ("cover", "diam", "--k", "3", "--base", "50,50,50", "--factor", "2"): 1,
    ("cover", "diam", "--k", "3", "--base", "2,2,31250", "--factor", "2"): 1,
    ("cover", "diam", "--k", "4", "--base", "2,2,2,7812", "--factor", "2"): 1,
}
BUDGETS = {argv + extra: s for argv, s in FRONTIER.items() for extra in ((), ("--json",))}


def commands(root: Path) -> list[tuple[str, ...]]:
    catalog = json.loads((root / "src" / "genus_forge" / "data" / "default_catalog.json")
                         .read_text())
    names = [entry["name"] for entry in catalog["entries"]] + list(BUILTINS)
    out = list(FIXED) + list(BUDGETS)
    for name in names:
        per_manifold = [("compute", "--manifold", name, "--genus", g) for g in GENERA]
        per_manifold += [("elliptic", "--manifold", name, "--kind", k, "--order", "8")
                         for k in ELLIPTIC]
        per_manifold += [("indices", "--manifold", name, "--family", f, "--max", "6")
                         for f in ("B", "W")]
        per_manifold += [("modular", "fit", "--manifold", name, "--order", "12"),
                         ("modular", "check", "--manifold", name, "--order", "16")]
        for argv in per_manifold:
            out += [argv, argv + ("--json",)]
    return out


def run_one(root: Path, argv) -> tuple:
    """(exit code, sha256 of stdout, sha256 of stderr, CPU s, wall s, peak RSS
    MiB or None) of one cold process under its budgets."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("GENUS_FORGE_CATALOG", None)
    with (tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err,
          tempfile.NamedTemporaryFile("r") as report):
        entry = LIMITED.format(MEMORY_BYTES, BUDGETS.get(argv, DEFAULT_CPU_S), TIMEOUT_S,
                               report.name)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", entry, *argv], cwd=root, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own resource usage
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        row = [str(proc.returncode)]
        for stream in (out, err):
            stream.seek(0)
            row.append(hashlib.sha256(stream.read()).hexdigest())
        # "VmHWM:  20480 kB"; a killed child wrote nothing
        peak = [line.split()[1] for line in report if line.startswith("VmHWM:")]
    if proc.returncode == -signal.SIGALRM:
        row = ["timeout", "-", "-"]
    return (*row, usage.ru_utime + usage.ru_stime, wall, int(peak[0]) / 1024 if peak else None)


def sweep(root: Path, argvs) -> list[tuple[str, str, str]]:
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        runs = list(pool.map(lambda argv: run_one(root, argv), argvs))
    print(f"# {root}: cpu-s wall-s peak-rss-MiB budget-s exit argv", file=sys.stderr)
    for argv, (code, _, _, cpu, wall, rss) in zip(argvs, runs):
        if argv in BUDGETS:
            rss = "-" if rss is None else f"{rss:.1f}"
            print(f"{cpu:6.2f} {wall:6.2f} {rss:>6} {BUDGETS[argv]:3d} {code:>4}  "
                  f"{' '.join(argv)}", file=sys.stderr)
    return [run[:3] for run in runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to run (default: the current directory)")
    args = parser.parse_args(argv)

    argvs = commands(args.root)
    for cmd, (code, out, err) in zip(argvs, sweep(args.root, argvs)):
        print(" ".join((f"{code:>7}", out, err, *cmd)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
