#!/usr/bin/env python3
"""Run a fixed list of `genus-forge` commands, each as a cold process, and
print every command's exit code and the sha256 of its stdout.

The list covers `compute` (four genera), `elliptic` (three kinds),
`indices` (B and W), `modular fit` and `modular check`, in text and with
`--json`, on every catalog entry and five builtins; the `catalog`, `bound`
and `cover` commands; `--help` pages; the exit-1, exit-2 and exit-3 paths;
and command-line syntax edge cases (bare groups, `--opt=value`, a repeated
option, option values that start with '-').  Run from the root of a
checkout:

    python scripts/cli_sweep.py                       # this checkout
    python scripts/cli_sweep.py --against ../parent   # compare two checkouts

With `--against`, both trees run every command and only the commands
whose exit code or stdout differ are printed; the exit status is 1 if any
differ.  Each tree's program is imported from its own `src/`.  About 560
commands; with two jobs at a time a tree takes about a minute on a 2-core
x86 host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ENTRY = "import sys; from genus_forge.cli import main; sys.exit(main())"
BUILTINS = ("CP1", "CP5", "S2", "S8", "T6")
GENERA = ("todd", "ahat", "lhat", "signature")
ELLIPTIC = ("ell1", "ell2", "witten")
JOBS = 2            # processes at a time
TIMEOUT_S = 120.0   # seconds before one command counts as hung

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
    # exit 1: usage
    ("compute", "--manifold", "K3"),
    ("compute", "--manifold", "K3", "--genus", "euler"),
    ("elliptic", "--manifold", "K3", "--kind", "ell3"),
    ("frobnicate",),
    ("cover", "diam", "--k", "2", "--base", "3,x", "--factor", "2"),
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
    ("modular", "check", "--manifold", "HP2", "--tau-im", "nan"),
    ("modular", "check", "--manifold", "HP2", "--tol", "nan"),
    ("modular", "check", "--manifold", "HP2", "--tol", "-1"),
    # exit 3: numerical
    ("modular", "check", "--manifold", "HP2", "--tau-im", "0.5"),
    ("bound", "cb", "--m", "2", "--b", "710"),
]


def commands(root: Path) -> list[tuple[str, ...]]:
    catalog = json.loads((root / "src" / "genus_forge" / "data" / "default_catalog.json")
                         .read_text())
    names = [entry["name"] for entry in catalog["entries"]] + list(BUILTINS)
    out = list(FIXED)
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


def run_one(root: Path, argv) -> tuple[str, str]:
    """(exit code, sha256 of stdout) of one cold process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("GENUS_FORGE_CATALOG", None)
    try:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=root, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "-"
    return str(proc.returncode), hashlib.sha256(proc.stdout).hexdigest()


def sweep(root: Path, argvs) -> list[tuple[str, str]]:
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(lambda argv: run_one(root, argv), argvs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to run (default: the current directory)")
    parser.add_argument("--against", type=Path, default=None,
                        help="second checkout; print only the commands that differ")
    args = parser.parse_args(argv)

    argvs = commands(args.root)
    mine = sweep(args.root, argvs)
    if args.against is None:
        for cmd, (code, digest) in zip(argvs, mine):
            print(f"{code:>7} {digest} {' '.join(cmd)}")
        return 0
    theirs = sweep(args.against, argvs)
    differ = 0
    for cmd, (code_a, sha_a), (code_b, sha_b) in zip(argvs, mine, theirs):
        if (code_a, sha_a) != (code_b, sha_b):
            differ += 1
            stdout = "stdout differs" if sha_a != sha_b else "same stdout"
            print(f"DIFF {' '.join(cmd)}: exit {code_b} -> {code_a}, {stdout}")
    print(f"{len(argvs) - differ} of {len(argvs)} commands identical "
          f"({args.against} -> {args.root})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
