#!/usr/bin/env python3
"""Record the benchmark of a checkout as `BENCH_<n>.json`, and compare two
records.

    python scripts/bench_record.py --number 33                     # this checkout
    python scripts/bench_record.py --number 33 --parent ../parent --parent-number 32
    python scripts/bench_record.py --compare BENCH_32.json BENCH_33.json

A record runs `perfbench/run.py --workload W --seed S --seconds 54 --trace 0`
`--runs` times for each workload that `BENCHMARK.json` gates (or for each
`--workload` given), with the run length that `BENCHMARK.json` sets, in
the checkout's own harness and program.  It holds, per workload, the
median, quartiles and n of every gated metric, with the values in run
order, and the header line, `correct` and `failed` of every run; the SHA
that the header names and the `src/` digest of the harness's run record;
the host, with `python -c pass` at its best of 9; and the counts of
`scripts/count_ops.py` for its default commands, with the Python version.
A checkout with uncommitted changes still names its HEAD, so `src_sha256`
is what identifies the program measured.  Records, the parent's too, go
to the root of the checkout that `--root` names.

`--parent DIR` measures a second checkout in the same session: pair i runs
every workload on both sides, the checkout first in even pairs and the
parent first in odd ones, and both records are written.  Two records share
a `pair_id` only when they come from one such session, and only then does
`--compare` give a verdict.  A speed claim uses this mode: records taken at
different times also differ by the host's drift.  `--workload` may name a
workload that `BENCHMARK.json` does not gate, such as `deep`, next to the
gated ones.

`--compare A B` names each record's SHA and the first 12 hex digits of its
`src/` digest, and warns when the two digests are equal: such records
measure one program.  It prints each metric's median and quartiles in A
and B and the change of the median.  For paired records the verdict is an
exact two-sided sign test: tied pairs are dropped, and it prints in how
many of the rest B is lower (or higher, if that is most), p, and the median
of the per-pair changes; if every pair ties, "no verdict".  A sign test
gives the direction of a move, not its size.  Records from different
sessions get "unpaired: no verdict".  Counts are compared exactly.  A
workload or count command that only one record holds is named "only in A"
or "only in B".
It warns when the two hosts' `python -c pass` times differ by more than
10%, and when the Python versions differ, since both move every time and
every count.

A record is never overwritten: with `BENCH_<n>.json` already at the root,
or equal `--number` and `--parent-number`, the script refuses before its
first run.

Quartiles are `statistics.quantiles(values, n=4, method="inclusive")`.
Only the standard library is used.  The driving process's Python runs the
harness, the counts and `python -c pass` of both sides.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import secrets
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT_OPS = ROOT / "scripts" / "count_ops.py"
FORMAT = 1
HOST_TOLERANCE = 0.10  # relative difference of `python -c pass` that draws a warning
RUN_TIMEOUT_S = 600.0


def gated(root: Path) -> tuple[list[str], dict[str, str], int]:
    """The gated workloads, the end-to-end metrics with their units, and
    the run length of a checkout's BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, spec["run_seconds"])


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One harness run: its header line, verdict and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"header": None, "correct": False, "failed": None,
                "error": f"exit {proc.returncode}: {tail}"}
    result = json.loads(lines[-1])
    record = json.loads((checkout / "perfbench" / "out" /
                         f"result-{workload}-s{seed}-t0.json").read_text())
    return {"header": lines[0], "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "src_sha256": record["environment"]["src_sha256"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def python_pass_s() -> float:
    """`python -c pass`, best of 9: the host's speed for starting Python."""
    best = float("inf")
    for _ in range(9):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        best = min(best, time.perf_counter() - start)
    return best


def counts(checkout: Path) -> dict:
    """scripts/count_ops.py's default commands, counted on a checkout."""
    out = subprocess.run([sys.executable, str(COUNT_OPS), "--root", str(checkout)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    commands = {}
    for line in out[1:]:
        if line.startswith("#"):  # a command's opcodes by layer
            continue
        ops, modules, size, code, *argv = line.split()
        commands[" ".join(argv)] = {"opcodes": int(ops), "modules": int(modules),
                                    "source_bytes": int(size), "exit": int(code)}
    return {"counter": out[0].lstrip("# "), "commands": commands}


def build(number: int, runs: list[dict], units: dict, harness: str, host: dict,
          checkout: Path, pair_id: str | None) -> dict:
    workloads = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        good = [r for r in mine if r["header"] is not None]
        workloads[workload] = {
            "runs": [{k: r[k] for k in ("header", "correct", "failed", "error") if k in r}
                     for r in mine],
            "metrics": {name: {"unit": unit, **summary([r["metrics"][name] for r in good])}
                        for name, unit in units.items()} if good else {},
        }
    headers = [r["header"] for r in runs if r["header"]]
    sha = next((w.split("=", 1)[1] for w in headers[0].split() if w.startswith("git_sha=")),
               None) if headers else None
    return {
        "format": FORMAT, "number": number, "git_sha": sha,
        "src_sha256": sorted({r["src_sha256"] for r in runs if "src_sha256" in r}),
        "harness": harness, "pair_id": pair_id, "host": host, "workloads": workloads, "counts": counts(checkout),
    }


def record(args) -> int:
    root = args.root.resolve()
    workloads, units, seconds = gated(root)
    workloads = args.workload or workloads
    harness = f"perfbench/run.py --workload W --seed {args.seed} --seconds {seconds} --trace 0"
    sides = [(root, args.number)]
    if args.parent is not None:
        sides.append((args.parent.resolve(), args.parent_number))
    pair_id = secrets.token_hex(8) if args.parent is not None else None
    runs = {checkout: [] for checkout, _ in sides}
    for index in range(args.runs):
        order = sides if index % 2 == 0 else sides[::-1]
        for workload in workloads:
            for checkout, _ in order:
                run = run_once(checkout, workload, args.seed, seconds)
                runs[checkout].append({"workload": workload, **run})
                print(f"pair {index + 1}/{args.runs} {workload} {checkout.name}: "
                      f"{'correct' if run['correct'] else run.get('error', 'incorrect')}",
                      file=sys.stderr, flush=True)
    host = {"machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "python_c_pass_s": python_pass_s()}
    for checkout, number in sides:
        rec = build(number, runs[checkout], units, harness, host, checkout, pair_id)
        path = root / f"BENCH_{number}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


def sign_test(a: list[float], b: list[float]) -> str:
    """The paired verdict on runs a[i] and b[i]: an exact two-sided sign test
    over the pairs that do not tie, and the median per-pair change."""
    untied = [(x, y) for x, y in zip(a, b) if x != y]
    if not untied:
        return f"all {len(a)} pairs tie: no verdict"
    n = len(untied)
    lower = sum(y < x for x, y in untied)
    p = min(1.0, sum(math.comb(n, k) for k in range(min(lower, n - lower) + 1)) / 2 ** (n - 1))
    side, count = ("lower", lower) if 2 * lower >= n else ("higher", n - lower)
    ties = f" ({len(a) - n} tied)" if n < len(a) else ""
    change = statistics.median(y / x - 1.0 if x else 0.0 for x, y in zip(a, b))
    return f"B {side} in {count} of {n} pairs{ties}, p = {p:.2g}, median {change:+.1%}"


def program(rec: dict) -> str:
    """The record's git SHA and the first 12 hex digits of its `src/` digests."""
    return f"{rec['git_sha']}, src {'/'.join(d[:12] for d in rec['src_sha256'])}"


def compare(path_a: Path, path_b: Path) -> list[str]:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    lines = [f"A: {path_a} ({program(a)}), B: {path_b} ({program(b)})"]
    ha, hb = a["host"], b["host"]
    if ha["python"] != hb["python"]:
        lines.append(f"WARNING: Python {ha['python']} against {hb['python']}: "
                     "times and counts are not comparable")
    speed = hb["python_c_pass_s"] / ha["python_c_pass_s"] - 1.0
    if abs(speed) > HOST_TOLERANCE:
        lines.append(f"WARNING: python -c pass {1e3 * ha['python_c_pass_s']:.1f} ms against "
                     f"{1e3 * hb['python_c_pass_s']:.1f} ms ({speed:+.1%}): the hosts differ")
    if a["src_sha256"] == b["src_sha256"]:
        lines.append("WARNING: A and B hold the same src/ digest: they measure one program")
    paired = a["pair_id"] is not None and a["pair_id"] == b["pair_id"]
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            lines.append(f"{workload}: only in A")
            continue
        failed = [sum(r["failed"] is None or r["failed"] > 0 for r in w["runs"]) for w in (wa, wb)]
        lines.append(f"{workload}: runs with failures {failed[0]}/{len(wa['runs'])} -> "
                     f"{failed[1]}/{len(wb['runs'])}")
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                lines.append(f"  {name}: only in A")
                continue
            delta = mb["median"] / ma["median"] - 1.0 if ma["median"] else 0.0
            verdict = (sign_test(ma["values"], mb["values"]) if paired and ma["n"] == mb["n"]
                       else "unpaired: no verdict")
            lines.append(f"  {name:12s} {ma['median']:.6g} [{ma['q1']:.6g}, {ma['q3']:.6g}] -> "
                         f"{mb['median']:.6g} [{mb['q1']:.6g}, {mb['q3']:.6g}] {ma['unit']} "
                         f"{delta:+.1%}; {verdict}")
    lines += [f"{workload}: only in B" for workload in b["workloads"]
              if workload not in a["workloads"]]
    ca, cb = a["counts"], b["counts"]
    lines.append(f"counts: {ca['counter']} -> {cb['counter']}")
    for command, x in ca["commands"].items():
        y = cb["commands"].get(command)
        if y is None:
            lines.append(f"  {command}: only in A")
            continue
        diffs = [f"{key} {x[key]:,} -> {y[key]:,} ({y[key] - x[key]:+,})"
                 for key in ("opcodes", "modules", "source_bytes")]
        lines.append(f"  {command}: " + ", ".join(diffs))
    lines += [f"  {command}: only in B" for command in cb["commands"]
              if command not in ca["commands"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="print the change from record A to record B")
    parser.add_argument("--number", type=int, help="n of BENCH_<n>.json for the checkout")
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to measure (default: the current directory)")
    parser.add_argument("--parent", type=Path, help="second checkout, measured in pairs")
    parser.add_argument("--parent-number", type=int, help="n of the parent's record")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: every gated one)")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.number is None or (args.parent is None) != (args.parent_number is None):
        parser.error("give --number, and --parent-number with --parent")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.parent is not None and args.parent_number == args.number:
        parser.error(f"--number and --parent-number are both {args.number}: the second record "
                     f"would overwrite BENCH_{args.number}.json")
    numbers = [args.number] + ([args.parent_number] if args.parent is not None else [])
    for number in numbers:
        path = args.root.resolve() / f"BENCH_{number}.json"
        if path.exists():
            parser.error(f"{path} exists: a record is never overwritten")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
