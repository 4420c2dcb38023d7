#!/usr/bin/env python3
"""Run the slowest accepted `genus-forge` commands, CP24 at the q^100 cap and
`cover diam` at 10^6 vertices, each as a cold process under a memory and a
CPU-time budget, and print each command's CPU time, wall time and peak RSS.

    python scripts/caps.py

The commands and their CPU budgets in whole seconds are `cli_sweep.FRONTIER`,
whose output bytes the golden pins.  Each child runs the `src/` of the
checkout that holds this script, with RLIMIT_AS at 512 MiB and RLIMIT_CPU at
its command's budget, both set in the child only (`preexec_fn`): past the
CPU budget the kernel stops the child with SIGXCPU, past the memory budget an
allocation fails.  Any exit other than 0 fails the run (exit status 1).

The budgets are 3 to 10 times each command's CPU time on a 2-core x86-64
host with Python 3.11, whose speed moves by up to 1.7x between phases
(0.1 to 1.1 s a command; all seventeen 4 to 7 s).  They are tighter than
ten times for Ell2 and `modular check`, which spend most of their time in
q-series products: a `QSeries.__mul__` ten times slower makes those two
about 8 and 6 times slower (Ell2 4.2 s, `modular check` 5.2 s), and must
exceed the budget.  Their margin on other hosts, CI runners among them, is
not measured.
Each line reads `cpu-s wall-s peak-rss-MiB budget-s exit argv`.  POSIX only.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from cli_sweep import ENTRY, FRONTIER  # noqa: E402

MEMORY_BYTES = 512 * 2**20


def run(argv, seconds: int) -> tuple[float, float, float, int, bytes]:
    """(CPU s, wall s, peak RSS MiB, exit code, stderr) of one cold process."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds + 1))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GENUS_FORGE_CATALOG", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=limit)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own resource usage
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    # ru_maxrss is in KiB on Linux
    return usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss / 1024, proc.returncode, err


def main() -> int:
    print(f"# Python {sys.version.split()[0]}, RLIMIT_AS {MEMORY_BYTES // 2**20} MiB", flush=True)
    failed = 0
    for command, seconds in FRONTIER.items():
        cpu, wall, rss, code, err = run(command, seconds)
        print(f"{cpu:6.2f} {wall:6.2f} {rss:6.1f} {seconds:3d} {code:3d}  "
              f"{' '.join(command)}", flush=True)
        if code != 0:
            failed += 1
            how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit {code}"
            print(f"  FAILED: {how}; {err.decode(errors='replace').strip()[-500:]}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
