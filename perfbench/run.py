#!/usr/bin/env python3
"""genus-forge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 54 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Every run is a closed loop with one client: jobs run one after another in
a fresh worker interpreter (perfbench/worker.py), and every output is
checked after the timed phase.

--trace 0 runs one pass (the workload's fixed job list) per worker, in
as many workers as the workload's nominal worker time fits in --seconds
(at least two), and prints the end-to-end metrics: set-up time (the
median of at least four set-ups), the wall time of the job list and
per-job latency percentiles, each job timed at its best over the run's
passes, the share of jobs whose output passed its check, and the
workers' peak resident memory.

--trace 1 runs passes untraced and with every layer wrapped
(perfbench/tracer.py), in turn, as many pairs as half of --seconds holds
(at least two), and prints the per-layer metrics of the first traced
pass, the CLI start-up split and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A record with the run
environment is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_REPEATS = 4       # set-ups per untraced run, the workers' own included
MIN_PASSES = 2          # passes per untraced run, however short --seconds is
STARTUP_REPEATS = 3     # repeats of each CLI start-up probe in traced runs
RUN_BUDGET_S = 170      # a run is abandoned (no result) beyond this


class RunFailed(Exception):
    """A worker or probe process failed; the run prints no result."""


class Session:
    """Starts the worker processes of one run, all inside one deadline."""

    def __init__(self, root: Path, args):
        self.root, self.args = root, args
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("GENUS_FORGE_CATALOG", None)

    def _run(self, cmd, capture_stderr=False):
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise RunFailed("run budget exhausted")
        # own session, so a timeout also stops the CLI processes a worker started
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE if capture_stderr else None,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunFailed(f"{cmd[1:3]} exceeded the run budget") from None
        return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)

    def worker(self, trace=0, setup_only=False, pass_index=0):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--trace", str(trace),
               "--pass-index", str(pass_index)]
        if setup_only:
            cmd.append("--setup-only")
        t_start = time.perf_counter()
        proc = self._run(cmd)
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        result["setup_s"] = result["t_ready"] - t_start
        result["process_s"] = time.perf_counter() - t_start
        return result

    def timed(self, cmd, repeats):
        """Median wall time of a short process, and its last stderr."""
        times, stderr = [], b""
        for _ in range(repeats):
            t0 = time.perf_counter()
            proc = self._run([sys.executable, *cmd], capture_stderr=True)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RunFailed(f"probe {cmd} exited with code {proc.returncode}")
            stderr = proc.stderr
        return statistics.median(times), stderr


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def best_job_s(workers) -> list:
    """Each job's best time over the workers' passes.

    Shared machines alternate between fast and slow spells of several
    seconds; a job's best time over passes is the estimate that repeats
    from run to run.
    """
    return [min(samples) for samples in zip(*(w["job_s"] for w in workers))]


def end_to_end(session: Session) -> tuple[dict, list, dict]:
    # one pass per worker, so no in-memory cache outlives its pass; the pass
    # count is fixed by the workload, so a slow spell of the host does not
    # also shrink the number of passes a job's best time is taken over
    plan = build_plan(session.args.workload, session.args.seed)
    passes = max(MIN_PASSES, int(session.args.seconds // plan["worker_s"]))
    workers = [session.worker(pass_index=index) for index in range(passes)]
    setups = [w["setup_s"] for w in workers]
    setups += [session.worker(setup_only=True)["setup_s"]
               for _ in range(SETUP_REPEATS - len(setups))]
    best_s = best_job_s(workers)
    lat_ms = [1000.0 * x for x in best_s]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best_s),
        "job_ms.p50": statistics.median(lat_ms),
        "job_ms.p90": percentile(lat_ms, 0.9),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    best_of = f"best of {len(workers)} passes"
    notes = {"setup_s": f"median of {len(setups)}", "wall_s": f"jobs at {best_of}",
             "job_ms.p50": f"n={len(lat_ms)} jobs, {best_of}",
             "job_ms.p90": f"n={len(lat_ms)} jobs, {best_of}",
             "ok_frac": f"{attempted - failed}/{attempted}"}
    return metrics, workers, notes


def importtime_cumulative_s(stderr: bytes, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    for line in stderr.decode(errors="replace").splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module and parts[1].isdigit():
            return int(parts[1]) / 1e6
    return 0.0


def per_layer(session: Session) -> tuple[dict, list, dict]:
    # as many untraced/traced pairs as half of --seconds holds, so that the
    # overhead compares best times over several passes on each side
    plan = build_plan(session.args.workload, session.args.seed)
    pairs = max(MIN_PASSES, int(session.args.seconds // (2 * plan["worker_s"])))
    plain, traced = [], []
    for index in range(pairs):
        plain.append(session.worker(pass_index=index))
        traced.append(session.worker(trace=1, pass_index=index))
    metrics = dict(traced[0]["layers"])
    metrics["cli.interpreter_s"] = session.timed(["-c", "pass"], STARTUP_REPEATS)[0]
    metrics["cli.import_s"] = session.timed(["-c", "import genus_forge.cli"], STARTUP_REPEATS)[0]
    runs = [session.timed(["-X", "importtime", "-c", "import genus_forge.cli"], 1)[1]
            for _ in range(STARTUP_REPEATS)]
    metrics["cli.import.scipy_integrate_s"] = statistics.median(
        importtime_cumulative_s(err, "scipy.integrate") for err in runs)
    traced_s, plain_s = sum(best_job_s(traced)), sum(best_job_s(plain))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    notes = {"trace.overhead_frac": f"jobs at best of {pairs}: traced {traced_s:.3f} s, "
                                    f"untraced {plain_s:.3f} s"}
    return metrics, plain + traced, notes


def environment(root: Path, args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": platform.machine(), "platform": platform.platform(), "cpu": cpu,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "scipy": version("scipy"), "click": version("click"),
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loadavg_1m": os.getloadavg()[0],
    }


def declared_metrics(root: Path, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="genus-forge benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "genus_forge" / "__init__.py").is_file():
        print(f"error: {root} holds no src/genus_forge; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = environment(root, args)
    units = declared_metrics(root, args.trace)
    session = Session(root, args)
    try:
        metrics, workers, notes = (per_layer if args.trace else end_to_end)(session)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 3

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "metrics": metrics, "units": units,
              "attempted": attempted, "failed": failed, "failures": failures,
              "pass_s": [w["pass_s"] for w in workers],
              "job_s": [w["job_s"] for w in workers]}
    (out / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(" ".join(f"{k}={env[k]}" for k in ("workload", "seed", "machine", "nproc", "python",
                                              "scipy", "click", "git_sha", "loadavg_1m")))
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {metrics[name]:>16.6g} {units[name]}{note}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
