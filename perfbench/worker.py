"""One benchmark process: set up a workload, run its timed phase, check
every output, and print one JSON line with the raw measurements.

Started by run.py in a fresh interpreter, from the root of a checkout:

    python3 perfbench/worker.py --workload sweep --seed 1 --trace 0

The timed phase is exactly one pass: the workload's fixed job list, run
once.  run.py repeats passes in new workers, so nothing a pass caches in
memory survives into the next.  --pass-index picks the CPU the pass runs
on.  With --trace 1 the pass runs with every layer wrapped, so the
per-layer counts of two traced runs of one seed are identical.
--setup-only stops after set-up, so run.py can repeat the set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import CLI_WARMUP, build_plan  # noqa: E402

CLI_ENTRY = "import sys; from genus_forge.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120


def cli_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("GENUS_FORGE_CATALOG", None)
    return env


def import_package(root: Path):
    """Import genus_forge from the checkout's src/, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    os.environ.pop("GENUS_FORGE_CATALOG", None)
    import genus_forge
    # names the README does not list as entry points are taken from their modules
    import genus_forge.bounds
    import genus_forge.covering
    import genus_forge.errors
    import genus_forge.manifolds
    import genus_forge.qseries  # noqa: F401
    if Path(genus_forge.__file__).resolve().parent != (src / "genus_forge").resolve():
        raise SystemExit(f"genus_forge imported from {genus_forge.__file__}, not {src}")
    warnings.simplefilter("error", genus_forge.errors.NonIntegralIndexWarning)
    return genus_forge


class Runner:
    """Materialises a plan into callables and runs them."""

    def __init__(self, plan: dict, root: Path, gf=None, trace_dir: Path | None = None):
        self.plan, self.root, self.gf, self.trace_dir = plan, root, gf, trace_dir
        self.leaves = {}   # resolved catalog/builtin data, for the checker's facts
        self.built = {}    # set-up objects: random leaves, and composites when prebuilt

    def setup(self) -> None:
        plan, gf = self.plan, self.gf
        if plan["workload"] == "cli":
            self.run_cli(CLI_WARMUP)  # untimed warm-up process
            return
        gf.load_default_catalog()
        for recipe in plan["manifolds"].values():
            if recipe[0] == "name" and recipe[1] not in self.leaves:
                self.leaves[recipe[1]] = gf.resolve(recipe[1])
        for name, recipe in plan["manifolds"].items():
            if recipe[0] == "rand":
                numbers = {tuple(lam): value for lam, value in recipe[2]}
                self.built[name] = gf.manifolds.ManifoldData(
                    name=name, real_dim=recipe[1], pontryagin_numbers=numbers)
        if plan["prebuild"]:
            for name, recipe in plan["manifolds"].items():
                if recipe[0] in ("product", "sum"):
                    self.built[name] = self.manifold(name)

    def manifold(self, name: str):
        if name in self.built:
            return self.built[name]
        recipe, gf = self.plan["manifolds"][name], self.gf
        if recipe[0] == "name":
            return gf.resolve(recipe[1])
        combine = gf.manifolds.product if recipe[0] == "product" else gf.manifolds.connected_sum
        return combine(self.manifold(recipe[1]), self.manifold(recipe[2]), name=name)

    def run_cli(self, argv, job_index: int = -1):
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        if self.trace_dir is not None and job_index >= 0:
            out = self.trace_dir / f"cli-{os.getpid()}-{job_index}.json"
            cmd = [sys.executable, str(HERE / "clishim.py"), "--out", str(out),
                   "--job", str(job_index), "--", *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=cli_env(self.root),
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def call(self, job, index: int):
        op, gf = job[0], self.gf
        if op == "cli":
            return self.run_cli(job[1:], index)
        if op == "genus":
            return gf.genus_value(self.manifold(job[1]), job[2])
        if op == "elliptic":
            return gf.elliptic_genus(self.manifold(job[1]), job[2], job[3])
        if op == "indices":
            return gf.twisted_indices(self.manifold(job[1]), job[2], job[3])
        if op == "fit":
            return gf.witten_fit(self.manifold(job[1]), job[2])
        if op == "mrc":
            return gf.modular_relation_check(self.manifold(job[1]), tau_im=job[2], q_trunc=job[3])
        if op == "cob":
            return gf.bounds.c_of_b(job[1], job[2], method=job[3])
        if op == "ibr":
            m, p, lam, diam, b = job[1:]
            return gf.index_bound_report(gf.BoundParams(m=m, p=p, Lambda=lam, diam=diam, b=b))
        if op == "cover":
            return gf.cover_diameter(job[1], job[2], job[3])
        if op == "tower":
            return gf.covering.tower(job[1], job[2])
        if op == "l2":
            return gf.l2_betti_ratio(job[1], job[2], job[3])
        raise ValueError(f"unknown job {job!r}")

    def run_pass(self, tracer=None) -> tuple[list, list]:
        """Run every job once; returns the outcomes and per-job seconds."""
        outcomes, latencies = [], []
        clock = time.perf_counter
        for index, job in enumerate(self.plan["jobs"]):
            span = None
            if tracer is not None:
                tracer.current_job = index
                span = tracer.open(tracer.intern("bench.job"))
            t0 = clock()
            try:
                outcome = ("ok", self.call(job, index))
            except Exception as exc:  # a job failure is a measured outcome
                outcome = ("raised", exc)
            latencies.append(clock() - t0)
            if span is not None:
                tracer.close(span)
            outcomes.append(outcome)
        return outcomes, latencies


CPUS = sorted(os.sched_getaffinity(0))


def pin_for_pass(index: int) -> None:
    """Run pass `index` on one CPU, taking the CPUs in turn.

    On a shared host one CPU can run much slower than the other for
    seconds at a time; taking each job's best over passes spread across
    the CPUs gives timings that repeat from run to run.  The worker pins
    itself only after set-up, so libraries that size thread pools at
    import time see every CPU.
    """
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pass-index", type=int, default=0,
                        help="index of this worker's pass in the run; picks its CPU")
    args = parser.parse_args(argv)

    root = Path.cwd()
    plan = build_plan(args.workload, args.seed)
    gf = import_package(root) if args.workload != "cli" else None
    out_dir = root / "perfbench" / "out"
    tracer = None
    undo = []
    if args.trace and gf is not None:
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    runner = Runner(plan, root, gf, trace_dir=out_dir if args.trace else None)
    if args.trace:
        out_dir.mkdir(parents=True, exist_ok=True)
    runner.setup()
    t_ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    # timed phase; cli jobs are processes of their own, left on every CPU
    if args.workload != "cli":
        pin_for_pass(args.pass_index)
    t0 = time.perf_counter()
    outcomes, job_s = runner.run_pass(tracer)
    pass_s = time.perf_counter() - t0
    rss = peak_rss_mb(args.workload)
    tracing.uninstall(undo)

    # untimed checks
    facts = checks.Facts(plan, runner.leaves) if gf is not None else None
    checker = checks.Checker(plan, facts, gf.errors if gf else None, checks.load_expected(),
                             checks.load_cob_ref() if args.workload.startswith("float") else None)
    failures = [v for v in checker.check_pass(outcomes) if v is not None]

    result = {"t_ready": t_ready, "pass_s": pass_s, "job_s": job_s,
              "peak_rss_mb": rss, "attempted": len(job_s), "failed": len(failures),
              "failures": failures[:200]}
    if args.trace:
        result["layers"] = traced_layers(args, tracer, out_dir)
    print(json.dumps(result))
    return 0


def traced_layers(args, tracer, out_dir: Path) -> dict:
    """Per-layer metrics of the traced pass; also writes the spans file."""
    traces = []
    if tracer is not None:
        traces.append(tracer.to_dict())
    else:  # cli: one trace file per traced process
        for path in sorted(out_dir.glob(f"cli-{os.getpid()}-*.json"),
                           key=lambda p: int(p.stem.rsplit("-", 1)[1])):
            traces.append(json.loads(path.read_text()))
            path.unlink()
    stats = tracing.Stats()
    spans, offset = [], 0
    for trace in traces:
        stats.add(trace)
        spans += [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4]]
                  for s in trace["spans"]]
        offset += len(trace["spans"])
    tracing.write_spans(out_dir / f"spans-{args.workload}-s{args.seed}.jsonl", spans)
    return tracing.layer_metrics(stats)


if __name__ == "__main__":
    sys.exit(main())
