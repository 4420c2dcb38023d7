#!/usr/bin/env python3
"""Regenerate data/expected.json: digests of the exact outputs of every
job whose inputs do not depend on the seed (sweep and deep), and the exit
code and stdout digest of every CLI command the cli workload can draw.

Run it from the root of a checkout of the implementation whose outputs
are the reference (the outputs must not change under a refactor):

    python3 perfbench/regen_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import CLI_COMPUTE_POOL, CLI_FIXED, build_plan  # noqa: E402


def main() -> None:
    root = Path.cwd()
    gf = worker.import_package(root)
    expected = {}
    for workload in ("sweep", "deep"):
        plan = build_plan(workload, 0)
        runner = worker.Runner(plan, root, gf)
        runner.setup()
        for index, job in enumerate(plan["jobs"]):
            key = checks.job_key(plan, job)
            if key is None:
                continue
            try:
                outcome = ("ok", runner.call(job, index))
            except gf.errors.GenusForgeError as exc:
                outcome = ("raised", exc)
            expected[key] = checks.digest(outcome)
    plan = {"workload": "cli", "manifolds": {}, "seeded": [],
            "jobs": [("cli",) + argv for argv in CLI_FIXED + CLI_COMPUTE_POOL]}
    runner = worker.Runner(plan, root)
    for job in plan["jobs"]:
        expected[checks.job_key(plan, job)] = checks.cli_digest(("ok", runner.call(job, -1)))
    target = HERE / "data" / "expected.json"
    target.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} digests to {target}")


if __name__ == "__main__":
    main()
