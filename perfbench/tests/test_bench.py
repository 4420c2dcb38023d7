"""Tests of the benchmark's own code: checker, span arithmetic, seeded
plans, traced-run determinism and the run contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracer
import worker
from workloads import CLI_FIXED, WORKLOADS, build_plan

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def gf():
    return worker.import_package(ROOT)


def _run_plan(plan, gf):
    runner = worker.Runner(plan, ROOT, gf)
    runner.setup()
    outcomes, _ = runner.run_pass()
    return runner, outcomes


SMALL = {
    "workload": "sweep", "seed": 0, "prebuild": False,
    "manifolds": {"K3": ("name", "K3"), "CP2": ("name", "CP2"), "T2": ("name", "T2"),
                  "P": ("product", "K3", "CP2"), "C": ("sum", "K3", "CP2")},
    "seeded": ["P", "C"],
    "jobs": [("genus", m, "ahat") for m in ("K3", "CP2", "T2", "P", "C")]
    + [("elliptic", m, "witten", 49) for m in ("K3", "CP2", "P", "C")],
}


def _checker(plan, runner, gf):
    return checks.Checker(plan, checks.Facts(plan, runner.leaves), gf.errors,
                          checks.load_expected())


def _tamper(outcomes, plan, job, value):
    out = list(outcomes)
    out[plan["jobs"].index(job)] = ("ok", value)
    return out


def test_checker_passes_true_outputs(gf):
    runner, outcomes = _run_plan(SMALL, gf)
    assert _checker(SMALL, runner, gf).check_pass(outcomes) == [None] * len(SMALL["jobs"])


@pytest.mark.parametrize("job, rule", [
    (("genus", "K3", "ahat"), "expected 2"),            # known value and digest
    (("genus", "P", "ahat"), "multiplicativity"),        # seeded product
    (("genus", "C", "ahat"), "additivity"),              # seeded connected sum
])
def test_checker_flags_wrong_rational(gf, job, rule):
    runner, outcomes = _run_plan(SMALL, gf)
    value = outcomes[SMALL["jobs"].index(job)][1]
    verdicts = _checker(SMALL, runner, gf).check_pass(_tamper(outcomes, SMALL, job, value + 1))
    assert rule in verdicts[SMALL["jobs"].index(job)]


def test_checker_flags_wrong_series(gf):
    runner, outcomes = _run_plan(SMALL, gf)
    job = ("elliptic", "P", "witten", 49)
    good = outcomes[SMALL["jobs"].index(job)][1]
    bad = dataclasses.replace(good, series=good.series + gf.qseries.QSeries({4: 1}, good.series.trunc))
    verdicts = _checker(SMALL, runner, gf).check_pass(_tamper(outcomes, SMALL, job, bad))
    assert "multiplicativity" in verdicts[SMALL["jobs"].index(job)]
    # the same tampering on a fixed catalog entry trips the stored digest
    job = ("elliptic", "K3", "witten", 49)
    good = outcomes[SMALL["jobs"].index(job)][1]
    bad = dataclasses.replace(good, series=good.series + gf.qseries.QSeries({6: 1}, good.series.trunc))
    verdicts = _checker(SMALL, runner, gf).check_pass(_tamper(outcomes, SMALL, job, bad))
    assert "seed implementation" in verdicts[SMALL["jobs"].index(job)]


def test_checker_requires_documented_refusal(gf):
    runner, outcomes = _run_plan(SMALL, gf)
    job = ("genus", "T2", "ahat")
    assert outcomes[SMALL["jobs"].index(job)][0] == "raised"
    verdicts = _checker(SMALL, runner, gf).check_pass(_tamper(outcomes, SMALL, job, Fraction(0)))
    assert "expected DimensionError" in verdicts[SMALL["jobs"].index(job)]
    wrong_error = ("raised", gf.errors.InsufficientData("not the documented refusal"))
    out = list(outcomes)
    out[SMALL["jobs"].index(job)] = wrong_error
    assert "got InsufficientData" in _checker(SMALL, runner, gf).check_pass(out)[SMALL["jobs"].index(job)]


def test_checker_float_and_cli_paths():
    ref = checks.load_cob_ref()["2,1.15"]
    plan = {"workload": "float", "manifolds": {}, "seeded": [],
            "jobs": [("cob", 2, 1.15, "bisection"), ("cover", 2, (3, 4), 2),
                     ("cli",) + CLI_FIXED[0]]}
    checker = checks.Checker(plan, None, None, checks.load_expected(), checks.load_cob_ref())
    cover = type("R", (), {"base_diam": 3, "cover_diam": 7, "index": 4, "inequality_holds": True})
    good = [("ok", float(ref)), ("ok", cover), ("ok", (0, b"placeholder"))]
    verdicts = checker.check_pass(good)
    assert verdicts[:2] == [None, None]
    assert "cli catalog list" in verdicts[2]  # wrong bytes
    cover.cover_diam = 6
    bad = [("ok", float(ref) * (1 + 3e-10)), ("ok", cover), ("ok", (1, b""))]
    assert all(v is not None for v in checker.check_pass(bad))


def test_cob_reference_matches_closed_form_at_m2():
    # m = 2: x (sinh b + x (cosh b - 1)) = 2, a quadratic in x
    for key, ref in checks.load_cob_ref().items():
        m, b = key.split(",")
        if m != "2":
            continue
        b = float(b)
        a, c = math.cosh(b) - 1.0, math.sinh(b)
        root = (-c + math.sqrt(c * c + 8.0 * a)) / (2.0 * a)
        assert abs(root - float(ref)) <= 1e-12 * root


def test_self_time_on_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("b", 2.0, 5.0, 0),      # overlaps a
        ("a", 1.0, 3.0, 0),
        ("c", 6.0, 7.0, 0),
        ("d", 9.0, 12.0, 0),     # runs past its parent's end
        ("e", 6.2, 6.5, 3),
    ]
    own = tracer.self_times(spans)
    expected = [10.0 - (4.0 + 1.0 + 1.0), 3.0, 2.0, 1.0 - 0.3, 3.0, 0.3]
    assert own == pytest.approx(expected)
    stats = tracer.Stats()
    stats.add({"spans": spans, "keys": {}, "maxima": {}, "totals": {}})
    assert stats.calls["root"] == 1
    assert stats.self_s["c"] == pytest.approx(0.7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_plan(workload):
    assert build_plan(workload, 11) == build_plan(workload, 11)


def test_different_seed_changes_only_the_random_part():
    a, b = build_plan("sweep", 1), build_plan("sweep", 2)
    fixed = [j for j in a["jobs"] if j[1] not in a["seeded"]]
    assert fixed == [j for j in b["jobs"] if j[1] not in b["seeded"]]
    assert [a["manifolds"][n] for n in a["seeded"]] != [b["manifolds"][n] for n in b["seeded"]]
    assert build_plan("deep", 1)["manifolds"]["R24"] != build_plan("deep", 2)["manifolds"]["R24"]
    fa, fb = build_plan("float", 1)["jobs"], build_plan("float", 2)["jobs"]
    assert [j for j in fa if j[0] != "cover"] == [j for j in fb if j[0] != "cover"]
    assert [j for j in fa if j[0] == "cover"] != [j for j in fb if j[0] == "cover"]
    ca, cb = build_plan("cli", 1)["jobs"], build_plan("cli", 2)["jobs"]
    assert ca != cb and sorted(ca) != sorted(cb)
    assert all(("cli",) + argv in ca for argv in CLI_FIXED)


def _traced_layers(workload):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "7",
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=300, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload", ["sweep", "float"])
def test_traced_counts_repeat(workload):
    first, second = _traced_layers(workload), _traced_layers(workload)
    counts = [name for name in first if not name.endswith("self_s") and name != "covering.vertices_per_s"]
    assert any(first[name] for name in counts)
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert (BENCH / "out" / f"spans-{workload}-s7.jsonl").stat().st_size > 0


def test_importtime_parser():
    sample = (b"import time: self [us] | cumulative | imported package\n"
              b"import time:       120 |       4567 |   scipy.integrate\n"
              b"import time:        10 |         10 | scipy.integrate._quadpack\n")
    assert run.importtime_cumulative_s(sample, "scipy.integrate") == pytest.approx(0.004567)
    assert run.importtime_cumulative_s(sample, "numpy") == 0.0


def test_run_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout


@pytest.mark.parametrize("workload", ["float", "float-wide"])
def test_cob_grid_has_references(workload):
    refs = checks.load_cob_ref()
    cob = [job for job in build_plan(workload, 1)["jobs"] if job[0] == "cob"]
    assert len(cob) == 2 * 11 * (20 if workload == "float" else 10)
    assert all(f"{m},{b}" in refs for _, m, b, _ in cob)
