"""The committed speed records, `BENCH_<n>.json`, and the comparison that
`scripts/bench_record.py --compare` prints.

No test looks a SHA up in git: a shallow checkout holds only its head."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_record  # noqa: E402

RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))


def test_records_are_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_every_gated_workload_and_metric(path):
    record = json.loads(path.read_text())
    workloads, units, seconds = bench_record.gated(ROOT)
    assert record["format"] == bench_record.FORMAT
    assert f" --seconds {seconds} --trace 0" in record["harness"]
    assert path.name == f"BENCH_{record['number']}.json"
    assert len(record["git_sha"]) == 40 and record["src_sha256"]
    assert record["host"]["python"] and record["host"]["python_c_pass_s"] > 0
    assert set(workloads) <= set(record["workloads"])
    for name in workloads:
        workload = record["workloads"][name]
        assert all({"header", "correct", "failed"} <= set(run) for run in workload["runs"])
        assert all(run["header"].startswith(f"workload={name} ") for run in workload["runs"])
        assert set(workload["metrics"]) == set(units)
        for metric, unit in units.items():
            summary = workload["metrics"][metric]
            assert summary["unit"] == unit
            assert summary["n"] == len(summary["values"]) == len(workload["runs"]) >= 5
            assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert record["counts"]["counter"].startswith("Python ")
    assert record["counts"]["commands"]
    assert all(c["exit"] == 0 for c in record["counts"]["commands"].values())


@pytest.mark.parametrize("a, b", zip(RECORDS, RECORDS[1:]),
                         ids=[f"{a.stem}-{b.stem}" for a, b in zip(RECORDS, RECORDS[1:])])
def test_adjacent_records_compare(a, b):
    # every committed record still reads with today's --compare
    lines = bench_record.compare(a, b)
    digests = [json.loads(p.read_text())["src_sha256"][0][:12] for p in (a, b)]
    assert lines[0].startswith(f"A: {a} (") and all(d in lines[0] for d in digests)
    workloads, units, _ = bench_record.gated(ROOT)
    for name in workloads:
        assert any(line.startswith(f"{name}: runs with failures ") for line in lines)
    assert sum(line.split()[0] in units for line in lines) == len(workloads) * len(units)
    assert lines[-1].startswith("  ")  # the counts close the comparison


def _record(values, python="3.11.7", pass_s=0.040, opcodes=1000, pair_id="ab", src="a" * 64):
    metrics = {"wall_s": {"unit": "s", **bench_record.summary(values)}}
    return {"format": 1, "number": 1, "git_sha": "0" * 40, "src_sha256": [src],
            "pair_id": pair_id, "host": {"python": python, "python_c_pass_s": pass_s},
            "workloads": {"float": {"runs": [{"header": "", "correct": True, "failed": 0}]
                                    * len(values), "metrics": metrics}},
            "counts": {"counter": f"Python {python}", "commands": {
                "bound cb": {"opcodes": opcodes, "modules": 27, "source_bytes": 500,
                             "exit": 0}}}}


def _compare(tmp_path, a, b):
    paths = []
    for name, record in (("A.json", a), ("B.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(record))
    return bench_record.compare(*paths)


def test_compare_resolves_only_outside_the_quartiles(tmp_path):
    a = _record([10.0, 11.0, 12.0, 13.0, 14.0])  # quartiles 11 and 13
    lines = _compare(tmp_path, a, _record([8.0, 9.0, 10.0, 11.0, 12.0], opcodes=967, src="b" * 64))
    assert not any(line.startswith("WARNING") for line in lines)
    assert "float: runs with failures 0/5 -> 0/5" in lines
    assert ("  wall_s       12 [11, 13] -> 10 [9, 11] s -16.7% resolved, lower, "
            "B lower in 5 of 5 pairs") in lines
    assert "  bound cb: opcodes 1,000 -> 967 (-33), modules 27 -> 27 (+0), " \
           "source_bytes 500 -> 500 (+0)" in lines
    # inside A's quartiles, and from another session: no pair count
    lines = _compare(tmp_path, a, _record([11.0, 11.5, 12.5, 13.0, 13.5], pair_id=None,
                                          src="b" * 64))
    assert "  wall_s       12 [11, 13] -> 12.5 [11.5, 13] s +4.2% unresolved" in lines


def test_compare_warns_when_hosts_differ(tmp_path):
    a = _record([1.0, 2.0, 3.0])
    lines = _compare(tmp_path, a, _record([1.0, 2.0, 3.0], python="3.12.1", pass_s=0.045,
                                          src="b" * 64))
    assert lines[1] == "WARNING: Python 3.11.7 against 3.12.1: times and counts are not " \
                       "comparable"
    assert lines[2] == "WARNING: python -c pass 40.0 ms against 45.0 ms (+12.5%): the hosts " \
                       "differ"
    lines = _compare(tmp_path, a, _record([1.0, 2.0, 3.0], pass_s=0.043, src="b" * 64))
    assert not any(line.startswith("WARNING") for line in lines)


def test_compare_names_the_program_and_warns_on_one_digest(tmp_path):
    # two records of one SHA tell their programs apart by the src/ digest
    a = _record([1.0, 2.0, 3.0], src="1234567890ab" + "c" * 52)
    lines = _compare(tmp_path, a, _record([1.0, 2.0, 3.0], src="fedcba098765" + "c" * 52))
    assert lines[0] == (f"A: {tmp_path / 'A.json'} ({'0' * 40}, src 1234567890ab), "
                        f"B: {tmp_path / 'B.json'} ({'0' * 40}, src fedcba098765)")
    assert not any(line.startswith("WARNING") for line in lines)
    lines = _compare(tmp_path, a, _record([1.0, 2.0, 3.0], src="1234567890ab" + "c" * 52))
    assert lines[1] == "WARNING: A and B hold the same src/ digest: they measure one program"


@pytest.mark.parametrize("argv, existing, named", [
    (["--number", "5"], "BENCH_5.json", "BENCH_5.json exists"),
    (["--number", "6", "--parent", ".", "--parent-number", "5"], "BENCH_5.json",
     "BENCH_5.json exists"),
    (["--number", "7", "--parent", ".", "--parent-number", "7"], None,
     "would overwrite BENCH_7.json"),
])
def test_record_refuses_to_overwrite_before_any_run(tmp_path, monkeypatch, capsys, argv,
                                                    existing, named):
    def run_once(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_record, "run_once", run_once)
    if existing:
        (tmp_path / existing).write_text("{}")
    with pytest.raises(SystemExit) as info:
        bench_record.main(["--root", str(tmp_path), *argv])
    assert info.value.code == 2
    assert named in capsys.readouterr().err
    if existing:
        assert (tmp_path / existing).read_text() == "{}"


def test_compare_names_what_only_b_holds(tmp_path):
    a = _record([1.0, 2.0, 3.0])
    b = _record([1.0, 2.0, 3.0], src="b" * 64)
    b["workloads"]["deep"] = b["workloads"]["float"]
    b["counts"]["commands"]["bound cb --m 7"] = b["counts"]["commands"]["bound cb"]
    lines = _compare(tmp_path, a, b)
    assert "deep: only in B" in lines and "  bound cb --m 7: only in B" in lines
    assert lines.index("deep: only in B") < lines.index("counts: Python 3.11.7 -> Python 3.11.7")
    assert not any("only in A" in line for line in lines)
    # the other way round, each is only in A
    lines = _compare(tmp_path, b, a)
    assert "deep: only in A" in lines and "  bound cb --m 7: only in A" in lines
