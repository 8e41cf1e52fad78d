"""Tests of the benchmark itself.

A quick run of every workload, traced and untraced, with every check on; then
proof that each checker rejects a wrong answer, that instances follow the
seed, and that the benchmark refuses to run without the program's source.

    python -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_quick_run_checks_every_output(name, trace):
    result = run.run_workload(name, seed=3, seconds=0, trace=trace, min_ops=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.METRICS


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def instance_files(workdir, name, seed):
    workdir.mkdir()
    load = workloads.build(name, seed, workdir)
    return load, {p.name: p.read_text() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_instances_follow_the_seed(tmp_path, name):
    load, files = instance_files(tmp_path / "a", name, 7)
    assert files and load.round
    assert instance_files(tmp_path / "b", name, 7)[1] == files
    assert instance_files(tmp_path / "c", name, 8)[1] != files


def test_planted_and_parity_instances():
    rng = workloads.random.Random(0)
    for _ in range(50):
        yes = workloads.planted_yes(rng, 12, 1000)
        assert yes.yes and checks.subset_sum_counts(yes.values)[yes.target] > 0
        no = workloads.parity_no(rng, 12, 1000)
        assert not no.yes and no.target % 2 == 1 and all(v % 2 == 0 for v in no.values)


def test_error_below_half_quantum_is_strictly_below():
    for n in (10, 14):
        for vf in (Fraction(1), Fraction(3, 5)):
            err = workloads.below_half_quantum(n, vf)
            q = checks.quantum_length_m(vf)
            assert 2 * n * err < q <= 2 * n * (err + Fraction(1, 10**9))


# --- each checker rejects a wrong answer -----------------------------------

def solve_report(verdict, agreement=True):
    return {"agreement": agreement, "simulator": {"verdict": verdict},
            "oracle": {"verdict": verdict}}


def test_solve_check_rejects_a_flipped_verdict():
    checks.check_solve(0, solve_report("YES"), yes=True)
    checks.check_solve(1, solve_report("NO"), yes=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_solve(1, solve_report("NO"), yes=True)
    with pytest.raises(checks.CheckFailed):
        checks.check_solve(0, solve_report("YES"), yes=False)
    with pytest.raises(checks.CheckFailed):
        checks.check_solve(0, solve_report("YES", agreement=False), yes=True)


VALUES, K = [3, 5, 5, 9], 1


def true_profile():
    shift = len(VALUES) * K
    return sorted((s + shift, c) for s, c in checks.subset_sum_counts(VALUES).items())


def test_profile_checks_accept_the_true_profile():
    pairs = true_profile()
    checks.check_profile_properties(pairs, VALUES, K)
    checks.check_dump_equals_enumeration(pairs, VALUES, K)


@pytest.mark.parametrize("fault", ["one ray missing", "first entry missing",
                                   "moment moved", "not symmetric"])
def test_profile_checks_reject_a_wrong_profile(fault):
    pairs = true_profile()
    if fault == "one ray missing":
        t, c = pairs[3]
        pairs[3] = (t, c - 1)
    elif fault == "first entry missing":
        pairs = pairs[1:]
    elif fault == "moment moved":
        t, c = pairs[-1]
        pairs[-1] = (t + 1, c)
    else:
        (t1, c1), (t2, c2) = pairs[1], pairs[2]
        pairs[1], pairs[2] = (t1, c1 + 1), (t2, c2 - 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_dump_equals_enumeration(pairs, VALUES, K)
    with pytest.raises(checks.CheckFailed):
        checks.check_profile_properties(pairs, VALUES, K)


def perturb_report(misclassified=0, trials=20, error_s="0"):
    return {"trials": trials, "misclassified": misclassified,
            "false_positives": misclassified, "false_negatives": 0,
            "max_arrival_error_s": error_s}


def test_perturb_check_rejects_misclassification_below_half_quantum():
    vf, n = Fraction(1), 10
    small = workloads.below_half_quantum(n, vf)
    large = checks.quantum_length_m(vf) * 2 / 5
    kw = dict(n=n, trials=20, velocity_factor=vf)
    checks.check_perturb(0, perturb_report(), max_error_m=small, **kw)
    checks.check_perturb(0, perturb_report(misclassified=3), max_error_m=large, **kw)
    with pytest.raises(checks.CheckFailed):
        checks.check_perturb(0, perturb_report(misclassified=1), max_error_m=small, **kw)
    with pytest.raises(checks.CheckFailed):
        checks.check_perturb(0, perturb_report(trials=19), max_error_m=small, **kw)
    bound = n * small / checks.LIGHT_SPEED_M_S
    checks.check_perturb(0, perturb_report(error_s=str(bound)), max_error_m=small, **kw)
    with pytest.raises(checks.CheckFailed):
        checks.check_perturb(0, perturb_report(error_s=str(bound * 2)), max_error_m=small, **kw)


def test_compile_check_rejects_a_wrong_length():
    q = checks.quantum_length_m(Fraction(3, 5))
    stages = [{"value": a, "skip_m": workloads.meters(K * q),
               "take_m": workloads.meters((a + K) * q)} for a in VALUES]
    report = {"quantum_length_m": "0.00018", "stages": stages}
    checks.check_compile(0, report, values=VALUES, k=K, velocity_factor=Fraction(3, 5))
    stages[2] = dict(stages[2], take_m=workloads.meters((VALUES[2] + K + 1) * q))
    with pytest.raises(checks.CheckFailed):
        checks.check_compile(0, report, values=VALUES, k=K, velocity_factor=Fraction(3, 5))


def test_analyze_and_epsilon_checks_reject_wrong_reports():
    checks.check_analyze(0, {"max_encodable_value": 10**7},
                         max_cable_m=Fraction(3000), velocity_factor=Fraction(1))
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze(0, {"max_encodable_value": 10**7 + 1},
                             max_cable_m=Fraction(3000), velocity_factor=Fraction(1))
    checks.check_demo_epsilon(0, {"offset_correct": True})
    with pytest.raises(checks.CheckFailed):
        checks.check_demo_epsilon(2, {"offset_correct": False})


def test_a_wrong_report_makes_the_run_incorrect_not_failed():
    outcomes, latencies = run.Outcomes(), []
    op = workloads.Op(("solve", "x.json"), lambda code, report: checks.check_solve(
        code, report, yes=True))
    outcomes.judge(op, lambda argv: (1, json.dumps(solve_report("NO"))), latencies)
    assert outcomes.failed == 0 and len(outcomes.wrong) == 1
    outcomes.judge(op, lambda argv: (1, "Traceback (most recent call last):"), latencies)
    assert outcomes.failed == 1 and len(outcomes.wrong) == 1
    assert len(latencies) == 2
