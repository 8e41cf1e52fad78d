"""Acceptance suite.

Every criterion the package must meet, one test per criterion, each printing
a single pass/fail line (visible with `pytest -s` or in failure output). All
comparisons are exact; the only tolerance anywhere is the wall-clock budget
of criterion 1.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import lightsum as ls

from helpers import arrivals

P = ls.PhysicalParams()


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_instance(rng: random.Random, max_n: int, max_value: int) -> ls.Instance:
    n = rng.randint(1, max_n)
    values = [rng.randint(1, max_value) for _ in range(n)]
    if rng.random() < 0.4:  # plant an exact subset sum so YES cases stay common
        target = sum(rng.sample(values, rng.randint(0, n)))
    else:
        target = rng.randint(0, sum(values) + 10)
    return ls.Instance.from_values(values, target)


def simulator_verdict(inst: ls.Instance, params: ls.PhysicalParams = P) -> ls.Verdict:
    halves = ls.propagate_halves(ls.compile_layout(inst, params))
    return ls.detect(halves, inst, params).verdict


def test_criterion_1_oracle_equivalence_on_500_instances():
    rng = random.Random(20260811)
    start = time.perf_counter()
    mismatches = 0
    yes = 0
    for _ in range(500):
        inst = _random_instance(rng, max_n=20, max_value=10**4)
        sim = simulator_verdict(inst)
        if sim is not ls.solve_dp(inst).verdict or sim is not ls.solve_mitm(inst).verdict:
            mismatches += 1
        if sim is ls.Verdict.YES:
            yes += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 oracle equivalence",
        mismatches == 0 and elapsed < 60.0,
        f"500 instances, {yes} YES, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_two_stage_moments_and_binary_profile():
    inst = ls.Instance.from_values([1, 2], 0)
    profile = ls.propagate(ls.compile_layout(inst, P))
    two_stage_ok = arrivals(profile) == {2: 1, 3: 1, 4: 1, 5: 1}

    inst = ls.Instance.from_values([1, 2, 4, 8], 0)
    profile = ls.propagate(ls.compile_layout(inst, P))
    n, k = 4, P.offset_k_quanta
    binary_ok = arrivals(profile) == {t + n * k: 1 for t in range(16)}
    _report(
        "criterion 2 reference profiles",
        two_stage_ok and binary_ok,
        "two-stage moments {2,3,4,5}; 16 singleton moments for {1,2,4,8}",
    )


def test_criterion_3_profile_invariants_on_100_instances():
    rng = random.Random(31415926)
    failures = 0
    for _ in range(100):
        k = rng.choice([1, 2, 5])
        params = ls.PhysicalParams(offset_k_quanta=k)
        inst = _random_instance(rng, max_n=16, max_value=10**4)
        profile = ls.propagate(ls.compile_layout(inst, params))
        n, total = inst.n, inst.total
        ok = sum(profile.counts.tolist()) == 2**n
        counts = arrivals(profile)
        mirror = total + 2 * n * k
        ok = ok and all(counts.get(mirror - t, 0) == c for t, c in counts.items())
        ok = ok and counts.get(n * k, 0) == 1
        ok = ok and counts.get(total + n * k, 0) == 1
        if not ok:
            failures += 1
    _report(
        "criterion 3 profile invariants",
        failures == 0,
        f"conservation, complement symmetry, extremes on 100 instances; {failures} failures",
    )


def test_criterion_4_encodable_value_bounds():
    derived_quantum = ls.model.LIGHT_SPEED_M_S * P.velocity_factor * P.delay_quantum_s
    ok = (
        P.delay_quantum_s == Fraction(1, 10**12)
        and ls.model.LIGHT_SPEED_M_S == 3 * 10**8
        and derived_quantum == Fraction(3, 10000)
        and ls.max_encodable(3000, P) == 10**7
        and ls.max_encodable(300000, P) == 10**9
    )
    _report(
        "criterion 4 cable-length bounds",
        ok,
        "3 km -> 1e7 quanta, 300 km -> 1e9 quanta at the 0.0003 m quantum",
    )


def test_criterion_5_power_model():
    halving_ok = True
    for trans in (Fraction(1), Fraction(1, 2), Fraction(9, 10)):
        params = ls.PhysicalParams(splitter_transmission=trans)
        for n in range(0, 40):
            if ls.per_ray_power(n + 1, params) != ls.per_ray_power(n, params) * trans / 2:
                halving_ok = False
    gain_params = ls.PhysicalParams(
        detector_gain=10**8, detection_threshold_w=P.source_power_w
    )
    n26_ok = ls.max_detectable_n(gain_params) == 26
    _report(
        "criterion 5 power model",
        halving_ok and n26_ok,
        "exact halving per stage; gain 1e8 supports exactly n=26",
    )


def test_criterion_6_epsilon_device_false_positive():
    inst = ls.Instance.from_values([5, 9, 10, 11], 8)
    demo = ls.epsilon_false_positive_demo(inst, 1, P)
    raw_moment_hit = (
        arrivals(ls.propagate(ls.compile_epsilon_layout(inst, 1))).get(8, 0) >= 1
    )
    ok = (
        demo.epsilon_verdict is ls.Verdict.YES
        and demo.offset_verdict is ls.Verdict.NO
        and demo.oracle_verdict is ls.Verdict.NO
        and raw_moment_hit
        and ls.solve_mitm(inst).verdict is ls.Verdict.NO
    )
    _report(
        "criterion 6 epsilon false positive",
        ok,
        "epsilon device spuriously fires at raw moment 8; offset device and oracles say NO",
    )


def test_criterion_7_perturbation_robustness():
    cases = [([2, 4], 3), ([1, 2, 3], 5), ([1, 1, 1], 4)]

    def run(max_error_m, trials, seed):
        worst = 0
        for values, target in cases:
            inst = ls.Instance.from_values(values, target)
            rep = ls.perturb_and_classify(inst, P, max_error_m, trials, seed)
            worst = max(worst, rep.misclassified)
        return worst

    zero_ok = run(0, trials=1000, seed=1) == 0

    sub_half_ok = True
    for values, target in cases:
        inst = ls.Instance.from_values(values, target)
        budget = P.quantum_length_m / (2 * inst.n) * Fraction(99, 100)
        rep = ls.perturb_and_classify(inst, P, budget, 1000, rng_seed=2)
        sub_half_ok = sub_half_ok and rep.misclassified == 0

    crafted = ls.Instance.from_values([1, 1, 1], 4)
    rep = ls.perturb_and_classify(crafted, P, Fraction(4, 10) * P.quantum_length_m, 300,
                                  rng_seed=0)
    crafted_ok = rep.misclassified >= 1

    _report(
        "criterion 7 perturbation robustness",
        zero_ok and sub_half_ok and crafted_ok,
        f"zero-error and sub-half-quantum clean; crafted 0.4-quantum offsets "
        f"misclassified {rep.misclassified}/300",
    )


def test_criterion_8_offset_and_slow_light_invariance():
    rng = random.Random(271828)
    offsets = (1, 5, 1000)
    factors = (Fraction(1), Fraction(3, 5), Fraction(1, 10**7))
    bad = 0
    for _ in range(50):
        inst = _random_instance(rng, max_n=10, max_value=100)
        reference = ls.solve_dp(inst).verdict
        for k in offsets:
            params = ls.PhysicalParams(offset_k_quanta=k)
            layout = ls.compile_layout(inst, params)
            base_lengths = ls.cable_lengths(layout, params)
            for factor in factors:
                slowed = ls.slow_light_rescale(params, factor)
                report = ls.detect(ls.propagate_halves(layout), inst, slowed)
                if report.verdict is not reference:
                    bad += 1
                if report.checked_moment != inst.target + inst.n * k:
                    bad += 1
                lengths = ls.cable_lengths(layout, slowed)
                if lengths != [length * factor for length in base_lengths]:
                    bad += 1
    _report(
        "criterion 8 offset and slow-light invariance",
        bad == 0,
        "verdicts stable across k in {1,5,1000} x factors {1,0.6,1e-7} on 50 instances",
    )
