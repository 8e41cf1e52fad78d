"""The classical solvers against naive enumeration, the simulated device and
each other."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightsum as ls
from lightsum import oracles

from helpers import subset_sums

small_instance = st.builds(
    lambda values, target: ls.Instance.from_values(values, target),
    st.lists(st.integers(1, 60), min_size=0, max_size=10),
    st.integers(0, 300),
)


def test_dp_yes_case():
    assert ls.solve_dp(ls.Instance.from_values([1, 2, 3], 5)).verdict is ls.Verdict.YES


def test_dp_no_case():
    assert ls.solve_dp(ls.Instance.from_values([2, 4], 3)).verdict is ls.Verdict.NO


def test_dp_empty_set_zero_target_is_yes():
    assert ls.solve_dp(ls.Instance.from_values([], 0)).verdict is ls.Verdict.YES


def test_dp_target_budget(monkeypatch):
    # a target that the values can reach, so the DP must size its table
    monkeypatch.setattr(oracles, "DP_MAX_TABLE_BITS", 10**6)
    with pytest.raises(ls.ResourceLimit):
        ls.solve_dp(ls.Instance.from_values([1, 10**6], 10**6))


@pytest.mark.parametrize("solver", [ls.solve_dp, ls.solve_mitm, ls.solve_auto])
def test_a_target_past_the_sum_is_no_before_any_cap(solver):
    # 46 unit values pass meet-in-the-middle's cap, and a target of 2e8 the
    # DP's table budget: each solver answers NO at once, there and one past
    # the sum
    for target in (47, 2 * 10**8):
        assert solver(ls.Instance.from_values([1] * 46, target)).verdict is ls.Verdict.NO


def test_int64_enumeration_is_exact_up_to_the_delay_bound():
    # instances past 2^62 never reach an oracle; just inside it, the int64
    # subset sums and target - left are exact
    with pytest.raises(ls.Overflow):
        ls.Instance.from_values([10**30, 10**30], 2 * 10**30)
    a = 2**61 - 2
    for target, verdict in ((2 * a, ls.Verdict.YES), (2**61, ls.Verdict.NO)):
        inst = ls.Instance.from_values([a, a], target)
        for solve in (ls.solve_mitm, ls.solve_auto):
            assert solve(inst).verdict is verdict, (solve, target)


def test_dp_skips_values_above_the_target():
    # shifting the table by 10^18 would build an integer of 10^18 bits
    inst = ls.Instance.from_values([10**18, 2, 3], 5)
    assert ls.solve_dp(inst).verdict is ls.Verdict.YES
    assert ls.solve_dp(ls.Instance.from_values([10**18] * 4, 1)).verdict is ls.Verdict.NO


def test_dp_verdict_agrees_with_naive_enumeration_on_a_grid():
    # targets of 0, sums of the smallest values alone (the table stops once
    # the target is reached) and one beside them, repeated values, and values
    # above the target, some far above it
    rng = random.Random(31)
    for n in range(13):
        for _ in range(6):
            pool = [rng.randint(1, rng.choice([3, 40, 500])) for _ in range(rng.randint(1, 4))]
            values = [rng.choice(pool + [10**12]) for _ in range(n)]
            ascending = sorted(values)
            total = sum(values)
            reachable = subset_sums(values)
            targets = {0, total, total + 1, rng.randint(0, 500), rng.randint(0, total)}
            for j in range(1, n + 1):
                smallest = sum(ascending[:j])
                targets |= {smallest, smallest + 1, max(0, smallest - 1)}
            # a target of 10^12 or more is past the DP's table budget
            for target in sorted(t for t in targets if t < 10**6):
                inst = ls.Instance.from_values(values, target)
                expected = ls.Verdict.from_bool(target in reachable)
                assert ls.solve_dp(inst).verdict is expected, inst


def test_mitm_basic_cases():
    assert ls.solve_mitm(ls.Instance.from_values([1, 2, 3], 5)).verdict is ls.Verdict.YES
    assert ls.solve_mitm(ls.Instance.from_values([2, 4], 3)).verdict is ls.Verdict.NO


def test_mitm_handles_targets_too_large_for_dp():
    inst = ls.Instance.from_values([10**9, 10**9], 2 * 10**9)
    assert ls.solve_mitm(inst).verdict is ls.Verdict.YES
    assert ls.solve_auto(inst).verdict is ls.Verdict.YES


def test_mitm_agrees_with_the_device_up_to_twenty_values():
    # repeated values, a target of 0, targets around the sum and past it, and
    # odd and even n, where the halves differ in length or not; values to
    # 10^9 are past the DP's table, and the simulated device, which shares no
    # code with the oracles, counts the rays at B + n*k
    params = ls.PhysicalParams()
    rng = random.Random(12)
    for n in range(21):
        for _ in range(4):
            pool = [rng.randint(1, rng.choice([3, 50, 10**9])) for _ in range(rng.randint(1, 4))]
            values = [rng.choice(pool) for _ in range(n)]
            total = sum(values)
            targets = {0, total, total + 1, rng.randint(0, total), rng.randint(0, total)}
            for target in sorted(targets):
                inst = ls.Instance.from_values(values, target)
                halves = ls.propagate_halves(ls.compile_layout(inst, params))
                rays = halves.count_at(target + n * params.offset_k_quanta)
                assert ls.solve_mitm(inst).verdict is ls.Verdict.from_bool(rays > 0), inst


def test_mitm_agrees_with_naive_enumeration_and_the_dp_on_a_grid():
    # n = 0 to 13, so halves of equal and of unequal length; targets of 0, of
    # a sum of some values and beside it, of the whole sum and past it;
    # repeated values, and values above the target
    rng = random.Random(44)
    for n in range(14):
        for _ in range(5):
            pool = [rng.randint(1, rng.choice([3, 40, 500])) for _ in range(rng.randint(1, 4))]
            values = [rng.choice(pool + [10**5]) for _ in range(n)]
            total = sum(values)
            reachable = subset_sums(values)
            some = sum(v for v in values if rng.random() < 0.5)
            for target in sorted({0, 1, some, some + 1, max(0, some - 1), total, total + 1,
                                  2 * total + 3}):
                inst = ls.Instance.from_values(values, target)
                expected = ls.Verdict.from_bool(target in reachable)
                assert ls.solve_mitm(inst).verdict is expected, inst
                assert ls.solve_dp(inst).verdict is expected, inst


@pytest.mark.parametrize("top", [2**30 - 1, 2**30], ids=["int32", "int64"])
def test_mitm_is_exact_on_both_sides_of_its_int32_buffer(top):
    # meet-in-the-middle keeps its sums in int32 while 2 max(B, sum) + 1 is
    # below 2^31: a largest of B and the sum of 2^30 - 1 keeps int32, one of
    # 2^30 goes int64. Either the values' sum or the target is that largest;
    # these targets are past the DP's table
    for values in ([2**29, top - 2**29 - 8, 3, 5], [2**29, 2**29 - 9, 3, 5]):
        total = sum(values)
        reachable = subset_sums(values)
        targets = {0, 3, 8, 2**29 + 3, 2**29 + 4, total - 5, total - 3, total - 1, total, top,
                   top - 1}
        for target in sorted(t for t in targets if t <= top):
            inst = ls.Instance.from_values(values, target)
            assert max(target, total) <= top
            expected = ls.Verdict.from_bool(target in reachable)
            assert ls.solve_mitm(inst).verdict is expected, (values, target)


def test_mitm_cap():
    inst = ls.Instance.from_values([1] * 51, 3)
    with pytest.raises(ls.ResourceLimit):
        ls.solve_mitm(inst)


@given(inst=small_instance)
@settings(max_examples=150)
def test_three_way_agreement_and_reference(inst):
    expected = ls.Verdict.from_bool(inst.target in subset_sums(list(inst.values)))
    assert ls.solve_dp(inst).verdict is expected
    assert ls.solve_mitm(inst).verdict is expected
    assert ls.solve_auto(inst).verdict is expected


@given(inst=small_instance, extra=st.integers(1, 60))
@settings(max_examples=80)
def test_yes_is_monotone_under_adding_elements(inst, extra):
    if ls.solve_dp(inst).verdict is ls.Verdict.YES:
        grown = ls.Instance.from_values(inst.values + (extra,), inst.target)
        assert ls.solve_dp(grown).verdict is ls.Verdict.YES


def test_auto_picks_a_working_solver_across_regimes():
    # tiny n with large B: meet-in-the-middle's 2^(n/2) beats the DP's B/64
    tiny = ls.solve_auto(ls.Instance.from_values([10**12, 7], 10**12 + 7))
    assert tiny.verdict is ls.Verdict.YES
    assert tiny.solver_name == "mitm"
    # small B: the DP is the cheap route
    dp = ls.solve_auto(ls.Instance.from_values([3] * 20, 9))
    assert dp.verdict is ls.Verdict.YES
    assert dp.solver_name == "dp"
    # B too large for the DP's table
    wide = ls.solve_auto(ls.Instance.from_values([10**12] * 26, 26 * 10**12))
    assert wide.verdict is ls.Verdict.YES
    assert wide.solver_name == "mitm"


@pytest.mark.parametrize("n", [10, 20, 26, 40])
def test_auto_pick_changes_at_the_fitted_bound(n):
    # the DP runs while B < 2^max(16, n // 2 + 4): 2^16 at n = 10 and 20,
    # 2^17 at n = 26, 2^24 at n = 40
    bound = 1 << max(16, n // 2 + 4)
    for target, solver in ((bound - 1, "dp"), (bound, "mitm")):
        inst = ls.Instance.from_values([1] * (n - 1) + [target - n + 1], target)
        result = ls.solve_auto(inst)
        assert (result.solver_name, result.verdict) == (solver, ls.Verdict.YES), target


def test_auto_runs_the_dp_past_the_mitm_cap():
    # at n = 45 the bound is 2^26, and meet-in-the-middle is past its cap:
    # the DP runs while its table fits, and past it no solver can, unless the
    # target passes the sum of the values
    target = 1 << 26
    result = ls.solve_auto(ls.Instance.from_values([1] * 44 + [target - 44], target))
    assert (result.solver_name, result.verdict) == ("dp", ls.Verdict.YES)
    with pytest.raises(ls.ResourceLimit, match="no exact solver"):
        ls.solve_auto(ls.Instance.from_values([1] * 45 + [2 * 10**8], 10**8 + 5))
    past = ls.solve_auto(ls.Instance.from_values([1] * 46, 2 * 10**8))
    assert (past.solver_name, past.verdict) == ("mitm", ls.Verdict.NO)


def test_auto_picks_mitm_on_twenty_five_values_to_a_million():
    # past the fitted bound: meet-in-the-middle answers in under a
    # millisecond (2 vCPUs)
    rng = random.Random(3)
    values = [rng.randint(1, 10**6) for _ in range(25)]
    inst = ls.Instance.from_values(values, sum(values) // 2)
    result = ls.solve_auto(inst)
    assert result.solver_name == "mitm"
    assert result.verdict is ls.solve_dp(inst).verdict
