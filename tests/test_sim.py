"""Propagation, detection, the epsilon demonstration, and perturbation trials."""

from __future__ import annotations

import ast
import inspect
import io
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightsum as ls
from lightsum import perturb, sim
from lightsum.rational import fraction_str

from helpers import arrivals, perturbation_outcome, subset_sums

P = ls.PhysicalParams()

small_values = st.lists(st.integers(1, 40), min_size=0, max_size=10)


def offset_profile(values, k=1):
    inst = ls.Instance.from_values(values, 0)
    params = ls.PhysicalParams(offset_k_quanta=k)
    return ls.propagate(ls.compile_layout(inst, params))


# --- propagation -------------------------------------------------------------

def test_two_stage_profile_matches_the_four_moments():
    # 2k, a1+2k, a2+2k, a1+a2+2k with a1=1, a2=2, k=1
    assert arrivals(offset_profile([1, 2])) == {2: 1, 3: 1, 4: 1, 5: 1}


def test_zero_stage_profile_is_single_ray_at_time_zero():
    profile = offset_profile([])
    assert arrivals(profile) == {0: 1}
    assert profile.stage_index == 0


def test_equal_values_coalesce():
    assert arrivals(offset_profile([1, 1])) == {2: 1, 3: 2, 4: 1}


def test_powers_of_two_reach_every_moment_once():
    profile = offset_profile([1, 2, 4, 8])
    assert arrivals(profile) == {t: 1 for t in range(4, 20)}


@given(values=small_values, k=st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_profile_equals_subset_sum_multiset_shifted_by_nk(values, k):
    profile = offset_profile(values, k)
    expected = {
        s + len(values) * k: c for s, c in subset_sums(values).items()
    }
    assert arrivals(profile) == expected


@given(values=small_values, k=st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_count_conservation_symmetry_and_extremes(values, k):
    profile = offset_profile(values, k)
    n, total = len(values), sum(values)
    assert sum(profile.counts.tolist()) == 2**n
    counts = arrivals(profile)
    mirror = total + 2 * n * k
    for t, c in counts.items():
        assert counts.get(mirror - t, 0) == c
    assert counts.get(n * k, 0) == 1
    assert counts.get(total + n * k, 0) == 1
    assert profile.times[0] == n * k
    assert profile.times[-1] == total + n * k


@given(values=small_values, extra=st.integers(1, 40), k=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_stage_recurrence_shift_and_merge(values, extra, k):
    base = arrivals(offset_profile(values, k))
    grown = arrivals(offset_profile(values + [extra], k))
    merged = Counter()
    for t, c in base.items():
        merged[t + k] += c
        merged[t + extra + k] += c
    assert grown == dict(merged)


@given(values=small_values, delay=st.integers(1, 5), epsilon=st.booleans())
@settings(max_examples=60, deadline=None)
def test_dense_and_enumerated_paths_match_subset_sums(values, delay, epsilon):
    # A path's delay is sum(skip) plus sum(take - skip) over the stages it
    # takes, for the offset device and the epsilon device alike.
    inst = ls.Instance.from_values(values, 0)
    if epsilon:
        layout = ls.compile_epsilon_layout(inst, delay)
    else:
        layout = ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=delay))
    base = sum(s.skip_delay for s in layout.stages)
    gains = [s.take_delay - s.skip_delay for s in layout.stages]
    expected = {base + s: c for s, c in subset_sums(gains).items()}
    # 0 paths per slot always runs dense, 2^64 never does
    for paths_per_slot in (0, 2**64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "DENSE_PATHS_PER_SLOT", paths_per_slot)
            assert arrivals(ls.propagate(layout)) == expected


def test_wide_count_fields_decode_exactly():
    # n identical unit values: counts are binomial coefficients; n = 63 and
    # 64 sit on the two sides of the switch from uint64 counts to Python ints.
    # The epsilon device of 64 unit values, skip arcs of 2 and take arcs of 1,
    # is shorter on its take arcs: j taken values arrive at 128 - j,
    # C(64, j) = C(64, 64 - j) rays each.
    units = ls.Instance.from_values([1] * 64, 0)
    for layout, dtype in ((ls.compile_layout(ls.Instance.from_values([1] * 63, 0), P), np.uint64),
                          (ls.compile_layout(units, P), object),
                          (ls.compile_epsilon_layout(units, 2), object)):
        n = len(layout.stages)
        profile = ls.propagate(layout)
        assert profile.counts.dtype == dtype
        assert arrivals(profile) == {n + j: math.comb(n, j) for j in range(n + 1)}
        assert sum(profile.counts.tolist()) == 2**n


@pytest.mark.parametrize("dk", [1, 10**6, 2**58])
def test_raising_k_moves_a_dense_profile_by_n_dk(dk):
    # six unit values span 7 slots whatever k, so the chain runs dense and k
    # moves every arrival by 6 dk
    inst = ls.Instance.from_values([1] * 6, 0)
    layouts = [ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=k)) for k in (1, 1 + dk)]
    assert sim._propagate_chain(sim.arcs_of(layouts[1])).counts is not None
    low, high = map(ls.propagate, layouts)
    assert high.times.tolist() == [t + 6 * dk for t in low.times.tolist()]
    assert high.counts.tolist() == low.counts.tolist() == [1, 6, 15, 20, 15, 6, 1]


def test_enumerated_times_are_exact_on_both_sides_of_the_int32_sort():
    # chains that span 2^31 - 1 and 2^31 quanta: the first is sorted as
    # int32, the second as int64, and both profiles come back absolute, as
    # int64, whatever the offset
    a = 10**9
    for span in (2**31 - 1, 2**31):
        for k in (1, 2**40):
            inst = ls.Instance.from_values([a, span - a], 0)
            profile = ls.propagate(ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=k)))
            assert profile.times.dtype == np.int64
            assert arrivals(profile) == {2 * k: 1, a + 2 * k: 1, span - a + 2 * k: 1,
                                         span + 2 * k: 1}


@pytest.mark.parametrize("epsilon", [False, True], ids=["offset", "epsilon"])
@pytest.mark.parametrize("span", [2**31 - 1, 2**31])
@pytest.mark.parametrize("side", ["left", "right"])
def test_half_times_match_the_int64_enumerator_on_both_sides_of_2_31(epsilon, span, side):
    # one half of 5 stages spans 2^31 - 1 quanta, enumerated into int32, or
    # 2^31, enumerated into int64, from its earliest path; the epsilon
    # device's skip arcs of 9 quanta outrun its values below 9, so some
    # stages are longer on the skip arc, and a large offset k moves the
    # earliest path alone
    small = [1, 2, 3, 5, 8]

    def half_arcs(long):
        values = [long, *small[1:], *small] if side == "left" else [*small, long, *small[1:]]
        inst = ls.Instance.from_values(values, 0)
        layout = (ls.compile_epsilon_layout(inst, 9) if epsilon
                  else ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=2**40)))
        arcs = sim.arcs_of(layout)
        return layout, (arcs[:5] if side == "left" else arcs[5:])

    # the long value, past the skip arcs, is set so that its half's span
    # lands on `span`
    low = sum(abs(take - skip) for skip, take in half_arcs(100)[1])
    layout, arcs = half_arcs(span - low + 100)
    steps = [take - skip for skip, take in arcs]
    assert sum(map(abs, steps)) == span
    # the half is kept as its chain, and enumerates one entry per path, in
    # subset order, each its time less the earliest: path p takes stage s's
    # longer arc, |take - skip| more, when bit s of p is set
    least = sum(map(min, arcs))
    times = perturb._batch_path_times(np.array([0]), np.array([list(map(abs, steps))]),
                                      np.empty((1, 32), np.int64))
    half = getattr(ls.propagate_halves(layout), side)
    assert isinstance(half, sim.Chain)
    assert (half.least, half.span) == (least, span)
    paths = half.path_times()
    assert paths.dtype == (np.int32 if span < 2**31 else np.int64)
    assert paths.tolist() == times[0].tolist()
    # which arc of a stage is the longer moves no arrival: the counted times
    # are those of every path taking the skip or the take arc of each stage
    expected = {sum(skip for skip, _ in arcs) + s: c for s, c in subset_sums(steps).items()}
    counted = half.counted()
    assert {counted.least + t: c for t, c in arrivals(counted).items()} == expected


def latest_path(halves):
    """The latest path value of either half, both kept as chains, as they
    enumerate it from their earliest path; each half's is its span."""
    assert isinstance(halves.left, sim.Chain) and isinstance(halves.right, sim.Chain)
    latest = [int(half.path_times().max()) for half in (halves.left, halves.right)]
    assert latest == [halves.left.span, halves.right.span]
    return max(latest)


@pytest.mark.parametrize("gap", [5, 1, 0], ids=["near", "below", "at"])
@pytest.mark.parametrize("order", ["long-left", "long-right"])
def test_count_at_matches_subset_sums_on_both_sides_of_2_31(gap, order):
    # two values near 2^30 make a half that spans 2^31 - 5, 2^31 - 1 or 2^31
    # quanta, enumerated into int32, int32 and int64; the moments run across
    # 2^31, where the four sums with both long values land, and from 0, where
    # every key M - t of the long half is negative
    long, short = [2**30, 2**30 - gap], [1, 2]
    values = long + short if order == "long-left" else short + long
    inst = ls.Instance.from_values(values, 0)
    halves = ls.propagate_halves(ls.compile_layout(inst, P))
    assert latest_path(halves) == 2**31 - gap
    sums = subset_sums(values)
    hits = 0
    for moment in [*range(0, 12), *range(2**31 - 12, 2**31 + 12)]:
        count = halves.count_at(moment)
        assert count == sums.get(moment - 4, 0), (values, moment)
        hits += moment >= 2**31 - 12 and count
    assert hits == 4


@pytest.mark.parametrize("span", [2**30 - 2, 2**30 - 1], ids=["below", "at"])
@pytest.mark.parametrize("order", ["long-left", "long-right"])
def test_count_at_reads_the_tagged_halves_on_both_sides_of_2_30(span, order):
    # count_at tags the keys as 2(M - l) and the right times as 2r + 1, all
    # from the halves' earliest paths, in int32 while twice the two spans,
    # plus two, is below 2^31: halves that span 2^30 - 2 or 2^30 - 1 quanta
    # together, read at moments from 0, where every key of the long half is
    # negative, and across 2^29, 2^30 and 2^31
    long = [2**29, span - 3 - 2**29]
    values = long + [1, 2] if order == "long-left" else [1, 2] + long
    inst = ls.Instance.from_values(values, 0)
    halves = ls.propagate_halves(ls.compile_layout(inst, P))
    assert latest_path(halves) == span - 3
    assert halves.left.span + halves.right.span == span
    sums = subset_sums(values)
    hits = 0
    for moment in [*range(0, 12), *range(2**29 - 4, 2**29 + 8), *range(2**30 - 8, 2**30 + 8),
                   *range(2**31 - 4, 2**31 + 4)]:
        count = halves.count_at(moment)
        assert count == sums.get(moment - 4, 0), (values, moment)
        hits += moment >= 2**30 - 8 and count
    assert hits == 4
    assert halves.half_entries == [4, 4]
    # no ray arrives before 0, however far before
    for moment in (-1, -2**31 + 2**30, -2**31, -2**62, -2**63):
        assert halves.count_at(moment) == 0
    assert halves.half_entries == [4, 4]


@pytest.mark.parametrize("order", ["long-left", "long-right"])
def test_count_at_reads_unequal_halves_across_2_30_and_2_31(order):
    # n = 5: halves of 2 and 3 stages, both kept as chains, each enumerated
    # into the tagged buffer on its own. The sums with both long values lie
    # from 2^30 - 9 + t to 2^30 - 2 + t, and the halves span 2^30 - 2 + t
    # quanta together: int32 at t = 0 and int64 at t = 1. The moments
    # straddle 2^30; past 2^31 nothing arrives
    for t in (0, 1):
        long, short = [2**29, 2**29 - 9 + t], [1, 2, 4]
        values = long + short if order == "long-left" else short[:2] + long + short[2:]
        inst = ls.Instance.from_values(values, 0)
        halves = ls.propagate_halves(ls.compile_layout(inst, P))
        assert (halves.left.stage_index, halves.right.stage_index) == (2, 3)
        assert latest_path(halves) == (2**30 - 9 if order == "long-left" else 2**30 - 5) + t
        assert halves.left.span + halves.right.span == 2**30 - 2 + t
        sums = subset_sums(values)
        hits = 0
        for moment in [*range(0, 14), *range(2**29 - 4, 2**29 + 14),
                       *range(2**30 - 12, 2**30 + 12), *range(2**31 - 6, 2**31 + 6)]:
            count = halves.count_at(moment)
            assert count == sums.get(moment - 5, 0), (values, moment)
            hits += moment >= 2**30 - 12 and count
        assert hits == 8
        assert halves.half_entries == [4, 8]


def test_sparse_path_handles_values_too_long_to_pack():
    # 2^61 - 2 twice is a longest path of 2^62 - 2, just inside the delay
    # bound; 5e18 twice is past it and is rejected before anything propagates
    for a in (10**9, 2**61 - 2):
        inst = ls.Instance.from_values([a, a], 2 * a)
        profile = ls.propagate(ls.compile_layout(inst, P))
        assert profile.times.dtype == np.int64
        assert arrivals(profile) == {2: 1, a + 2: 2, 2 * a + 2: 1}
    with pytest.raises(ls.Overflow):
        ls.Instance.from_values([5 * 10**18] * 2, 10**19)


def test_halves_detect_exactly_just_inside_the_delay_bound():
    a = 2**61 - 2
    for target, verdict in ((2**62 - 4, ls.Verdict.YES), (2**61, ls.Verdict.NO)):
        inst = ls.Instance.from_values([a, a], target)
        report = ls.detect(ls.propagate_halves(ls.compile_layout(inst, P)), inst, P)
        assert report.verdict is verdict
        assert report.checked_moment == target + 2
        assert ls.solve_auto(inst).verdict is verdict


def halves_of(layout, per_slot, monkeypatch):
    """The layout's halves, each built with its own DENSE_PATHS_PER_SLOT."""
    if per_slot[0] == per_slot[1]:
        monkeypatch.setattr(sim, "DENSE_PATHS_PER_SLOT", per_slot[0])
        return ls.propagate_halves(layout)
    arcs = sim.arcs_of(layout)
    chains = []
    for part, value in zip((arcs[: len(arcs) // 2], arcs[len(arcs) // 2 :]), per_slot):
        monkeypatch.setattr(sim, "DENSE_PATHS_PER_SLOT", value)
        chains.append(sim._propagate_chain(part))
    return sim.SplitProfile(*chains)


@pytest.mark.parametrize("epsilon", [False, True], ids=["offset", "epsilon"])
@pytest.mark.parametrize("per_slot", [(0, 0), (2**64, 2**64), (0, 2**64), (2**64, 0)],
                         ids=["dense", "enumerated", "mixed", "mixed-enumerated-left"])
def test_split_count_equals_the_whole_profile_at_every_moment(epsilon, per_slot, monkeypatch):
    # n = 0..9 cuts the chain into halves of equal and of unequal length; a
    # dense half has distinct times, an enumerated one repeats them. The
    # offset k runs to 2^40, and once n * k is near 2^61; epsilon, which
    # widens the chain, runs to 3. Every moment is read from two before the
    # earliest path to two after the latest, which is n * k - 2 to
    # n * k + sum + 2 on the offset device
    rng = random.Random(5)
    for n in range(10):
        for _ in range(3):
            inst = ls.Instance.from_values([rng.randint(1, 12) for _ in range(n)], 0)
            k = rng.choice([1, 2, 3, rng.randint(4, 2**40)])
            if n == 7:
                k = (2**61 - rng.randint(0, 2**20)) // n
            if epsilon:
                layout = ls.compile_epsilon_layout(inst, k % 3 + 1)
            else:
                layout = ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=k))
            split = halves_of(layout, per_slot, monkeypatch)
            whole = arrivals(ls.propagate(layout))
            assert (split.left.stage_index, split.right.stage_index) == (n // 2, n - n // 2)
            kinds = [isinstance(half, sim.Chain) for half in (split.left, split.right)]
            assert kinds == [value > 0 for value in per_slot]
            arcs = sim.arcs_of(layout)
            least, span = sum(map(min, arcs)), sum(abs(take - skip) for skip, take in arcs)
            assert split.left.least + split.right.least == least
            assert split.left.span + split.right.span == span
            if not epsilon:
                assert (least, span) == (n * k, sum(inst.values))
            for t in range(least - 2, least + span + 3):
                assert split.count_at(t) == whole.get(t, 0), (layout, t)
            assert split.half_entries == [
                len(set((h.path_times() if isinstance(h, sim.Chain) else h.times).tolist()))
                for h in (split.left, split.right)]
            # the window reader of the perturbation trials, on a batch of two
            # copies of the chain, each stage's arcs measured from its shorter
            # one, as the trials measure them, each half read whole or through
            # the index of every one of its paths, in int32 or int64
            relative = np.array([[arc - min(pair) for arc in pair] for pair in arcs] * 2,
                                dtype=np.int64).reshape(2, n, 2)
            stages = (n // 2, n - n // 2)
            keep = tuple(rng.choice([None, np.arange(1 << s)]) for s in stages)
            dtype = rng.choice([np.int32, np.int64])
            whole_paths = tuple(None if kept is None else np.empty((2, 1 << s), dtype)
                                for s, kept in zip(stages, keep))
            tagged = np.empty((2, sum(1 << s for s in stages)), dtype)
            for lo in range(-2, span + 2, 3):
                hi = lo + rng.randint(0, 2)
                expected = any(least + t in whole for t in range(lo, hi + 1))
                hits = perturb._pairs_within(relative, n // 2, lo, hi, keep, tagged, whole_paths)
                assert hits.tolist() == [expected, expected], (layout, lo, hi)


@pytest.mark.parametrize("chains", [1, 3])
def test_path_times_follow_subset_order(chains):
    # one chain, as sim enumerates an exact half, steps by Python ints; a
    # batch, as perturb enumerates a chunk of trials' halves, by columns from
    # its bases and steps, here into a column slice of a wider buffer; path p
    # takes stage s's take arc when bit s of p is set
    rng = random.Random(chains)
    for stages in range(7):
        arcs = np.array([[[rng.randint(1, 10**12) for _ in range(2)] for _ in range(stages)]
                         for _ in range(chains)], dtype=np.int64).reshape(chains, stages, 2)
        expected = [[sum(int(chain[s][(p >> s) & 1]) for s in range(stages))
                     for p in range(1 << stages)] for chain in arcs]
        if chains == 1:
            skips, takes = arcs[0].T.tolist()
            steps = [take - skip for skip, take in zip(skips, takes)]
            times = sim._path_times(sum(skips), steps, np.empty(1 << stages, np.int64))[None]
        else:
            wide = np.zeros((chains, 3 + (1 << stages)), np.int64)
            times = perturb._batch_path_times(arcs[:, :, 0].sum(axis=1),
                                              arcs[:, :, 1] - arcs[:, :, 0],
                                              wide[:, 2 : 2 + (1 << stages)])
            assert not wide[:, :2].any() and not wide[:, -1].any()
        assert times.tolist() == expected


def test_solve_reads_the_same_halves_at_any_offset():
    # 26 values to 5e4 make enumerated halves of 13 stages. k = 2 * 10^8
    # puts n * k past 2^32, yet the halves' path values, read from their
    # earliest paths, stay int32, and the count at the moment, each half's
    # distinct times and the verdict are those of k = 1
    rng = random.Random(26)
    values = [rng.randint(1, 5 * 10**4) for _ in range(26)]
    for target, verdict in ((sum(values[::2]), ls.Verdict.YES), (sum(values) + 1, ls.Verdict.NO)):
        inst = ls.Instance.from_values(values, target)
        reads = []
        for k in (1, 2 * 10**8):
            params = ls.PhysicalParams(offset_k_quanta=k)
            halves = ls.propagate_halves(ls.compile_layout(inst, params))
            for half in (halves.left, halves.right):
                assert isinstance(half, sim.Chain)
                assert half.path_times().dtype == np.int32
            report = ls.detect(halves, inst, params)
            assert report.checked_moment == target + 26 * k
            reads.append((report.ray_count_at_moment, halves.half_entries, report.verdict))
        assert reads[0] == reads[1]
        assert reads[0][2] is verdict


def test_split_count_multiplies_in_the_width_of_the_whole_device():
    # each half of 34 unit stages counts in uint64; their product-sum at the
    # middle moment, C(68, 34), does not fit uint64
    inst = ls.Instance.from_values([1] * 68, 34)
    report = ls.detect(ls.propagate_halves(ls.compile_layout(inst, P)), inst, P)
    assert report.ray_count_at_moment == math.comb(68, 34)
    assert report.ray_count_at_moment > 2**64


def test_sparse_path_entry_cap(monkeypatch):
    monkeypatch.setattr(sim, "DENSE_PATHS_PER_SLOT", 2**64)
    monkeypatch.setattr(sim, "MAX_PROFILE_ENTRIES", 4)
    inst = ls.Instance.from_values([10**9, 10**5, 10**3], 0)
    with pytest.raises(ls.ResourceLimit):
        ls.propagate(ls.compile_layout(inst, P))


def test_path_cap_counts_paths_before_enumerating(monkeypatch):
    # 4 equal long stages: 16 paths but only 5 distinct times, so the cap of
    # 8 is passed by the paths alone; detection and trials refuse the same
    # half with the same message
    def never(*args):
        raise AssertionError("enumerated a chain past the cap")

    monkeypatch.setattr(sim, "MAX_PROFILE_ENTRIES", 8)
    monkeypatch.setattr(sim, "_path_times", never)
    monkeypatch.setattr(perturb, "_batch_path_times", never)
    with pytest.raises(ls.ResourceLimit, match=r"2\^4") as whole:
        ls.propagate(ls.compile_layout(ls.Instance.from_values([10**9] * 4, 0), P))
    inst = ls.Instance.from_values([10**9] * 8, 0)
    layout = ls.compile_layout(inst, P)
    with pytest.raises(ls.ResourceLimit) as halves:
        ls.propagate_halves(layout)
    with pytest.raises(ls.ResourceLimit) as trials:
        ls.perturb_and_classify(inst, P, 0, 1, rng_seed=0)
    assert str(whole.value) == str(halves.value) == str(trials.value)


def test_profile_dump_format():
    buf = io.StringIO()
    ls.write_profile(offset_profile([1, 1]), buf)
    assert buf.getvalue() == "2 1\n3 2\n4 1\n"


# --- detection ---------------------------------------------------------------

def detect_values(values, target, params=P):
    inst = ls.Instance.from_values(values, target)
    return ls.detect(ls.propagate_halves(ls.compile_layout(inst, params)), inst, params)


def test_detect_yes_at_b_plus_nk():
    report = detect_values([1, 2, 3], 5)
    assert report.verdict is ls.Verdict.YES
    assert report.checked_moment == 8
    assert report.ray_count_at_moment >= 1


def test_detect_reads_the_moment_from_its_halves():
    # halves built at k = 1 read with k = 2: the moment is B past the
    # halves' earliest path, n * 1 quanta, whatever k the power budget names
    inst = ls.Instance.from_values([1, 2, 3], 5)
    halves = ls.propagate_halves(ls.compile_layout(inst, P))
    report = ls.detect(halves, inst, ls.PhysicalParams(offset_k_quanta=2))
    assert report.verdict is ls.Verdict.YES
    assert report.ray_count_at_moment == 1
    assert report.checked_moment == 8


def test_detect_zero_target_hits_the_empty_set():
    report = detect_values([4, 7, 9], 0)
    assert report.verdict is ls.Verdict.YES
    assert report.checked_moment == 3
    assert report.ray_count_at_moment == 1


def test_detect_no_case():
    report = detect_values([2, 4], 3)
    assert report.verdict is ls.Verdict.NO
    assert report.checked_moment == 5
    assert report.ray_count_at_moment == 0
    assert report.amplified_power_w == 0
    assert not report.detectable


def test_detect_coincident_rays_add_power():
    report = detect_values([1, 1], 1)
    assert report.ray_count_at_moment == 2
    assert report.per_ray_power_w == Fraction(1, 4)
    assert report.amplified_power_w == 10**8 * 2 * Fraction(1, 4)
    assert report.detectable


def test_detect_below_threshold_is_yes_but_undetectable():
    params = ls.PhysicalParams(detector_gain=1, detection_threshold_w=1)
    report = detect_values([1, 2, 3], 5, params)
    assert report.verdict is ls.Verdict.YES
    assert not report.detectable


def test_detect_stage_mismatch():
    halves = ls.propagate_halves(ls.compile_layout(ls.Instance.from_values([1, 2], 0), P))
    with pytest.raises(ls.StageMismatch):
        ls.detect(halves, ls.Instance.from_values([1, 2, 3], 5), P)


def test_detect_target_far_beyond_the_profile():
    # the largest target an instance may have: its moment 2^62 + 1, read
    # from the halves' earliest paths, lies past both of their spans
    report = detect_values([1, 2], 2**62 - 1)
    assert report.verdict is ls.Verdict.NO
    assert report.ray_count_at_moment == 0
    with pytest.raises(ls.Overflow):
        detect_values([1, 2], 10**30)


@given(values=small_values, target=st.integers(0, 250), k=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_detect_agrees_with_dp_oracle(values, target, k):
    params = ls.PhysicalParams(offset_k_quanta=k)
    inst = ls.Instance.from_values(values, target)
    report = ls.detect(ls.propagate_halves(ls.compile_layout(inst, params)), inst, params)
    assert report.verdict is ls.solve_dp(inst).verdict


@st.composite
def values_and_a_target(draw):
    """Values of 1-3 mixed with values to 10^4, and a target that is a sum of
    some of them, or one beside it, or any number up to their sum."""
    values = draw(st.lists(st.integers(1, 3) | st.integers(1, 10**4), min_size=1,
                           max_size=10))
    some = sum(v for v in values if draw(st.booleans()))
    return values, draw(st.sampled_from([some, some + 1]) | st.integers(0, sum(values)))


@given(case=values_and_a_target(), seed=st.randoms())
@settings(max_examples=60, deadline=None)
def test_detect_is_invariant_under_permutation(case, seed):
    # a half of small values runs dense and one of large values is enumerated,
    # so reordering moves each kind from one side to the other; the rays at
    # the moment are the same subsets whatever the order
    values, target = case
    shuffled = list(values)
    seed.shuffle(shuffled)
    reports = [detect_values(order, target) for order in (values, shuffled, sorted(values))]
    assert len({(report.verdict, report.ray_count_at_moment) for report in reports}) == 1


@given(values=small_values, target=st.integers(0, 250))
@settings(max_examples=60, deadline=None)
def test_offset_choice_changes_moment_never_verdict(values, target):
    verdicts = set()
    moments = []
    for k in (1, 5, 1000):
        params = ls.PhysicalParams(offset_k_quanta=k)
        inst = ls.Instance.from_values(values, target)
        report = ls.detect(ls.propagate_halves(ls.compile_layout(inst, params)), inst, params)
        verdicts.add(report.verdict)
        moments.append(report.checked_moment)
    assert len(verdicts) == 1
    assert moments == [target + len(values) * k for k in (1, 5, 1000)]


# --- epsilon device ----------------------------------------------------------

def test_epsilon_profile_contains_the_masquerading_moment():
    inst = ls.Instance.from_values([5, 9, 10, 11], 8)
    profile = ls.propagate(ls.compile_epsilon_layout(inst, 1))
    assert arrivals(profile).get(8, 0) >= 1  # a_1 + 3*epsilon, not a subset sum


def test_epsilon_profile_empty_and_single():
    empty = ls.propagate(ls.compile_epsilon_layout(ls.Instance.from_values([], 0), 1))
    assert arrivals(empty) == {0: 1}
    single = ls.propagate(ls.compile_epsilon_layout(ls.Instance.from_values([2], 1), 1))
    assert arrivals(single) == {1: 1, 2: 1}


def test_epsilon_demo_spurious_yes():
    demo = ls.epsilon_false_positive_demo(ls.Instance.from_values([5, 9, 10, 11], 8), 1)
    assert demo.epsilon_verdict is ls.Verdict.YES
    assert demo.offset_verdict is ls.Verdict.NO
    assert demo.oracle_verdict is ls.Verdict.NO
    assert demo.epsilon_spurious and demo.offset_correct
    assert demo.epsilon_checked_moment == 8
    assert demo.offset_checked_moment == 12


@pytest.mark.parametrize("values,target", [([5], 5), ([3, 3], 6)])
def test_epsilon_demo_agreement_cases(values, target):
    demo = ls.epsilon_false_positive_demo(ls.Instance.from_values(values, target), 1)
    assert demo.epsilon_verdict is ls.Verdict.YES
    assert demo.offset_verdict is ls.Verdict.YES
    assert demo.oracle_verdict is ls.Verdict.YES
    assert not demo.epsilon_spurious


# --- perturbation ------------------------------------------------------------

def test_the_exact_device_draws_no_random_numbers():
    # perturbation is an experiment run on the device: sim, the device,
    # neither draws nor runs trials, and reaches nothing in perturb
    assert not hasattr(sim, "random")
    assert not hasattr(sim, "perturb_and_classify")
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(sim))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
            imported.add(getattr(node, "module", None))
    assert not imported & {"random", "perturb", "lightsum.perturb", "perturb_and_classify"}
    assert perturb.perturb_and_classify is ls.perturb_and_classify


def perturb_values(values, target, max_error_m, trials, seed, params=P):
    inst = ls.Instance.from_values(values, target)
    return ls.perturb_and_classify(inst, params, max_error_m, trials, seed)


def test_zero_error_never_misclassifies():
    # includes a NO instance whose neighbours B-1 and B+1 are reachable sums
    for values, target in [([2, 4], 3), ([1, 2, 3], 5), ([1, 1, 1], 4)]:
        report = perturb_values(values, target, 0, 200, seed=7)
        assert report.misclassified == 0
        assert report.max_arrival_error_s == 0


def test_sub_half_quantum_error_never_misclassifies():
    # per-arc error below quantum_length / (2n) keeps every path within half
    # a quantum of its true moment
    for values, target in [([1, 1, 1], 4), ([2, 4], 3), ([1, 2, 3], 5)]:
        budget = P.quantum_length_m / (2 * len(values)) * Fraction(99, 100)
        report = perturb_values(values, target, budget, 300, seed=11)
        assert report.misclassified == 0
        assert report.max_arrival_error_s < P.delay_quantum_s / 2


def test_forbidden_fractional_lengths_produce_false_positives():
    # arcs offset by up to 0.4 quantum each: three takes can drift a whole
    # quantum and land on the checked moment of an unreachable target
    report = perturb_values([1, 1, 1], 4, Fraction(4, 10) * P.quantum_length_m,
                            trials=300, seed=0)
    assert report.false_positives >= 1
    assert report.misclassified == report.false_positives + report.false_negatives


def test_perturbation_is_deterministic_for_a_seed():
    a = perturb_values([1, 2, 3], 5, "0.0001", 100, seed=3)
    b = perturb_values([1, 2, 3], 5, "0.0001", 100, seed=3)
    assert a == b


def test_perturbation_rejects_lengths_that_can_go_non_positive():
    with pytest.raises(ls.InvalidValue):
        perturb_values([1, 1, 1], 4, 2 * P.quantum_length_m, 100, seed=0)


def test_perturbation_path_cap_is_read_when_called(monkeypatch):
    # one trial of 5 stages, which the path on the target decides, draws 10
    # errors, more than the 4 the cap leaves beside the fixed charge per trial
    monkeypatch.setattr(perturb, "MAX_PERTURB_ARRIVALS", perturb.PERTURB_TRIAL_ARRIVALS + 4)
    with pytest.raises(ls.ResourceLimit):
        perturb_values([1, 1, 1, 1, 1], 4, 0, 1, seed=0)


def test_perturbation_cap_charges_each_trial_a_fixed_cost():
    # a million trials of one stage draw 2 errors each, but each trial
    # carries a fixed cost whatever its size
    with pytest.raises(ls.ResourceLimit):
        perturb_values([1], 1, 0, 10**6, seed=0)


@pytest.mark.parametrize("error,charge", [
    # cut within 0.1 quantum, 3 cables always read the pair on 5: 6 draws
    ("0.1", 6),
    # cut within 0.4 quantum, the trials enumerate halves of 2^1 and 2^2 paths
    ("0.4", 6),
], ids=["decided", "enumerating"])
def test_perturbation_cap_charges_what_a_trial_costs(error, charge, monkeypatch):
    # 10 trials fill a cap of exactly their charge, and pass one below it
    cap = 10 * (charge + perturb.PERTURB_TRIAL_ARRIVALS)
    cut = Fraction(error) * P.quantum_length_m
    monkeypatch.setattr(perturb, "MAX_PERTURB_ARRIVALS", cap)
    assert perturb_values([1, 2, 3], 5, cut, 10, seed=0).trials == 10
    monkeypatch.setattr(perturb, "MAX_PERTURB_ARRIVALS", cap - 1)
    with pytest.raises(ls.ResourceLimit, match="10 trials"):
        perturb_values([1, 2, 3], 5, cut, 10, seed=0)


def test_prepass_enumerates_no_path_of_dense_halves_that_decide_every_trial(monkeypatch):
    # 40 values to 100 make halves of 20 stages over about 2000 slots, which
    # propagate dense; cut within 0.012 quantum, 40 cuts drift by less than
    # half a quantum, so the exact halves decide every trial: a subset on the
    # target always detects, and even values never reach an odd target
    calls = []

    def recorded(path_times):
        def call(base, steps, out):
            calls.append(out.shape)
            return path_times(base, steps, out)

        return call

    # the row enumerator of the exact halves and the batch one of the trials
    monkeypatch.setattr(sim, "_path_times", recorded(sim._path_times))
    monkeypatch.setattr(perturb, "_batch_path_times", recorded(perturb._batch_path_times))
    rng = random.Random(40)
    mixed = [rng.randint(1, 100) for _ in range(40)]
    evens = [2 * rng.randint(1, 50) for _ in range(40)]
    error = Fraction(12, 1000) * P.quantum_length_m
    for values, target in ((mixed, sum(mixed[::3])), (evens, sum(evens[::3]) + 1)):
        assert perturb_values(values, target, error, 40, seed=0).misclassified == 0
    assert calls == []


def test_perturbed_profiles_share_the_map_entry_cap(monkeypatch):
    # each half of 3 stages holds 8 perturbed arrival times, over a cap of 4
    monkeypatch.setattr(sim, "MAX_PROFILE_ENTRIES", 4)
    with pytest.raises(ls.ResourceLimit):
        perturb_values([1, 2, 4, 8, 16, 32], 3, 0, 1, seed=0)


def perturb_outcome(values, target, span, trials, seed, k=1):
    """perturb_and_classify with errors of up to `span` grid units, as
    perturbation_outcome gives it, or None when it refuses an error past the
    shortest cable."""
    params = ls.PhysicalParams(offset_k_quanta=k)
    error = Fraction(span, perturb.PERTURB_GRID) * params.quantum_length_m
    try:
        report = perturb_values(values, target, error, trials, seed, params)
    except ls.InvalidValue:
        return None
    drift = report.max_arrival_error_s * perturb.PERTURB_GRID / params.delay_quantum_s
    return report.misclassified, report.false_positives, report.false_negatives, drift


def test_perturbation_matches_a_naive_reference_on_small_devices():
    # up to 8 stages, repeated values, targets on, beside and away from the
    # subset sums, and errors from 0 to 1.1 quanta, among them n * error of
    # exactly half a quantum; an error past the shortest cable, k quanta, is
    # refused, and every other is compared with the reference
    rng = random.Random(17)
    grid = perturb.PERTURB_GRID
    for _ in range(120):
        n = rng.randint(0, 8)
        pool = [rng.randint(1, rng.choice([2, 5, 30])) for _ in range(rng.randint(1, 3))]
        values = [rng.choice(pool) for _ in range(n)]
        near = sum(v for v in values if rng.random() < 0.5) + rng.choice([0, 0, -1, 1, 3])
        target = max(0, near)
        quanta = rng.choice([0, Fraction(1, 100), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5),
                             Fraction(1, 2), Fraction(7, 10), 1, Fraction(11, 10),
                             Fraction(1, 2 * max(n, 1))])
        span, k, seed = int(quanta * grid), rng.choice([1, 2]), rng.randrange(1000)
        got = perturb_outcome(values, target, span, 24, seed, k)
        if n and span > k * grid:
            assert got is None, (values, target, quanta, k)
        else:
            expected = perturbation_outcome(values, target, k, span, grid, 24, seed)
            assert got is not None and got == expected, (values, target, quanta, k)
    # 9 or 10 values to 1000 make few pairs near a target on or beside a
    # subset sum, so each half reads only some of its paths in every trial
    rng = random.Random(23)
    for _ in range(12):
        values = [rng.randint(1, 1000) for _ in range(rng.randint(9, 10))]
        target = max(0, sum(v for v in values if rng.random() < 0.5) + rng.choice([0, 0, 1, -2]))
        quanta = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)])
        span, seed = int(quanta * grid), rng.randrange(1000)
        expected = perturbation_outcome(values, target, 1, span, grid, 24, seed)
        got = perturb_outcome(values, target, span, 24, seed)
        assert got == expected, (values, target, quanta)
    # 8 to 10 values drawn from two below 21 make short horizons, on which
    # equal paths bunch on few times: some halves keep the paths of the one
    # or two times near the target
    rng = random.Random(1)
    for _ in range(6):
        pool = [rng.randint(1, 20) for _ in range(2)]
        values = [rng.choice(pool) for _ in range(rng.randint(8, 10))]
        target = max(0, sum(v for v in values if rng.random() < 0.5) + rng.choice([0, 1, -1]))
        quanta = rng.choice([Fraction(1, 10), Fraction(1, 4)])
        span, seed = int(quanta * grid), rng.randrange(1000)
        expected = perturbation_outcome(values, target, 1, span, grid, 24, seed)
        got = perturb_outcome(values, target, span, 24, seed)
        assert got == expected, (values, target, quanta)
    # 9 or 10 values of 1 and 2 make a half of 5 stages with a horizon of at
    # most 15 quanta, which propagates dense; a target at either end of the
    # sums keeps only some of its paths
    rng = random.Random(3)
    for _ in range(8):
        values = [rng.choice([1, 2]) for _ in range(rng.randint(9, 10))]
        target = rng.choice([0, 1, 2, sum(values) - 1, sum(values) + 1])
        quanta = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)])
        span, seed = int(quanta * grid), rng.randrange(1000)
        expected = perturbation_outcome(values, target, 1, span, grid, 24, seed)
        got = perturb_outcome(values, target, span, 24, seed)
        assert got == expected, (values, target, quanta)


@pytest.mark.parametrize("top", [1072, 1073])
def test_perturbation_matches_the_reference_on_both_sides_of_the_int32_trials(top):
    # Trials measure their times from the earliest exact path less 6 errors,
    # and hold them as int32 while twice the larger of the longest perturbed
    # path and the window top, plus one, is below 2^31 grid units. Six
    # values cut within a quarter quantum drift by 1.5 quanta at most, so a
    # sum of top - 2 quanta makes the longest path top + 1 quanta:
    # 2^31 - 1483647 at 1072, 2^31 + 516353 at 1073. A target two quanta
    # past a sum of top - 3 makes the window top the larger term, at the
    # same top + 1 quanta. Targets on, beside and past
    # the sums run trials that keep some half-paths, and some trials
    # misclassify. The offset k enters no bound, so it runs to 10^6.
    grid, span = perturb.PERTURB_GRID, perturb.PERTURB_GRID // 4
    misclassified = 0
    for total, targets in ((top - 2, (500, 501, top - 3, top - 2)), (top - 3, (top - 1,))):
        values = [100, 150, 170, 190, 210, total - 820]
        assert sum(values) == total
        for target, k in zip(targets, (1, 10**6, 1, 10**6)):
            target_g = target * grid + 6 * span
            top_g = total * grid + 12 * span
            bound = 2 * max(top_g, target_g + grid // 2) + 1
            assert (bound < 2**31) == (top == 1072)
            expected = perturbation_outcome(values, target, k, span, grid, 40, seed=target)
            assert perturb_outcome(values, target, span, 40, target, k) == expected, (values, target)
            misclassified += expected[0]
    assert misclassified > 0


@pytest.mark.parametrize("values,target,span", [
    ([19, 1054, 28], 1074, perturb.PERTURB_GRID // 4),
    ([3, 1095, 18, 9, 23], 22, perturb.PERTURB_GRID // 10),
])
def test_perturbation_past_the_int32_bound_matches_the_reference(values, target, span):
    # spans of 1101 and 1148 quanta: a trial's doubled keys and times,
    # measured from the earliest exact path, pass 2^31 grid units
    expected = perturbation_outcome(values, target, 1, span, perturb.PERTURB_GRID, 20, seed=1)
    assert perturb_outcome(values, target, span, 20, 1) == expected


@pytest.mark.parametrize("values,target,whole_side", [
    # 4 unit stages on the left, whose 11 paths of 2 units or more lie within
    # 2 quanta of the one right path, {1600}, that can pair: the left half
    # is read whole, and some trials miss the sum 1604
    ([1, 1, 1, 1, 100, 200, 400, 800, 1600], 1604, 0),
    # the split the other way: the left half keeps its path {800}, and the
    # right half of 5 unit stages reads its 16 paths of 3 units or more whole
    ([100, 200, 400, 800, 1, 1, 1, 1, 1], 805, 1),
])
def test_trials_read_a_proper_subset_on_one_side_at_odd_n(values, target, whole_side,
                                                           monkeypatch):
    # n = 9: the right half has one stage more; cut within a quarter
    # quantum, 9 cables drift up to 2.25 quanta
    kept = []
    candidates = perturb._candidates

    def recorded(half, *args):
        kept.append(candidates(half, *args))
        return kept[-1]

    monkeypatch.setattr(perturb, "_candidates", recorded)
    span = perturb.PERTURB_GRID // 4
    expected = perturbation_outcome(values, target, 1, span, perturb.PERTURB_GRID, 40, seed=3)
    assert expected[0] > 0
    for per_chunk in (None, 1, 3):
        with monkeypatch.context() as m:
            if per_chunk:
                m.setattr(perturb, "PERTURB_CHUNK_ARRIVALS", chunk_of(per_chunk, len(values)))
            assert perturb_outcome(values, target, span, 40, 3) == expected
    whole, subset = kept[whole_side], kept[1 - whole_side]
    assert whole is None
    assert 0 < len(subset) < 1 << (4 + 1 - whole_side)


def test_every_trial_detects_a_path_on_the_target_while_n_errors_fit_the_window():
    # 4 stages cut within an eighth of a quantum drift by at most half a quantum
    span = perturb.PERTURB_GRID // 8
    expected = perturbation_outcome([1, 2, 3, 4], 5, 1, span, perturb.PERTURB_GRID, 200, 4)
    assert perturb_outcome([1, 2, 3, 4], 5, span, 200, seed=4) == expected
    assert expected[0] == 0


def test_the_count_at_the_moment_decides_trials_within_the_drift_bound(monkeypatch):
    # n errors drift by less than half a quantum, so only a path on the
    # moment can land in the window, and it lands there in every trial: the
    # exact count decides, and no half is counted or read for a band
    def refused(*args):
        raise AssertionError("counted a half or read a band")

    monkeypatch.setattr(perturb, "_partnered", refused)
    monkeypatch.setattr(sim.Chain, "counted", refused)
    grid = perturb.PERTURB_GRID
    for values, target, span in (
        ([1, 2, 3, 4], 5, grid // 10),  # YES: 4 cuts drift 0.4 quantum at most
        ([2, 4], 3, grid // 5),  # NO
    ):
        expected = perturbation_outcome(values, target, 1, span, grid, 50, 4)
        assert perturb_outcome(values, target, span, 50, 4) == expected, (values, target)
        assert expected[0] == 0


# (values, target, k, span) on a coarse grid, where errors reach their bounds
# often; the window is grid // 2 either side of the target.
BAND_EDGES = {
    2: [
        # n * span is the window: the path on the target always detects, and
        # paths one quantum (window + n * span) off sometimes do
        ([2], 2, 3, 1),
        ([2], 1, 3, 1),
        # n * span is one past the window: the path on the target can miss
        ([2], 2, 3, 2),
        # halves of two stages, each keeping one of its four paths: the
        # only pair near the moment lies exactly `near` = 2 quanta above it
        ([10, 1000, 40, 5000], 48, 1, 1),
    ],
    4: [
        ([1, 2], 1, 2, 1),
        ([2, 2], 3, 2, 1),
        ([2], 2, 2, 3),
        # the same halves, the pair `near` = 1 quantum above the moment
        ([10, 1000, 40, 5000], 49, 1, 1),
    ],
}


@pytest.mark.parametrize("grid", sorted(BAND_EDGES))
def test_perturbation_band_edges_match_the_reference(grid, monkeypatch):
    monkeypatch.setattr(perturb, "PERTURB_GRID", grid)
    sure, *edges = (
        perturbation_outcome(values, target, k, span, grid, 300, seed=9)
        for values, target, k, span in BAND_EDGES[grid]
    )
    # the edges are reached: the sure band never misses, the others
    # sometimes do and sometimes do not
    assert sure[0] == 0
    assert all(0 < edge[0] < 300 for edge in edges)
    for (values, target, k, span), expected in zip(BAND_EDGES[grid], (sure, *edges)):
        assert perturb_outcome(values, target, span, 300, 9, k) == expected


T11 = 10**11

# (misclassified, false_positives, false_negatives, max_arrival_error_s) of
# 40 trials, keyed by (error in quanta, seed). The 10^11 values put grid
# times near 1.2e18, a quarter of the bound on them.
PINNED_PERTURBATIONS = [
    ([1, 1, 1], 4, {
        ("0.1", 0): (0, 0, 0, "0.000000000000260796"),
        ("0.1", 1): (0, 0, 0, "0.00000000000027364"),
        ("0.4", 0): (8, 8, 0, "0.000000000001043176"),
        ("0.4", 1): (4, 4, 0, "0.000000000001094566"),
    }),
    ([2, 4], 3, {
        ("0.1", 0): (0, 0, 0, "0.000000000000179994"),
        ("0.4", 0): (6, 6, 0, "0.000000000000719973"),
        ("0.4", 1): (5, 5, 0, "0.000000000000749913"),
    }),
    ([1, 2, 3], 5, {
        ("0.4", 0): (4, 0, 4, "0.000000000001043176"),
        ("0.4", 1): (9, 0, 9, "0.000000000001094566"),
    }),
    ([3, 5, 7, 11, 13], 20, {
        ("0.1", 1): (0, 0, 0, "0.000000000000440821"),
        ("0.4", 0): (7, 0, 7, "0.00000000000156635"),
        ("0.4", 1): (9, 0, 9, "0.000000000001763271"),
    }),
    ([3 * T11, 4 * T11, 5 * T11], 7 * T11, {
        ("0.1", 0): (0, 0, 0, "0.000000000000260796"),
        ("0.4", 0): (10, 0, 10, "0.000000000001043176"),
        ("0.4", 1): (8, 0, 8, "0.000000000001094566"),
    }),
    ([3 * T11, 4 * T11, 5 * T11], 6 * T11, {
        ("0.4", 0): (0, 0, 0, "0.000000000001043176"),
        ("0.4", 1): (0, 0, 0, "0.000000000001094566"),
    }),
]


@pytest.mark.parametrize("values,target,expected", PINNED_PERTURBATIONS)
def test_perturbation_reports_are_pinned(values, target, expected):
    for (quanta, seed), pinned in expected.items():
        error = Fraction(quanta) * P.quantum_length_m
        report = perturb_values(values, target, error, 40, seed)
        got = (report.misclassified, report.false_positives, report.false_negatives,
               fraction_str(report.max_arrival_error_s))
        assert got == pinned, (values, target, quanta, seed)


def test_perturbed_half_cap_counts_arrivals_before_the_first_trial(monkeypatch):
    # unit values give a half of 3 stages only 4 distinct times but 8
    # arrivals, which run dense at a cap of 4. With no error the count at
    # the moment decides every trial, which enumerate no path, so the run
    # answers. Cut within 0.4 quantum at k = 1, 6 cuts drift 2.4 quanta,
    # and at k = 2, errors of 2 quanta, as long as the shortest cable, drift
    # 12: the trials enumerate, and the cap is checked before a half's
    # subset sums are enumerated or any error is drawn
    def never(*args):
        raise AssertionError("enumerated or drew past the cap")

    monkeypatch.setattr(sim, "MAX_PROFILE_ENTRIES", 4)
    assert perturb_values([1] * 6, 3, 0, 1, seed=0).misclassified == 0
    monkeypatch.setattr(perturb, "_candidates", never)
    monkeypatch.setattr(perturb, "_uniform_draws", never)
    for error, k in ((Fraction(4, 10) * P.quantum_length_m, 1), (2 * P.quantum_length_m, 2)):
        params = ls.PhysicalParams(offset_k_quanta=k)
        with pytest.raises(ls.ResourceLimit, match=r"2\^3"):
            perturb_values([1] * 6, 3, error, 1, seed=0, params=params)


def chunk_of(trials_per_chunk, n, decided=False):
    """The PERTURB_CHUNK_ARRIVALS that runs n-stage trials this many at a time.

    Trials that enumerate are sized by their 2^ceil(n/2) arrivals a half,
    trials that the exact halves decide by their 2n drawn errors, a quarter
    of the chunk's budget.
    """
    return trials_per_chunk * (8 * n if decided else 1 << (n + 1) // 2)


@pytest.mark.parametrize("values,target,expected", PINNED_PERTURBATIONS)
def test_perturbation_reports_do_not_depend_on_the_chunk_size(values, target, expected,
                                                                monkeypatch):
    # one trial per chunk, and 3 per chunk, which splits 40 trials 13 * 3 + 1,
    # sized for trials that enumerate and for trials that the exact halves
    # decide (those cut within 0.1 quantum)
    for quanta, seed in expected:
        error = Fraction(quanta) * P.quantum_length_m
        default = perturb_values(values, target, error, 40, seed)
        for per_chunk in (1, 3):
            for decided in (False, True):
                with monkeypatch.context() as m:
                    chunk = chunk_of(per_chunk, len(values), decided)
                    m.setattr(perturb, "PERTURB_CHUNK_ARRIVALS", chunk)
                    assert perturb_values(values, target, error, 40, seed) == default


def test_an_error_past_the_shortest_cable_is_refused_before_anything_runs(monkeypatch):
    # one grid unit past the skip arcs of k quanta is refused whatever the
    # seed, the trial count and the chunk size, before the halves propagate
    # or an error is drawn; an error of exactly k quanta runs
    def never(*args):
        raise AssertionError("ran past the refusal")

    for k in (1, 3):
        params = ls.PhysicalParams(offset_k_quanta=k)
        error = (k + Fraction(1, perturb.PERTURB_GRID)) * params.quantum_length_m
        assert perturb_values([1, 1, 1], 4, k * params.quantum_length_m, 40, 2,
                              params).trials == 40
        with monkeypatch.context() as m:
            m.setattr(perturb, "propagate_halves", never)
            m.setattr(perturb, "_uniform_draws", never)
            for per_chunk in (1, 7, 64):
                m.setattr(perturb, "PERTURB_CHUNK_ARRIVALS", chunk_of(per_chunk, 3))
                for seed, trials in ((2, 1), (2, 40), (4, 16), (13, 1000)):
                    with pytest.raises(ls.InvalidValue, match="shortest cable"):
                        perturb_values([1, 1, 1], 4, error, trials, seed, params)


@pytest.mark.parametrize("span", [0, 1, 2, 7, 8, 35714, 400000, 2**31 - 1, 2**32,
                                  3_333_333_333, 2**61 - 1])
def test_bulk_draws_are_the_draws_of_randint(span):
    # The bulk reader relies on how CPython's randint spends the generator's
    # 32-bit words. A take of one leaves the rest of its batch pending, and
    # the odd and the long takes after it start from what is left over.
    for seed in (0, 1, 2024):
        take = perturb._uniform_draws(random.Random(seed), span)
        twin = random.Random(seed)
        for count in (1, 7, 1001, 1, 3):
            expected = [twin.randint(-span, span) for _ in range(count)]
            drawn = take(count)
            assert drawn.dtype == np.int64
            assert drawn.tolist() == expected, (span, seed, count)


def test_chunks_stay_within_one_int64_axis(monkeypatch):
    # Grid times near 1.2e17 per half, 100 trials in one chunk: the window
    # reader doubles every time of a trial's row, which must stay in int64,
    # and one trial per chunk gives the same reports.
    values = [6 * 10**10 + d for d in (1, 3, 7, 9)]
    error = Fraction(4, 10) * P.quantum_length_m
    for target, pinned in ((12 * 10**10 + 4, (32, 0, 32)), (12 * 10**10 + 5, (24, 24, 0))):
        report = perturb_values(values, target, error, 100, seed=3)
        assert (report.misclassified, report.false_positives, report.false_negatives) == pinned
        with monkeypatch.context() as m:
            m.setattr(perturb, "PERTURB_CHUNK_ARRIVALS", chunk_of(1, len(values)))
            assert perturb_values(values, target, error, 100, seed=3) == report


def test_perturbation_past_the_grid_bound_is_a_resource_limit():
    # grid times are quanta * 10^6 and stay below 2^62: four values of 3e12
    # make a longest path of 1.2e19 grid units, and a target of 5e12 a window
    # at 5e18, though both instances fit the bound in quanta
    error = Fraction(1, 10) * P.quantum_length_m
    for values, target in (([3 * 10**12] * 4, 12 * 10**12), ([1, 2], 5 * 10**12)):
        with pytest.raises(ls.ResourceLimit, match="grid"):
            perturb_values(values, target, error, 40, seed=0)


def test_a_run_the_empty_subset_decides_answers_up_to_the_grid_bound():
    # At B = 0 with no error the empty subset lies on the moment and decides
    # every trial, which enumerate nothing: a longest path of 2^62 - 387904
    # grid units, within half a quantum of the bound, answers
    assert 2**62 - 4611686018427 * perturb.PERTURB_GRID < perturb.PERTURB_GRID // 2
    report = perturb_values([4611686018427], 0, 0, 10, seed=0)
    assert (report.trials, report.misclassified) == (10, 0)


def test_perturbation_argument_validation():
    with pytest.raises(ls.InvalidValue):
        perturb_values([1], 1, -1, 10, seed=0)
    with pytest.raises(ls.InvalidValue):
        perturb_values([1], 1, 0, 0, seed=0)
