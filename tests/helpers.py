"""Independent reference computations for the test suite.

Deliberately naive: subsets are enumerated index combination by index
combination with itertools, so nothing here shares a code path with the
package's routes: the bitset DP and meet-in-the-middle's one tagged sort
among the oracles, and in the simulator, the dense count array and chain
enumeration read through the tagged sort.
"""

import random
from collections import Counter
from itertools import combinations, product


def subset_sums(values):
    """Multiset of all 2^n subset sums. Works for ints and exact rationals."""
    sums = Counter()
    indices = range(len(values))
    for r in range(len(values) + 1):
        for combo in combinations(indices, r):
            sums[sum(values[i] for i in combo)] += 1
    return sums


def has_subset_sum(values, target):
    return target in subset_sums(values)


def arrivals(profile):
    """A counted profile's {time: count} pairs, as plain ints."""
    return dict(zip(profile.times.tolist(), profile.counts.tolist()))


def perturbation_outcome(values, target, k, span, grid, trials, seed):
    """(misclassified, false positives, false negatives, largest drift) of
    seeded perturbation trials, or None when a drawn cable is negative.

    Every cable of the offset device (skip k, take a + k quanta), in units
    of quantum / grid, is cut with an error from `random.Random(seed).randint`
    in [-span, span], trial by trial, stage by stage, skip before take; a
    cable cut to exactly 0 delays its ray by 0, and one cut below 0 makes the
    outcome None. A trial detects when any of its 2^n paths, summed arc by
    arc, lies within grid // 2 of (target + n*k) * grid. The drift is the
    largest distance of a perturbed path from its exact time, over all
    trials.
    """
    moment = (target + len(values) * k) * grid
    rng = random.Random(seed)
    detected = drift = 0
    for _ in range(trials):
        stages = []
        for a in values:
            exact = (k * grid, (a + k) * grid)
            stages.append([(t, t + rng.randint(-span, span)) for t in exact])
        if any(cut < 0 for stage in stages for _, cut in stage):
            return None
        paths = list(product(*stages))
        detected += any(abs(sum(cut for _, cut in path) - moment) <= grid // 2
                        for path in paths)
        drift = max([drift] + [abs(sum(cut - t for t, cut in path)) for path in paths])
    if has_subset_sum(values, target):
        return (trials - detected, 0, trials - detected, drift)
    return (detected, detected, 0, drift)
