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

    Every cable of the offset device (skip k, take a + k quanta) is cut as
    `cut_outcome` cuts it, and a trial detects at (target + n*k) * grid.
    """
    arcs = [(k, a + k) for a in values]
    return cut_outcome(arcs, target + len(values) * k, has_subset_sum(values, target),
                       span, grid, trials, seed)


def cut_outcome(arcs, moment, yes, span, grid, trials, seed):
    """perturbation_outcome for any (skip, take) arcs in quanta, read at `moment`
    quanta, on an instance whose verdict is `yes`.

    Every cable, in units of quantum / grid, is cut with an error from
    `random.Random(seed).randint` in [-span, span], trial by trial, stage by
    stage, skip before take; a cable cut to exactly 0 delays its ray by 0,
    and one cut below 0 makes the outcome None. A trial detects when any of
    its 2^n paths, summed arc by arc, lies within grid // 2 of moment * grid.
    The drift is the largest distance of a perturbed path from its exact
    time, over all trials.
    """
    rng = random.Random(seed)
    detected = drift = 0
    for _ in range(trials):
        stages = []
        for arc in arcs:
            exact = (arc[0] * grid, arc[1] * grid)
            stages.append([(t, t + rng.randint(-span, span)) for t in exact])
        if any(cut < 0 for stage in stages for _, cut in stage):
            return None
        paths = list(product(*stages))
        detected += any(abs(sum(cut for _, cut in path) - moment * grid) <= grid // 2
                        for path in paths)
        drift = max([drift] + [abs(sum(cut - t for t, cut in path)) for path in paths])
    if yes:
        return (trials - detected, 0, trials - detected, drift)
    return (detected, detected, 0, drift)
