"""Classical subset-sum solvers used as ground truth for the simulator.

Three independent routes: a pseudo-polynomial dynamic program over reachable
sums (bit-packed, O(n*B/64) word shifts), exhaustive enumeration of all 2^n
subset sums, and meet-in-the-middle, O(n*2^(n/2)) sort steps whatever the
target. Every simulated verdict is checked against at least one of these.
`solve_auto` picks the DP or meet-in-the-middle by their cost; brute force
is picked only by name, and is the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .model import Instance, Verdict

# Size caps; each solver reads its cap when it is called.
BRUTE_FORCE_MAX_N = 25
MITM_MAX_N = 50
DP_MAX_TABLE_BITS = 10**8


@dataclass(frozen=True)
class OracleResult:
    """A solver's verdict, and which solver gave it."""

    verdict: Verdict
    solver_name: str


def solve_dp(instance: Instance) -> OracleResult:
    """Reachability DP over sums 0..B, one bit per sum.

    The table is a single big integer, masked to bits 0..B. A value above B
    is in no subset that sums to B, so it leaves the table as it is
    (shifting by it would build an integer of about that many bits). The
    values are shifted in smallest first, so the table grows only as wide as
    the sum of the values taken so far, and the DP stops as soon as bit B is
    set: the table's top bit is B at most, so the bit length tells. While
    the values taken sum to B at most, no bit above B can be set yet, so the
    mask is applied only from the value that passes B.
    """
    b = instance.target
    if b + 1 > DP_MAX_TABLE_BITS:
        raise ResourceLimit(
            f"DP table of {b + 1} bits exceeds the budget of {DP_MAX_TABLE_BITS}"
        )
    mask = (1 << (b + 1)) - 1
    reach = 1
    taken = 0
    for a in sorted(instance.values):
        if reach.bit_length() > b or a > b:
            break
        reach |= reach << a
        taken += a
        if taken > b:
            reach &= mask
    return OracleResult(Verdict.from_bool(reach.bit_length() > b), "dp")


def _all_subset_sums(values: tuple[int, ...]) -> np.ndarray:
    """All 2^n subset sums by doubling, as int64: an Instance keeps the sum
    of its values below model.MAX_DELAY_QUANTA = 2^62."""
    arr = np.zeros(1, dtype=np.int64)
    for a in values:
        arr = np.concatenate((arr, arr + a))
    return arr


def solve_bruteforce(instance: Instance) -> OracleResult:
    """Exhaustive enumeration of every subset sum."""
    if instance.n > BRUTE_FORCE_MAX_N:
        raise ResourceLimit(
            f"brute force is capped at n <= {BRUTE_FORCE_MAX_N}, got {instance.n}"
        )
    yes = bool(np.any(_all_subset_sums(instance.values) == instance.target))
    return OracleResult(Verdict.from_bool(yes), "bruteforce")


def solve_mitm(instance: Instance) -> OracleResult:
    """Meet-in-the-middle: O(2^(n/2)) time, independent of the target size."""
    if instance.n > MITM_MAX_N:
        raise ResourceLimit(
            f"meet-in-the-middle is capped at n <= {MITM_MAX_N}, got {instance.n}"
        )
    half = instance.n // 2
    left = _all_subset_sums(instance.values[:half])
    right = np.sort(_all_subset_sums(instance.values[half:]))
    # The target is below 2^62 too, so target - left is exact in int64. Sorted
    # keys make one binary search each, resumed where the last one ended.
    keys = np.sort(instance.target - left)
    i = np.minimum(np.searchsorted(right, keys), len(right) - 1)
    yes = bool((right[i] == keys).any())
    return OracleResult(Verdict.from_bool(yes), "mitm")


def solve_auto(instance: Instance) -> OracleResult:
    """Pick the cheaper of the DP and meet-in-the-middle.

    The DP costs about n*B/64 word shifts and meet-in-the-middle about
    n*2^(n/2) sort steps, so the DP runs while B < 2^(n//2 + 6), fitted on a
    2-vCPU VM (BENCH_oracle_pick.json). Below B = 2^16 it runs at any n: it
    takes some tens of microseconds there, no more than meet-in-the-middle's
    fixed numpy cost. From n = 42 on the bound is past DP_MAX_TABLE_BITS, so
    the DP runs whenever its table fits.
    """
    n, b = instance.n, instance.target
    if b + 1 <= DP_MAX_TABLE_BITS and b < 1 << max(16, n // 2 + 6):
        return solve_dp(instance)
    if n <= MITM_MAX_N:
        return solve_mitm(instance)
    raise ResourceLimit(
        f"no exact solver can handle n={n}, B={b} within the configured limits"
    )
