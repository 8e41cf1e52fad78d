"""Classical subset-sum solvers used as ground truth for the simulator.

Two independent routes: a pseudo-polynomial dynamic program over reachable
sums (bit-packed, O(n*B/64) word shifts), and meet-in-the-middle, both
halves' 2^(n/2) sums in one buffer and one sort, whatever the target. Every
simulated verdict is checked against one of them, which `solve_auto` picks
by their cost. Each answers NO at once, before its cap, when the target
passes the sum of the values. None of them shares code with the simulator.

The tests compare each with exact references that share no code with it:
both with `tests/helpers.subset_sums`, which sums itertools' combinations
one by one, on grids of up to 13 values and on generated instances; and
meet-in-the-middle, on up to 20 values to 10^9, too wide for the DP, with
the simulated device's ray count at B + n*k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .model import Instance, Verdict

# Size caps; each solver reads its cap when it is called. Meet-in-the-middle
# stops at 2^22 sums a half, as many paths as the simulator enumerates in one
# half (sim.MAX_PROFILE_ENTRIES): 44 unit values take 0.1 s and peak at about
# 100 MB resident (2-vCPU VM).
MITM_MAX_N = 44
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
    if b > instance.total:
        return OracleResult(Verdict.NO, "dp")
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


def solve_mitm(instance: Instance) -> OracleResult:
    """Meet-in-the-middle: O(2^(n/2)) time and memory, independent of the target size.

    Both halves' subset sums go into one buffer, each left sum l as the key
    2(B - l) and each right sum r as 2r + 1, and the buffer is sorted once.
    Some l + r = B exactly when a key is directly followed by the value one
    above it: keys are even and right sums odd, so such neighbours differ in
    their lowest bit alone, and nothing sorts between a key 2(B - l) and the
    right sum 2(B - l) + 1. B and the sum of the values are below
    model.MAX_DELAY_QUANTA = 2^62, so every value written, partial sums
    included, lies within 2 max(B, sum) + 1: int32 while that is below 2^31,
    int64 otherwise. Capped at MITM_MAX_N values, 2^22 sums a half.
    """
    n, b, values = instance.n, instance.target, instance.values
    if b > sum(values):
        return OracleResult(Verdict.NO, "mitm")
    if n > MITM_MAX_N:
        raise ResourceLimit(
            f"meet-in-the-middle is capped at n <= {MITM_MAX_N}, got {n}"
        )
    half = n // 2
    top = 2 * max(b, sum(values)) + 1
    sums = np.empty((1 << half) + (1 << (n - half)), dtype=np.int32 if top < 2**31 else np.int64)
    left, right = sums[: 1 << half], sums[1 << half :]
    left[0], right[0] = 2 * b, 1
    # Each value doubles its half's filled prefix: the copy takes the value,
    # 2(B - l) - 2a on the left and 2r + 1 + 2a on the right.
    for part, scale, taken in ((left, -2, values[:half]), (right, 2, values[half:])):
        filled = 1
        for a in taken:
            np.add(part[:filled], scale * a, out=part[filled : 2 * filled])
            filled *= 2
    sums.sort()
    yes = bool(((sums[1:] ^ sums[:-1]) == 1).any())
    return OracleResult(Verdict.from_bool(yes), "mitm")


def solve_auto(instance: Instance) -> OracleResult:
    """Pick the cheaper of the DP and meet-in-the-middle.

    The DP costs about n*B/64 word shifts and meet-in-the-middle about
    n*2^(n/2) sort steps, so the DP runs while B < 2^(n//2 + 4), fitted on a
    2-vCPU VM (BENCH_exact_reads.json). Below B = 2^16 it runs at any n: it
    takes some tens of microseconds there, no more than meet-in-the-middle's
    fixed numpy cost. Past MITM_MAX_N it runs whenever its table fits, and
    meet-in-the-middle answers a target past the sum of the values at once.
    """
    n, b = instance.n, instance.target
    if b + 1 <= DP_MAX_TABLE_BITS and (n > MITM_MAX_N or b < 1 << max(16, n // 2 + 4)):
        return solve_dp(instance)
    if n <= MITM_MAX_N or b > instance.total:
        return solve_mitm(instance)
    raise ResourceLimit(
        f"no exact solver can handle n={n}, B={b} within the configured limits"
    )
