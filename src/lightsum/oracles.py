"""Classical subset-sum solvers used as ground truth for the simulator.

Three independent routes: a pseudo-polynomial dynamic program over reachable
sums (bit-packed, O(n*B) work), exhaustive enumeration of all 2^n subset sums,
and meet-in-the-middle for instances where the target is too large for the DP
and n too large for brute force. Every simulated verdict is checked against
at least one of these.
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
    """Verdict plus, when extracted, a witness of indices into the value list."""

    verdict: Verdict
    witness: tuple[int, ...] | None
    solver_name: str


def solve_dp(instance: Instance, want_witness: bool = False) -> OracleResult:
    """Reachability DP over sums 0..B, one bit per sum.

    The table is a single big integer, masked to bits 0..B. A value above B
    is in no subset that sums to B, so it leaves the table as it is
    (shifting by it would build an integer of about that many bits). The
    verdict alone shifts by the values smallest first, so the table grows
    only as wide as the sum of the values taken so far, and stops as soon as
    bit B is set: the table's top bit is B at most, so the bit length tells.
    While the values taken sum to B at most, no bit above B can be set yet,
    so the mask is applied only from the value that passes B. Witness
    extraction keeps index order and one snapshot per element, and
    backtracks, so it multiplies the memory bound by n.
    """
    b = instance.target
    rows = instance.n + 1 if want_witness else 1
    if (b + 1) * rows > DP_MAX_TABLE_BITS:
        raise ResourceLimit(
            f"DP table of {(b + 1) * rows} bits exceeds the budget of {DP_MAX_TABLE_BITS}"
        )
    mask = (1 << (b + 1)) - 1
    reach = 1
    if not want_witness:
        taken = 0
        for a in sorted(instance.values):
            if reach.bit_length() > b or a > b:
                break
            reach |= reach << a
            taken += a
            if taken > b:
                reach &= mask
        return OracleResult(Verdict.from_bool(reach.bit_length() > b), None, "dp")

    snapshots = [reach]
    for a in instance.values:
        if a <= b:
            reach = (reach | (reach << a)) & mask
        snapshots.append(reach)
    if not (reach >> b) & 1:
        return OracleResult(Verdict.NO, None, "dp")
    picked = []
    s = b
    for i in range(instance.n - 1, -1, -1):
        if not (snapshots[i] >> s) & 1:
            picked.append(i)
            s -= instance.values[i]
    if s != 0:
        raise RuntimeError(f"witness sums to the target minus {s}")
    return OracleResult(Verdict.YES, tuple(reversed(picked)), "dp")


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
    return OracleResult(Verdict.from_bool(yes), None, "bruteforce")


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
    return OracleResult(Verdict.from_bool(yes), None, "mitm")


def solve_auto(instance: Instance) -> OracleResult:
    """Pick a solver by cost: brute force when 2^n is at most the DP work n*B,
    else the DP while its table fits the budget, else meet-in-the-middle."""
    n, b = instance.n, instance.target
    if n <= BRUTE_FORCE_MAX_N and 2**n <= n * b:
        return solve_bruteforce(instance)
    if b + 1 <= DP_MAX_TABLE_BITS:
        return solve_dp(instance)
    if n <= MITM_MAX_N:
        return solve_mitm(instance)
    raise ResourceLimit(
        f"no exact solver can handle n={n}, B={b} within the configured limits"
    )
