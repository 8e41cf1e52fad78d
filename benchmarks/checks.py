"""Output checkers for the benchmark.

Every checker compares a lightsum report (or a dumped profile) against a
computation made here, apart from the program, or against a property the
method must have. Nothing here imports lightsum. A checker returns nothing
when the output is right and raises CheckFailed, naming the fault, when it is
not.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

# The program's documented defaults, restated so the checks do not read them
# from the code under test.
DELAY_QUANTUM_S = Fraction(1, 10**12)
LIGHT_SPEED_M_S = Fraction(300_000_000)

EXIT_YES = 0
EXIT_NO = 1


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def quantum_length_m(velocity_factor: Fraction) -> Fraction:
    """Fiber length of one delay quantum: c * velocity_factor * quantum."""
    return LIGHT_SPEED_M_S * velocity_factor * DELAY_QUANTUM_S


def check_solve(code: int, report: dict, *, yes: bool) -> None:
    """A planted-YES instance exits 0, a parity-NO instance exits 1, and the
    simulator and the oracle both give that verdict."""
    verdict = "YES" if yes else "NO"
    want = EXIT_YES if yes else EXIT_NO
    require(code == want, f"solve exited {code}, expected {want} ({verdict})")
    require(report.get("agreement") is True, "solve reports no agreement")
    require(report["simulator"]["verdict"] == verdict,
            f"simulator says {report['simulator']['verdict']}, expected {verdict}")
    require(report["oracle"]["verdict"] == verdict,
            f"oracle says {report['oracle']['verdict']}, expected {verdict}")


def parse_dump(text: str) -> list[tuple[int, int]]:
    """`<time> <count>` lines as (time, count) pairs, in file order."""
    pairs = []
    for line in text.splitlines():
        t, c = line.split()
        pairs.append((int(t), int(c)))
    return pairs


def check_profile_properties(pairs: list[tuple[int, int]], values: list[int], k: int) -> None:
    """Properties every offset-device profile has, whatever its size: 2^n rays
    in all, strictly ascending times with positive counts, the first moment
    n*k (empty subset), the last sum(a)+n*k (full set), and the complement
    symmetry c(t) = c(sum(a) + 2nk - t)."""
    n, total = len(values), sum(values)
    require(bool(pairs), "dumped profile is empty")
    times = [t for t, _ in pairs]
    counts = [c for _, c in pairs]
    require(sum(counts) == 2**n, f"profile holds {sum(counts)} rays, expected 2^{n}")
    require(all(c > 0 for c in counts), "profile holds a non-positive count")
    require(all(a < b for a, b in zip(times, times[1:])), "profile times are not ascending")
    require(times[0] == n * k, f"first moment {times[0]}, expected n*k = {n * k}")
    require(times[-1] == total + n * k,
            f"last moment {times[-1]}, expected sum(a)+n*k = {total + n * k}")
    mirror = total + 2 * n * k
    for i in range(len(pairs) // 2 + 1):
        j = len(pairs) - 1 - i
        require(times[i] + times[j] == mirror and counts[i] == counts[j],
                f"complement symmetry fails at t={times[i]}")


def subset_sum_counts(values: list[int]) -> Counter:
    """Multiset of all 2^n subset sums, one index combination at a time."""
    sums: Counter = Counter()
    for r in range(len(values) + 1):
        for combo in combinations(values, r):
            sums[sum(combo)] += 1
    return sums


def check_dump_equals_enumeration(pairs: list[tuple[int, int]], values: list[int], k: int) -> None:
    """The dump is exactly the subset sums shifted by n*k, in ascending time."""
    shift = len(values) * k
    expected = sorted((s + shift, c) for s, c in subset_sum_counts(values).items())
    require(pairs == expected, "dumped profile differs from the enumerated subset sums")


def check_perturb(
    code: int,
    report: dict,
    *,
    n: int,
    trials: int,
    max_error_m: Fraction,
    velocity_factor: Fraction,
) -> None:
    """Trial count as requested, a consistent tally, an arrival error within
    n*max_error/(c*velocity_factor), and no misclassification at all when
    n*max_error stays below half a quantum length."""
    require(code == 0, f"perturb exited {code}")
    require(report["trials"] == trials, f"perturb ran {report['trials']} trials, asked {trials}")
    mis = report["misclassified"]
    require(0 <= mis <= trials, f"misclassified {mis} is outside 0..{trials}")
    require(report["false_positives"] + report["false_negatives"] == mis,
            "false positives and negatives do not add up to misclassified")
    bound = n * max_error_m / (LIGHT_SPEED_M_S * velocity_factor)
    err = Fraction(report["max_arrival_error_s"])
    require(0 <= err <= bound, f"max_arrival_error_s {err} exceeds n*max_error/c = {bound}")
    if 2 * n * max_error_m < quantum_length_m(velocity_factor):
        require(mis == 0, f"{mis} trials misclassified below the half-quantum bound")


def check_compile(code: int, report: dict, *, values: list[int], k: int,
                  velocity_factor: Fraction) -> None:
    """Skip arcs are k quanta and take arcs a_i + k quanta of fiber, exactly."""
    require(code == 0, f"compile exited {code}")
    q = quantum_length_m(velocity_factor)
    require(Fraction(report["quantum_length_m"]) == q, "wrong quantum length")
    stages = report["stages"]
    require(len(stages) == len(values), f"{len(stages)} stages for {len(values)} values")
    for a, stage in zip(values, stages):
        require(stage["value"] == a, f"stage value {stage['value']}, expected {a}")
        require(Fraction(stage["skip_m"]) == k * q, f"skip arc {stage['skip_m']} m is not k quanta")
        require(Fraction(stage["take_m"]) == (a + k) * q,
                f"take arc {stage['take_m']} m is not (a+k) quanta for a={a}")


def check_analyze(code: int, report: dict, *, max_cable_m: Fraction,
                  velocity_factor: Fraction) -> None:
    """The largest encodable value is floor(L / quantum_length)."""
    require(code == 0, f"analyze exited {code}")
    want = max_cable_m // quantum_length_m(velocity_factor)
    require(report["max_encodable_value"] == want,
            f"max_encodable_value {report['max_encodable_value']}, expected {want}")


def check_demo_epsilon(code: int, report: dict) -> None:
    """The offset device agrees with the oracle."""
    require(code == 0, f"demo-epsilon exited {code}")
    require(report["offset_correct"] is True, "demo-epsilon: offset device is wrong")
