"""Exact simulation of ray propagation through a delay-line device.

A profile maps arrival time (integer quanta) to the number of rays arriving
at that moment. Every stage is a skip arc and a take arc: light crossing it
makes one copy of the arrival histogram shifted by each arc's delay and adds
the two, so after n stages the histogram at the destination is exactly the
multiset of subset sums shifted by the accumulated skip delays. The offset
device and the epsilon device differ only in those two delays.

Every chain, and so every half, is kept as its earliest arrival time,
`least`, the sum of each stage's shorter arc, and its arrivals measured from
it, which lie in [0, span] for span the sum of |take - skip| over its
stages. An offset k on every skip arc, or an epsilon, moves `least` alone,
and each reader measures its moment from the halves' `least`, so k enters no
read, width or bound. While a chain has DENSE_PATHS_PER_SLOT paths
(2^stages) or more per slot, one a moment over its span, and its span + 1
slots fit MAX_PROFILE_ENTRIES, it runs on one dense count array and a
scratch row: a stage copies the occupied slots aside and adds them back
|step| higher. Counts are at most 2^n, so uint64 is exact up to n = 63 and
Python ints (object dtype), capped by MAX_DENSE_WORD_ADDITIONS, take over
above. Wider chains, such as values of 10^9, have at most
MAX_PROFILE_ENTRIES paths and are kept as their steps (a Chain). Each reader
writes such a chain's path values, one entry per path in subset order,
where it needs them: detection straight into its sort buffer, tagged, and
the perturbation pre-pass (`perturb`) and the whole profile (`propagate`,
for a dump) as plain times, which they sort and count, each run of equal
times in uint64. Each array of times takes its width from a bound the code
already has, and is int32 below 2^31: a chain's span for its enumeration;
twice the halves' spans, plus two, for detection's tagged sort; and for the
trials (`perturb`) twice the larger of the longest perturbed path and the
window top, plus one. Otherwise it is
int64, below 2^62: a layout's longest path is below model.MAX_DELAY_QUANTA
= 2^62, and a perturbed device is checked against the same bound in grid
units. Counted profiles keep int64 times, and the whole profile folds
`least` back in, so a dump is absolute.

The detector reads one moment, so detection never builds the whole profile.
It cuts the chain at its middle node and propagates the first n // 2 stages
and the rest on their own (a SplitProfile). A ray crosses both halves, so
the rays arriving at M number sum_t left(t) * right(M - t). Both halves go
into one buffer, each left time t as the key 2(M - t) and each right time r
as 2r + 1, M measured from both halves' `least`; an enumerated half writes
them there from its chain, the tag folded into the base and the steps, so
no plain path time is written first. One sort brings a key directly before
the right time one above it where a pair meets; from the same runs of equal
values come the multiplicity of each meet and each half's distinct times.
Each half has at most 2^ceil(n/2) paths, and the caps apply per half. The
halves are the one way the exact device is read, and `count_at` the one read
of a moment: the solver, the epsilon demonstration and the perturbation
pre-pass read them, and the whole profile (`propagate`) is built only to be
dumped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import IO, Sequence

import numpy as np

from .analysis import per_ray_power
from .errors import ResourceLimit, StageMismatch
from .model import (
    DeviceLayout,
    Instance,
    PhysicalParams,
    Verdict,
    compile_epsilon_layout,
    compile_layout,
)
from .oracles import solve_auto

# A dense chain holds this many time slots at most (32 MiB as uint64), and an
# enumerated chain, or a perturbed half, this many path times.
MAX_PROFILE_ENTRIES = 1 << 22

# A dense stage costs a copy and an add over its occupied slots, an
# enumerated chain a few steps per path. On a 2-vCPU VM the enumerator was
# faster from 0.5-0.7 slots per path at 12-21 stages (from 1-2 below 10
# stages, where both take well under 0.1 ms), so a chain runs dense while it
# has this many paths a slot.
DENSE_PATHS_PER_SLOT = 2

# A dense chain of s stages over h slots adds s * h counts of ceil(s/64) words
# each. Past 63 stages they are Python ints, added at 0.9-1.2e9 words a second
# on a 2-vCPU VM (2200, 4400 and 6000 unit stages, each over one slot more, in
# 0.18, 1.1 and 2.7 s): a chain at the cap, 8191 unit stages, takes about 8 s,
# a `solve` of two such halves 16 s, and 20 000 unit values, halves of 1.6e10
# word additions, exit 4 before propagating.
MAX_DENSE_WORD_ADDITIONS = 1 << 33

# A dump is formatted and written this many lines at a time, so a dump of
# MAX_PROFILE_ENTRIES lines never holds more than a block as Python objects.
WRITE_PROFILE_ROWS = 1 << 12


@dataclass(frozen=True, eq=False)
class ArrivalProfile:
    """Arrival moments at a node, in quanta: `least` plus each of `times`.

    Sorted distinct int64 times with positive ray counts, uint64 up to 63
    stages and object (Python ints) above. A half's times start at 0, and
    `least` is its earliest arrival; the whole profile that `propagate`
    builds holds absolute times, and its `least` is 0.
    """

    stage_index: int
    least: int
    span: int  # the latest arrival time less the earliest
    times: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class Chain:
    """A chain of stages: its earliest path time, its base, its steps, and their span.

    A step is take - skip of one stage. A path's time is `least` plus its
    value, `base` plus the steps it takes, which lies in [0, span]: the base
    is the value of the path that takes no stage, the sum of |step| over the
    negative steps. An enumerated half is kept so: whoever reads it writes
    its 2^stages path values where it needs them, through `_path_times`, and
    folds any affine map of the values, such as a tag, into the base and the
    steps.
    """

    least: int  # the sum of each stage's shorter arc
    base: int
    steps: list[int]
    span: int  # the sum of |step|

    @property
    def stage_index(self) -> int:
        return len(self.steps)

    def __len__(self) -> int:
        return 1 << len(self.steps)

    def path_times(self) -> np.ndarray:
        """Every path's value in subset order, one entry per path, equal values repeated.

        int32 when the span is below 2^31, which numpy sorts 1.5 times as
        fast as int64 (8192 times of 13 values to 5e4, 2-vCPU VM), and int64
        otherwise.
        """
        return _path_times(self.base, self.steps, np.empty(len(self), time_dtype(self.span)))

    def counted(self) -> ArrivalProfile:
        """The chain's distinct path times (int64), with the paths at each (uint64)."""
        times = self.path_times()
        times.sort()
        # Where each run of equal times starts, and where the last one ends: a
        # run's count is the next start minus its own.
        edges = np.empty(len(times) + 1, dtype=bool)
        edges[0] = edges[-1] = True
        np.not_equal(times[1:], times[:-1], out=edges[1:-1])
        starts = np.flatnonzero(edges)
        counts = np.empty(len(starts) - 1, dtype=np.uint64)
        np.subtract(starts[1:], starts[:-1], out=counts, casting="unsafe")
        return ArrivalProfile(self.stage_index, self.least, self.span,
                              times[starts[:-1]].astype(np.int64), counts)


def _count_dtype(n: int) -> type:
    # n stages give at most 2^n rays in one slot.
    return np.uint64 if n <= 63 else object


def _propagate_dense(least: int, steps: Sequence[int], slots: int) -> ArrivalProfile:
    # Slot i counts the rays at the chain's least time plus i. At a stage of
    # step s every ray also moves |s| slots up, along its longer arc: a copy
    # of the occupied slots is added back |s| higher.
    counts = np.zeros(slots, dtype=_count_dtype(len(steps)))
    before = np.empty_like(counts)
    counts[0] = 1
    width = 1  # occupied slots
    for step in map(abs, steps):
        before[:width] = counts[:width]
        counts[step : step + width] += before[:width]
        width += step
    times = np.flatnonzero(counts)
    return ArrivalProfile(len(steps), least, slots - 1, times, counts[times])


def _path_times(base: int, steps: Sequence[int], out: np.ndarray) -> np.ndarray:
    """Every path value of one chain, in subset order, written into the row `out`.

    The chain is an exact half that a reader enumerates: `out` has 2^stages
    entries, `base` is an int and `steps` a sequence of ints, one a stage.
    Entry p is the base plus step s for every bit s set in p. With the sum of
    the skip arcs for base and take - skip for the steps, these are the path
    times: path p takes stage s's take arc when bit s of p is set and its
    skip arc otherwise, and equal times are kept. An affine map of every path
    time, such as a tag, is folded into the base and the steps. `out` may be
    a slice of a wider buffer, and its dtype must hold every path value,
    since every entry ever written is one. The row is stepped by Python ints
    over plain slices, which cost less per stage than array operands and
    `...` slices. The perturbation trials enumerate a batch of chains with
    their own enumerator (`perturb`).
    """
    out[0] = base
    for stage, step in enumerate(steps):
        np.add(out[: 1 << stage], step, out=out[1 << stage : 2 << stage])
    return out


def time_dtype(top: int) -> type:
    """The width of times that stay in [-top, top]: int32 while top is below 2^31."""
    return np.int32 if top < 2**31 else np.int64


def check_paths(stages: int) -> None:
    """Refuse a chain whose 2^stages paths are past MAX_PROFILE_ENTRIES."""
    if 2**stages > MAX_PROFILE_ENTRIES:
        raise ResourceLimit(
            f"a chain of {stages} stages has 2^{stages} paths, past the cap of "
            f"{MAX_PROFILE_ENTRIES}"
        )


def as_chain(arcs: Sequence[tuple[int, int]]) -> Chain:
    """The chain of the (skip, take) delays `arcs`, one pair a stage."""
    steps = [take - skip for skip, take in arcs]
    base = -sum(step for step in steps if step < 0)
    return Chain(sum(skip for skip, _ in arcs) - base, base, steps, sum(map(abs, steps)))


def _propagate_chain(arcs: Sequence[tuple[int, int]]) -> ArrivalProfile | Chain:
    # Dense while the slots, one a moment over the span, are few next to the
    # 2^stages paths, else the chain is kept as it is and its reader
    # enumerates every path time, one entry per path. Past 22 stages, too
    # many paths to enumerate, every chain whose slots fit runs dense.
    chain = as_chain(arcs)
    stages = len(chain.steps)
    slots = chain.span + 1
    if slots <= MAX_PROFILE_ENTRIES and DENSE_PATHS_PER_SLOT * slots <= 1 << stages:
        additions = stages * slots * -(-stages // 64)
        if additions > MAX_DENSE_WORD_ADDITIONS:
            raise ResourceLimit(
                f"a dense chain of {stages} stages over {slots} slots takes "
                f"{additions} word additions, past the cap of {MAX_DENSE_WORD_ADDITIONS}"
            )
        return _propagate_dense(chain.least, chain.steps, slots)
    check_paths(stages)
    return chain


@dataclass(frozen=True, eq=False)
class SplitProfile:
    """A device cut at its middle node: its two halves.

    `left` went through the first n // 2 stages and `right` through the
    rest, each a dense profile, distinct times with their counts, or an
    enumerated half, kept as its chain. Every ray crosses both, so the rays
    arriving at moment M number sum_t left(t) * right(M - t); a moment is
    read from the halves without building the whole profile.
    """

    left: ArrivalProfile | Chain
    right: ArrivalProfile | Chain
    # Each half's distinct arrival times, [left, right], as count_at read them.
    _entries: list[int] = field(default_factory=list, init=False, repr=False)

    @property
    def stage_index(self) -> int:
        return self.left.stage_index + self.right.stage_index

    @property
    def half_entries(self) -> list[int]:
        """The number of distinct arrival times in the left and in the right half.

        `count_at` counts them on its way, whatever the moment; before any
        read, a read at moment 0 counts them.
        """
        if not self._entries:
            self.count_at(0)
        return list(self._entries)

    def count_at(self, time: int) -> int:
        """Rays arriving exactly at `time`, summed over the pairs that meet there.

        The moment M is read from both halves' `least`, where their times
        start, and held to [-1, span + 1] for span the sum of their spans: no
        pair meets outside [0, span]. Both halves go into one buffer, tagged
        by parity: each left time l as the key 2(M - l) and each right time r
        as 2r + 1, and the buffer is sorted once. An enumerated half writes
        its tagged paths straight into its part of the buffer, the tag folded
        into its chain's base and steps, and a dense half is tagged from its
        times. A left time and a right time meet when r = M - l, and then the
        run of the key 2r is directly followed by the run of 2r + 1, since no
        value lies between: two neighbours that differ in the tag bit alone.
        Only those few meets are looked up. An entry stands for as many paths
        as its run is long in an enumerated half, and for its count, found by
        searchsorted, in a dense one; the products are taken in the count
        dtype of the whole device. The same runs give each half's distinct
        times for `half_entries`: its entries less those equal to the entry
        before them. Every value written lies within 2 span + 2, so the buffer
        is int32 while that is below 2^31 and int64 otherwise.
        """
        left, right = self.left, self.right
        span = left.span + right.span
        moment = min(max(time - left.least - right.least, -1), span + 1)
        dtype = time_dtype(2 * span + 2)
        split = len(left)
        tagged = np.empty(split + len(right), dtype=dtype)
        key_part, time_part = tagged[:split], tagged[split:]
        if isinstance(left, Chain):
            _path_times(2 * (moment - left.base), [-2 * step for step in left.steps], key_part)
        else:
            np.subtract(moment, left.times, out=key_part, dtype=dtype, casting="unsafe")
            key_part <<= 1
        if isinstance(right, Chain):
            _path_times(2 * right.base + 1, [2 * step for step in right.steps], time_part)
        else:
            np.left_shift(right.times, 1, out=time_part, dtype=dtype, casting="unsafe")
            time_part |= 1
        tagged.sort()
        # An entry equal to the one before it repeats its half's time, an odd
        # one a right time.
        bits = tagged[1:] ^ tagged[:-1]
        repeats = bits == 0
        odd_repeats = np.empty(len(bits), dtype=bool)
        np.bitwise_and(tagged[1:], 1, out=odd_repeats, casting="unsafe")
        odd_repeats &= repeats
        right_repeats = int(np.count_nonzero(odd_repeats))
        self._entries[:] = [split - int(np.count_nonzero(repeats)) + right_repeats,
                            len(right) - right_repeats]
        meets = np.flatnonzero(bits == 1)
        if not len(meets):
            return 0
        # A meet's key run ends at `meets`, its time run starts one after.
        after = meets + 1
        times = tagged[after]
        if isinstance(left, Chain):
            paths_left = after - np.searchsorted(tagged, tagged[meets])
        else:
            paths_left = left.counts[np.searchsorted(left.times, moment - (times >> 1))]
        if isinstance(right, Chain):
            paths_right = np.searchsorted(tagged, times, side="right") - after
        else:
            paths_right = right.counts[np.searchsorted(right.times, times >> 1)]
        # Each half's counts fit its own dtype, a product of two may not:
        # multiply in the dtype of the whole device.
        count = _count_dtype(self.stage_index)
        return int((paths_left.astype(count) * paths_right.astype(count)).sum())


def arcs_of(layout: DeviceLayout) -> list[tuple[int, int]]:
    """Each stage's (skip, take) delays in quanta, in stage order."""
    return [(s.skip_delay, s.take_delay) for s in layout.stages]


def propagate(layout: DeviceLayout) -> ArrivalProfile:
    """Exact destination profile of a device.

    A zero-stage layout yields the single undivided ray at time 0. After n
    stages of the offset device the total ray count is 2^n, the earliest ray
    (the empty subset) arrives at n*k and the latest (the full set) at
    sum(a_i) + n*k.
    """
    profile = _propagate_chain(arcs_of(layout))
    profile = profile.counted() if isinstance(profile, Chain) else profile
    return replace(profile, least=0, times=profile.times + profile.least)


def propagate_halves(layout: DeviceLayout) -> SplitProfile:
    """The profiles of the device's two halves, enough to read any moment.

    Each half has at most 2^ceil(n/2) paths, so MAX_PROFILE_ENTRIES bounds
    each half rather than the whole device.
    """
    arcs = arcs_of(layout)
    half = len(arcs) // 2
    return SplitProfile(left=_propagate_chain(arcs[:half]), right=_propagate_chain(arcs[half:]))


def write_profile(profile: ArrivalProfile, fh: IO[str]) -> None:
    """Dump format: one `<time_quanta> <count>` line per entry, ascending time.

    Formatted and written WRITE_PROFILE_ROWS lines at a time.
    """
    for start in range(0, len(profile), WRITE_PROFILE_ROWS):
        block = slice(start, start + WRITE_PROFILE_ROWS)
        times, counts = profile.times[block].tolist(), profile.counts[block].tolist()
        flat = [0] * (2 * len(times))
        flat[::2], flat[1::2] = times, counts
        fh.write(("%d %d\n" * len(times)) % tuple(flat))


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of watching the destination at the single moment B + n*k."""

    verdict: Verdict
    checked_moment: int
    ray_count_at_moment: int
    per_ray_power_w: Fraction
    amplified_power_w: Fraction
    detectable: bool


def detect(halves: SplitProfile, instance: Instance, params: PhysicalParams) -> DetectionReport:
    """Apply the detection rule: YES iff a ray arrives at moment B + n*k.

    The halves must come from a layout built with the same offset k as
    `params`. Every ray crosses n splitters, so per-ray power is the uniform
    source * (transmission/2)^n; coincident rays add their power.
    """
    if halves.stage_index != instance.n:
        raise StageMismatch(
            f"profile went through {halves.stage_index} stages, instance has {instance.n}"
        )
    moment = instance.target + instance.n * params.offset_k_quanta
    count = halves.count_at(moment)
    ray_power = per_ray_power(instance.n, params)
    amplified = params.detector_gain * count * ray_power
    return DetectionReport(
        verdict=Verdict.from_bool(count >= 1),
        checked_moment=moment,
        ray_count_at_moment=count,
        per_ray_power_w=ray_power,
        amplified_power_w=amplified,
        detectable=count >= 1 and amplified >= params.detection_threshold_w,
    )


@dataclass(frozen=True)
class EpsilonDemoReport:
    """Side-by-side verdicts of the epsilon device, the offset device and an oracle."""

    epsilon_verdict: Verdict
    offset_verdict: Verdict
    oracle_verdict: Verdict
    epsilon_checked_moment: int
    offset_checked_moment: int
    # epsilon_verdict differs from the oracle's; offset_verdict matches it
    epsilon_spurious: bool
    offset_correct: bool


def epsilon_false_positive_demo(
    instance: Instance, epsilon: int, params: PhysicalParams = PhysicalParams()
) -> EpsilonDemoReport:
    """Show why skip arcs need the uniform offset k instead of a tiny epsilon.

    The epsilon device is read naively at the raw moment B, where a sum of
    the form subset + m*epsilon can masquerade as a hit; the offset device is
    read at B + n*k. Both are compared against a classical oracle.
    """
    eps_halves = propagate_halves(compile_epsilon_layout(instance, epsilon))
    offset_report = detect(propagate_halves(compile_layout(instance, params)), instance, params)
    oracle = solve_auto(instance)
    epsilon_verdict = Verdict.from_bool(eps_halves.count_at(instance.target) >= 1)
    return EpsilonDemoReport(
        epsilon_verdict=epsilon_verdict,
        offset_verdict=offset_report.verdict,
        oracle_verdict=oracle.verdict,
        epsilon_checked_moment=instance.target,
        offset_checked_moment=offset_report.checked_moment,
        epsilon_spurious=epsilon_verdict is not oracle.verdict,
        offset_correct=offset_report.verdict is oracle.verdict,
    )
