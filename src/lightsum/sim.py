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
the perturbation pre-pass and the whole profile (`propagate`, for a dump) as
plain times, which they sort and count, each run of equal times in uint64.
Each array of times takes its width from a bound the code already has, and
is int32 below 2^31: a chain's span for its enumeration; twice the halves'
spans, plus two, for detection's tagged sort; and for the trials twice the
largest of the longest perturbed path, the window top, and that path less
the window bottom, plus one. Otherwise it is int64, below 2^62: a layout's
longest path is below model.MAX_DELAY_QUANTA = 2^62, and a perturbed device
is checked against the same bound in grid units. Counted profiles keep
int64 times, and the whole profile folds `least` back in, so a dump is
absolute.

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

Perturbation trials cut their chains at the same node, and the exact halves,
propagated as the detector propagates them, decide every trial or mark the
candidate half-paths before the first (see `perturb_and_classify`): while n
errors drift by at most half a quantum, the count at the moment decides.
The trials count no rays: each chunk draws its cable errors in one batch and
reads its windows from the tagged path times of its perturbed halves, one
batch of chains for the chunk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import IO, Callable, Sequence

import numpy as np

from .analysis import per_ray_power
from .errors import InvalidValue, ResourceLimit, StageMismatch
from .model import (
    MAX_DELAY_QUANTA,
    DeviceLayout,
    Instance,
    PhysicalParams,
    Verdict,
    compile_epsilon_layout,
    compile_layout,
)
from .oracles import solve_auto
from .rational import RationalLike, to_fraction

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

# Perturbed cable lengths live on a grid of quantum_length / PERTURB_GRID so
# trial classification is exact integer arithmetic end to end.
PERTURB_GRID = 10**6

# A run is capped at MAX_PERTURB_ARRIVALS arrivals, charged per trial. A trial
# that enumerates is charged both halves' 2^floor(n/2) + 2^ceil(n/2)
# arrivals, one that the exact halves decide its 2n drawn errors, and each a
# fixed PERTURB_TRIAL_ARRIVALS on top. Measured on a 2-vCPU VM: a decided
# trial costs about 0.07 us at n = 1 and 2.7-3 us at n = 32-40, so the fixed
# charge of 2^11 holds a run of them at the cap (about 5e5 trials) to about
# 1.5 s, and lets 300 000 decided trials at n = 3 run (0.1 s). An enumerating
# trial on values to 100 cut within 0.4 quantum costs 0.3-0.8 us at n = 1-4,
# about 100 us at n = 24 and 35 ms at n = 40, so a run at the cap takes
# 0.1-0.4 s at n = 1-4; from n = 24 on its arrivals set the charge, and a run
# at the cap takes 11-15 s at n = 24-36 and 18 s at n = 40 (511 trials).
MAX_PERTURB_ARRIVALS = 1 << 30
PERTURB_TRIAL_ARRIVALS = 1 << 11

# Perturbation trials run a chunk at a time, as many trials as keep each half
# at about this many arrivals (one trial when a half alone holds more), so one
# set of numpy calls enumerates the whole chunk; trials that the exact halves
# decide enumerate nothing, and a chunk of them draws a quarter as many errors.
PERTURB_CHUNK_ARRIVALS = 1 << 16


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

    def items(self) -> list[tuple[int, int]]:
        """(time, count) pairs in ascending time, as plain ints."""
        return list(zip(self.times.tolist(), self.counts.tolist()))


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
        return _path_times(self.base, self.steps, np.empty(len(self), _time_dtype(self.span)))

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


def _path_times(base: int | np.ndarray, steps: Sequence[int] | np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Every path value of one chain, or of each of a batch of chains, in subset order.

    For one chain, an exact half that a reader enumerates, `out` is a row of
    2^stages entries, `base` an int and `steps` a sequence of ints, one a
    stage; for a batch, a chunk of perturbation trials' halves, `out` has
    shape (chains, 2^stages), `base` one value a chain and `steps` shape
    (chains, stages). Entry p of a row is its base plus its step s for every
    bit s set in p. With the sum of the skip arcs for base and take - skip for the
    steps, these are the path times: path p takes stage s's take arc when
    bit s of p is set and its skip arc otherwise, and equal times are kept.
    An affine map of every path time, such as a tag, is folded into the base
    and the steps. `out` may be a slice of a wider buffer, and its dtype must
    hold every path value, since every entry ever written is one. A row is
    stepped by Python ints over plain slices, which cost less per stage than
    array operands and `...` slices, and a batch a column at a time in the
    dtype of `out`.
    """
    if out.ndim == 1:
        out[0] = base
        for stage, step in enumerate(steps):
            np.add(out[: 1 << stage], step, out=out[1 << stage : 2 << stage])
        return out
    out[:, 0] = base
    for stage, step in enumerate(steps.astype(out.dtype, copy=False).T[:, :, None]):
        np.add(out[:, : 1 << stage], step, out=out[:, 1 << stage : 2 << stage])
    return out


def _time_dtype(top: int) -> type:
    # Times that stay in [-top, top] fit int32 while top is below 2^31.
    return np.int32 if top < 2**31 else np.int64


def _check_paths(stages: int) -> None:
    """Refuse a chain whose 2^stages paths are past MAX_PROFILE_ENTRIES."""
    if 2**stages > MAX_PROFILE_ENTRIES:
        raise ResourceLimit(
            f"a chain of {stages} stages has 2^{stages} paths, past the cap of "
            f"{MAX_PROFILE_ENTRIES}"
        )


def _chain(arcs: Sequence[tuple[int, int]]) -> Chain:
    steps = [take - skip for skip, take in arcs]
    base = -sum(step for step in steps if step < 0)
    return Chain(sum(skip for skip, _ in arcs) - base, base, steps, sum(map(abs, steps)))


def _propagate_chain(arcs: Sequence[tuple[int, int]]) -> ArrivalProfile | Chain:
    # Dense while the slots, one a moment over the span, are few next to the
    # 2^stages paths, else the chain is kept as it is and its reader
    # enumerates every path time, one entry per path. Past 22 stages, too
    # many paths to enumerate, every chain whose slots fit runs dense.
    chain = _chain(arcs)
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
    _check_paths(stages)
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
        dtype = _time_dtype(2 * span + 2)
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


def _arcs(layout: DeviceLayout) -> list[tuple[int, int]]:
    return [(s.skip_delay, s.take_delay) for s in layout.stages]


def _partnered(own: np.ndarray, other: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Which times t of `own` have a time of `other` in [lo - t, hi - t].

    Both are sorted ascending, and `other` is not empty.
    """
    # Descending own times make ascending keys, which searchsorted answers far
    # faster than unsorted ones.
    keys = lo - own[::-1]
    i = np.searchsorted(other, keys)
    first = other[np.minimum(i, len(other) - 1)]
    return ((i < len(other)) & (first <= keys + (hi - lo)))[::-1]


def _candidates(half: ArrivalProfile, near: np.ndarray, arcs: Sequence[tuple[int, int]]
                ) -> np.ndarray | None:
    """The subset-order indices of the chain's paths whose time is a `near` one.

    `half` holds the distinct times and the paths at each of the chain
    `arcs`, and `near` marks some of its times, at least one. None when at
    least half of the paths qualify: finding a subset costs more than so
    small a saving. Only a proper subset enumerates the chain's paths.
    """
    if 2 * int(half.counts[near].sum()) >= 1 << len(arcs):
        return None
    paths = _chain(arcs).path_times()
    near_times = half.times[near]
    i = np.minimum(np.searchsorted(near_times, paths), len(near_times) - 1)
    return np.flatnonzero(near_times[i] == paths)


def _pairs_within(arcs: np.ndarray, cut: int, lo: int, hi: int,
                  keep: tuple[np.ndarray | None, np.ndarray | None], tagged: np.ndarray,
                  whole: tuple[np.ndarray | None, np.ndarray | None]) -> np.ndarray:
    """Whether each trial has a left path l and a right path r with lo <= l + r <= hi.

    `arcs`, of shape (trials, stages, 2), holds each trial's chain, cut after
    its first `cut` stages; a half reads only the paths `keep` lists for it,
    or all of them when that is None. Each row of `tagged` receives its
    trial's keys lo - l, as 2(lo - l), and then its right times, as 2r + 1.
    The tags are folded into each half's base and steps, so the enumeration
    writes tagged values: straight into `tagged` for a half read whole, and
    into that half's buffer in `whole`, of 2^stages columns and at least as
    many rows as `tagged`, for one that keeps some paths. After one sort of
    each row, a key sorts before every right time at or above it and after
    every one below it. A pair hits when r - (lo - l) <= hi - lo, and the
    right time of least gap above its key directly follows a key: a row hits
    when some key is directly followed by a right time within 2(hi - lo) + 1.

    The trials' arcs are non-negative, so every time is too, and the tagged
    values, those the enumeration passes through included, and each gap from
    a key up to a right time lie within 2 max(L, hi, L - lo) + 1 for L the
    longest path, which the trials keep below 2^62, and below 2^31 when
    `tagged` is int32. A gap that passes the dtype is between two keys, two
    right times or from a right time to a key, and is never read.
    """
    doubled = 2 * arcs
    skips = doubled[..., 0]
    steps = doubled[..., 1] - skips
    steps[:, :cut] *= -1
    bases = (2 * lo - skips[:, :cut].sum(axis=1), skips[:, cut:].sum(axis=1) + 1)
    start = 0
    for base, step, kept, buffer in zip(bases, (steps[:, :cut], steps[:, cut:]), keep, whole):
        width = 1 << step.shape[1] if kept is None else len(kept)
        part = tagged[:, start : start + width]
        if kept is None:
            _path_times(base, step, part)
        else:
            np.take(_path_times(base, step, buffer[: len(part)]), kept, axis=1, out=part)
        start += width
    tagged.sort(axis=1)
    odd = np.empty(tagged.shape, dtype=bool)
    np.bitwise_and(tagged, 1, out=odd, casting="unsafe")
    key_then_time = odd[:, :-1] < odd[:, 1:]
    key_then_time &= np.diff(tagged, axis=1) <= 2 * (hi - lo) + 1
    return key_then_time.any(axis=1)


# The draws stay on the stdlib generator. numpy.random draws 1120 errors in
# 10 us, where this takes 36 us (2-vCPU VM), but importing it raises resident
# memory by about 5.6 MB, 29.7 to 35.3 MB after `import lightsum.cli` (numpy
# 2.4.6): about a sixth of a small `perturb` run's peak.
def _uniform_draws(rng: random.Random, span: int) -> Callable[[int], np.ndarray]:
    """A source of integers uniform on [-span, span], as `rng.randint` draws them.

    Each call takes the next `count` of them as int64. randint keeps a draw of
    k = (2*span + 1).bit_length() bits while it is below 2*span + 1; the bits
    come from ceil(k/32) of the generator's 32-bit words, the last shifted
    right to leave k. getrandbits(32*m) hands out m of those words at once,
    least significant first, so a batch is read as uint32 and filtered with
    the same rule. Draws accepted past `count` wait for the next call; the
    words drawn past the last one taken are never seen, since `rng` is the
    caller's own. A draw must fit two words: the grid bound of
    `perturb_and_classify` keeps `span` below 2^62 whenever it draws at all.
    """
    width = 2 * span + 1
    bits = width.bit_length()
    words = -(-bits // 32)
    shift = np.uint64(32 * words - bits)
    pending = np.empty(0, dtype=np.int64)

    def take(count: int) -> np.ndarray:
        nonlocal pending
        while len(pending) < count:
            # Enough draws to accept what is missing, on average (at least
            # half of all draws are kept), plus a few.
            m = ((count - len(pending)) << bits) // width + 16
            raw = rng.getrandbits(32 * words * m).to_bytes(4 * words * m, "little")
            batch = np.frombuffer(raw, dtype="<u4").reshape(m, words).astype(np.uint64)
            batch[:, -1] >>= shift
            draws = batch[:, 0] if words == 1 else batch[:, 0] | batch[:, 1] << np.uint64(32)
            kept = draws[draws < np.uint64(width)].astype(np.int64) - span
            pending = np.concatenate((pending, kept))
        taken, pending = pending[:count], pending[count:]
        return taken

    return take


def propagate(layout: DeviceLayout) -> ArrivalProfile:
    """Exact destination profile of a device.

    A zero-stage layout yields the single undivided ray at time 0. After n
    stages of the offset device the total ray count is 2^n, the earliest ray
    (the empty subset) arrives at n*k and the latest (the full set) at
    sum(a_i) + n*k.
    """
    profile = _propagate_chain(_arcs(layout))
    profile = profile.counted() if isinstance(profile, Chain) else profile
    return replace(profile, least=0, times=profile.times + profile.least)


def propagate_halves(layout: DeviceLayout) -> SplitProfile:
    """The profiles of the device's two halves, enough to read any moment.

    Each half has at most 2^ceil(n/2) paths, so MAX_PROFILE_ENTRIES bounds
    each half rather than the whole device.
    """
    arcs = _arcs(layout)
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


@dataclass(frozen=True)
class PerturbationReport:
    """Classification outcome of repeated trials with imprecisely cut cables."""

    trials: int
    misclassified: int
    false_positives: int
    false_negatives: int
    max_arrival_error_s: Fraction


def perturb_and_classify(
    layout: DeviceLayout,
    instance: Instance,
    params: PhysicalParams,
    max_error_m: RationalLike,
    trials: int,
    rng_seed: int,
) -> PerturbationReport:
    """Cut every cable with a uniform length error and re-run the detection.

    Errors are drawn on a grid of quantum_length / 1e6 so arrival times stay
    exact integers in grid units. An arrival registers as the target moment
    when it lies within half a delay quantum of it (times are only
    resolvable to the quantum, so closer than half a quantum is
    indistinguishable from exact).
    Each trial's detection is classified against the oracle verdict.
    Deterministic for a fixed seed: errors, in grid units, are drawn as
    `random.Random(rng_seed).randint` draws them, trial by trial, stage by
    stage, skip arc before take arc, whatever the chunk size.

    A trial measures each stage's arcs from its shorter exact arc less the
    largest error, so its times are non-negative and are read, as the exact
    halves are, from the earliest exact path: the offset k enters no bound.
    A perturbed path lies within n * error of its exact time. So the run
    first propagates the exact halves (`propagate_halves`). While n * error
    is at most half a quantum, a path on the target lands within half a
    quantum of it in every trial, so a ray counted there
    (`SplitProfile.count_at`) makes every trial detect; below half a quantum
    no other path can land there, so a count of 0 makes none detect.
    Otherwise the halves' times are read against each other, and a half-path
    is a candidate when some partner makes a pair within half a quantum plus
    n * error; an enumerated half writes its path times from its chain, and
    sorts and counts them, once for this. The ray counts of the candidate
    times tell whether a half keeps a proper subset of its paths; only then
    are its exact paths enumerated again to mark which. Trials run
    PERTURB_CHUNK_ARRIVALS // 2^ceil(n/2) at a time, or
    PERTURB_CHUNK_ARRIVALS // 8n when the exact halves decide them (at least
    one). A chunk draws its errors; unless some pair always detects or none
    can, it enumerates the tagged path times of its perturbed halves into
    one buffer and reads the window from the candidates alone.

    Every refusal comes before the first draw: once a run draws, it answers.
    ParseError or Overflow: a max error that `to_fraction` refuses.
    InvalidValue: a negative max error, fewer than one trial, a nonzero max
    error finer than the grid (rather than read as zero), or one past the
    shortest cable, k quanta on the offset device. Up to that bound no draw
    cuts a cable below zero, and a cable cut to exactly zero delays its ray
    by 0. ResourceLimit: a longest perturbed path or a window edge
    that could lie MAX_DELAY_QUANTA grid units from where the trials' times
    start, where int64 times would overflow; a half past the path cap that
    detection checks, or past a cap of `propagate_halves`; and, after the
    pre-pass, a run whose trials, each charged PERTURB_TRIAL_ARRIVALS plus
    both halves' 2^floor(n/2) + 2^ceil(n/2) arrivals when the trials
    enumerate and its 2n drawn errors when the exact halves decide them,
    pass MAX_PERTURB_ARRIVALS, or an oracle past its own cap.
    """
    max_error = to_fraction(max_error_m)
    if max_error < 0:
        raise InvalidValue("max_error_m must be >= 0")
    if trials < 1:
        raise InvalidValue("trials must be >= 1")
    n = len(layout.stages)
    cut, half = n // 2, (n + 1) // 2

    # Everything below is integer arithmetic in grid units of quantum/1e6.
    err_span = int(max_error * PERTURB_GRID / params.quantum_length_m)
    if max_error > 0 and err_span == 0:
        raise InvalidValue(
            f"max_error_m is finer than the perturbation grid of quantum_length/{PERTURB_GRID}"
        )
    # No draw cuts a cable below zero while err_span is at most the shortest
    # cable, k quanta on the offset device; a cable cut to exactly zero
    # delays its ray by 0.
    exact = _arcs(layout)
    shortest = min(map(min, exact), default=0)
    if n and err_span > shortest * PERTURB_GRID:
        raise InvalidValue(f"max_error_m passes the shortest cable, {shortest} * quantum_length")
    # The moment in quanta from the earliest exact path, where the exact
    # halves' times start, and the window in the trials' grid times, which
    # start n * err_span below it. Both are read before anything propagates.
    moment = instance.target + n * params.offset_k_quanta - sum(map(min, exact))
    window_g = PERTURB_GRID // 2
    target_g = moment * PERTURB_GRID + n * err_span
    top_g = sum(abs(take - skip) for skip, take in exact) * PERTURB_GRID + 2 * n * err_span
    bound = max(top_g, target_g + window_g, top_g - target_g + window_g)
    if bound >= MAX_DELAY_QUANTA:
        raise ResourceLimit(
            f"perturbed arrival times could reach {MAX_DELAY_QUANTA} grid units "
            f"(quantum/{PERTURB_GRID})"
        )
    _check_paths(half)

    # A perturbed path lies within n*err_span grid units of its exact time of
    # S quanta, so it can land in the window only when |S - moment| <= near.
    # While n*err_span is at most window_g, a path on the moment lands there
    # in every trial: a ray counted there decides them all. Below window_g,
    # near is 0 and a count of 0 decides too. Otherwise the halves are
    # counted (an enumerated half writes its path times, sorts and counts
    # them) and read for the pairs within near of the moment.
    near = (window_g + n * err_span) // PERTURB_GRID
    halves = propagate_halves(layout)
    checked = instance.target + n * params.offset_k_quanta
    always = n * err_span <= window_g and halves.count_at(checked) > 0
    candidates = None
    if near and not always:
        left, right = (h.counted() if isinstance(h, Chain) else h
                       for h in (halves.left, halves.right))
        near_left = _partnered(left.times, right.times, moment - near, moment + near)
        if near_left.any():
            near_right = _partnered(right.times, left.times, moment - near, moment + near)
            candidates = (_candidates(left, near_left, exact[:cut]),
                          _candidates(right, near_right, exact[cut:]))

    # A trial the exact halves decide draws its errors and enumerates nothing.
    # A chunk holds about PERTURB_CHUNK_ARRIVALS arrivals a half or, when the
    # exact halves decide its trials, a quarter as many drawn errors (none at
    # n = 0): each draw passes through several int64 arrays of the chunk, and
    # such chunks ran fastest at about 2^14 draws (2-vCPU VM).
    if candidates is None:
        charge, size, what = 2 * n, 8 * n, f"{2 * n} drawn errors"
    else:
        charge, size, what = 2**cut + 2**half, 2**half, f"2^{cut} + 2^{half} arrivals"
    if trials * (charge + PERTURB_TRIAL_ARRIVALS) > MAX_PERTURB_ARRIVALS:
        raise ResourceLimit(
            f"{trials} trials of {what}, plus {PERTURB_TRIAL_ARRIVALS} per trial, exceed "
            f"the cap of {MAX_PERTURB_ARRIVALS} arrivals"
        )
    oracle_yes = solve_auto(instance).verdict is Verdict.YES

    chunk = min(trials, max(1, PERTURB_CHUNK_ARRIVALS // max(size, 1)))
    if candidates is not None:
        # Each arc from its stage's shorter arc less err_span. The buffers
        # serve every chunk: fresh ones each chunk fault in new pages on every
        # call. Every value _pairs_within forms lies within twice the bound,
        # plus one, which picks their width.
        exact_q = np.array(exact, dtype=np.int64).reshape(n, 2)
        arcs_g = (exact_q - exact_q.min(axis=1, keepdims=True)) * PERTURB_GRID + err_span
        dtype = _time_dtype(2 * bound + 1)
        stages = (cut, half)
        width = sum(1 << s if keep is None else len(keep) for s, keep in zip(stages, candidates))
        tagged = np.empty((chunk, width), dtype=dtype)
        whole = tuple(None if keep is None else np.empty((chunk, 1 << s), dtype=dtype)
                      for s, keep in zip(stages, candidates))
    draw = _uniform_draws(random.Random(rng_seed), err_span)
    detected = max_err_g = 0
    for done in range(0, trials, chunk):
        c = min(chunk, trials - done)
        # Drawn in the order trial, stage, skip before take.
        errors = draw(2 * n * c).reshape(c, n, 2)
        # A trial's earliest and latest drift: every stage's smaller error, or larger.
        skip, take = errors[..., 0], errors[..., 1]
        drift = np.abs((np.minimum(skip, take).sum(axis=1), np.maximum(skip, take).sum(axis=1)))
        max_err_g = max(max_err_g, int(drift.max()))
        if always:
            detected += c
        elif candidates is not None:
            hits = _pairs_within(arcs_g + errors, cut, target_g - window_g, target_g + window_g,
                                 candidates, tagged[:c], whole)
            detected += int(hits.sum())

    # Every trial of a YES instance that detects nothing is a false negative,
    # every trial of a NO instance that detects something a false positive.
    false_pos = 0 if oracle_yes else detected
    false_neg = trials - detected if oracle_yes else 0
    return PerturbationReport(
        trials=trials,
        misclassified=false_pos + false_neg,
        false_positives=false_pos,
        false_negatives=false_neg,
        max_arrival_error_s=max_err_g * params.delay_quantum_s / PERTURB_GRID,
    )
