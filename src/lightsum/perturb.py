"""Perturbation trials: the exact device of `sim` with imprecisely cut cables.

Perturbation trials cut their chains at the detector's middle node, and the
exact halves, propagated as the detector propagates them, decide every trial
or mark the candidate half-paths before the first (see
`perturb_and_classify`): while n errors drift by at most half a quantum, the
count at the moment decides. The trials count no rays: each chunk draws its
cable errors in one batch and reads its windows from the tagged path times of
its perturbed halves, one batch of chains for the chunk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidValue, ResourceLimit
from .model import MAX_DELAY_QUANTA, Instance, PhysicalParams, Verdict, compile_layout
from .oracles import solve_auto
from .rational import RationalLike, to_fraction
from .sim import ArrivalProfile, Chain, check_paths, propagate_halves, time_dtype

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


def _batch_path_times(bases: np.ndarray, steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Every path value of each of a batch of chains, in subset order.

    The batch form of `sim`'s one-chain enumerator, for a chunk of trials'
    halves: `out` has shape (chains, 2^stages), `bases` one value a chain
    and `steps` shape (chains, stages). Entry p of a row is its base plus
    its step s for every bit s set in p, an affine map of every path time,
    such as a tag, folded into the bases and the steps. `out` may be a
    column slice of a wider buffer, and its dtype must hold every path
    value, since every entry ever written is one. The batch is stepped a
    column at a time in the dtype of `out`.
    """
    out[:, 0] = bases
    for stage, step in enumerate(steps.astype(out.dtype, copy=False).T[:, :, None]):
        np.add(out[:, : 1 << stage], step, out=out[:, 1 << stage : 2 << stage])
    return out


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


def _candidates(half: ArrivalProfile, near: np.ndarray, values: Sequence[int]
                ) -> np.ndarray | None:
    """The subset-order indices of the half's paths whose time is a `near` one.

    `half` holds the distinct times, from its earliest path, and the paths
    at each of the offset device's half of the stage `values`, and `near`
    marks some of its times, at least one. None when at least half of the
    paths qualify: finding a subset costs more than so small a saving. Only
    a proper subset enumerates the half's paths, its subset sums.
    """
    if 2 * int(half.counts[near].sum()) >= 1 << len(values):
        return None
    paths = Chain(least=0, base=0, steps=list(values), span=sum(values)).path_times()
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

    The trials' arcs and `lo` are non-negative, so every time is too, and the
    tagged values, those the enumeration passes through included, and each
    gap from a key up to a right time lie within 2 max(L, hi) + 1 for L the
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
            _batch_path_times(base, step, part)
        else:
            np.take(_batch_path_times(base, step, buffer[: len(part)]), kept, axis=1, out=part)
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


@dataclass(frozen=True)
class PerturbationReport:
    """Classification outcome of repeated trials with imprecisely cut cables."""

    trials: int
    misclassified: int
    false_positives: int
    false_negatives: int
    max_arrival_error_s: Fraction


def perturb_and_classify(
    instance: Instance,
    params: PhysicalParams,
    max_error_m: RationalLike,
    trials: int,
    rng_seed: int,
) -> PerturbationReport:
    """Cut every cable of the instance's offset device with a uniform length
    error and re-run the detection.

    Errors are drawn on a grid of quantum_length / 1e6 so arrival times stay
    exact integers in grid units. An arrival registers as the target moment
    when it lies within half a delay quantum of it (times are only
    resolvable to the quantum, so closer than half a quantum is
    indistinguishable from exact).
    Each trial's detection is classified against the oracle verdict.
    Deterministic for a fixed seed: errors, in grid units, are drawn as
    `random.Random(rng_seed).randint` draws them, trial by trial, stage by
    stage, skip arc before take arc, whatever the chunk size.

    A trial measures each stage's arcs from its skip arc of k quanta less
    the largest error, so its times are non-negative and are read, as the
    exact halves are, from the earliest exact path, n * k quanta: the
    moment lies B quanta past it, and the offset k enters no bound.
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
    are its subset sums enumerated again to mark which. Trials run
    PERTURB_CHUNK_ARRIVALS // 2^ceil(n/2) at a time, or
    PERTURB_CHUNK_ARRIVALS // 8n when the exact halves decide them (at least
    one). A chunk draws its errors; unless some pair always detects or none
    can, it enumerates the tagged path times of its perturbed halves into
    one buffer and reads the window from the candidates alone.

    Every refusal comes before the first draw: once a run draws, it answers.
    Overflow: a device whose longest path reaches MAX_DELAY_QUANTA quanta,
    refused as `compile_layout` refuses it, before anything else is read.
    ParseError or Overflow: a max error that `to_fraction` refuses.
    InvalidValue: a negative max error, fewer than one trial, a nonzero max
    error finer than the grid (rather than read as zero), or one past the
    shortest cable, the skip arcs of k quanta. Up to that bound no draw cuts
    a cable below zero, and a cable cut to exactly zero delays its ray by 0.
    ResourceLimit: a longest perturbed path or a window edge that could lie
    MAX_DELAY_QUANTA grid units from where the trials' times start, where
    int64 times would overflow; a half past the path cap that detection
    checks, or past a cap of `propagate_halves`; and, after the pre-pass, a
    run whose trials, each charged PERTURB_TRIAL_ARRIVALS plus both halves'
    2^floor(n/2) + 2^ceil(n/2) arrivals when the trials enumerate and its 2n
    drawn errors when the exact halves decide them, pass
    MAX_PERTURB_ARRIVALS, or an oracle past its own cap.
    """
    layout = compile_layout(instance, params)
    max_error = to_fraction(max_error_m)
    if max_error < 0:
        raise InvalidValue("max_error_m must be >= 0")
    if trials < 1:
        raise InvalidValue("trials must be >= 1")
    values, target, k = instance.values, instance.target, params.offset_k_quanta
    n = len(values)
    cut, half = n // 2, (n + 1) // 2

    # Everything below is integer arithmetic in grid units of quantum/1e6.
    err_span = int(max_error * PERTURB_GRID / params.quantum_length_m)
    if max_error > 0 and err_span == 0:
        raise InvalidValue(
            f"max_error_m is finer than the perturbation grid of quantum_length/{PERTURB_GRID}"
        )
    if n and err_span > k * PERTURB_GRID:
        raise InvalidValue(f"max_error_m passes the shortest cable, {k} * quantum_length")
    # The window in the trials' grid times, which start n * err_span below the
    # earliest exact path. A window starting below them, at B = 0 with n *
    # err_span below window_g, is never read: the empty subset lies on the
    # moment and decides every trial.
    window_g = PERTURB_GRID // 2
    target_g = target * PERTURB_GRID + n * err_span
    top_g = instance.total * PERTURB_GRID + 2 * n * err_span
    bound = max(top_g, target_g + window_g)
    if bound >= MAX_DELAY_QUANTA:
        raise ResourceLimit(
            f"perturbed arrival times could reach {MAX_DELAY_QUANTA} grid units "
            f"(quantum/{PERTURB_GRID})"
        )
    check_paths(half)

    # A perturbed path lies within n*err_span grid units of its exact time of
    # S quanta, so it can land in the window only when |S - B| <= near.
    # While n*err_span is at most window_g, a path on the moment lands there
    # in every trial: a ray counted there decides them all. Below window_g,
    # near is 0 and a count of 0 decides too. Otherwise the halves are
    # counted (an enumerated half writes its path times, sorts and counts
    # them) and read for the pairs within near of the moment.
    near = (window_g + n * err_span) // PERTURB_GRID
    halves = propagate_halves(layout)
    always = n * err_span <= window_g and halves.count_at(target + n * k) > 0
    candidates = None
    if near and not always:
        left, right = (h.counted() if isinstance(h, Chain) else h
                       for h in (halves.left, halves.right))
        near_left = _partnered(left.times, right.times, target - near, target + near)
        if near_left.any():
            near_right = _partnered(right.times, left.times, target - near, target + near)
            candidates = (_candidates(left, near_left, values[:cut]),
                          _candidates(right, near_right, values[cut:]))

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
        # Skip arcs of err_span, take arcs of a * PERTURB_GRID + err_span. The
        # buffers serve every chunk: fresh ones each chunk fault in new pages
        # on every call. Every value _pairs_within forms lies within twice the
        # bound, plus one, which picks their width.
        arcs_g = np.array([(0, a) for a in values], dtype=np.int64) * PERTURB_GRID + err_span
        dtype = time_dtype(2 * bound + 1)
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
