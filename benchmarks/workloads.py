"""Seeded workloads: instance files on disk and the lightsum commands run on them.

A workload is one round of operations, repeated whole until the run has
measured long enough, plus a few sample operations checked once after the
timed loop. The seed decides every instance; the program sees only the
instance files written here. YES instances carry a planted subset and NO
instances come from parity (all values even, the target odd), so every
verdict is known without asking the program.

Values are drawn stratified: element i lies in the i-th of n equal slices of
the value range. Sum(a), and with it the profile horizon that drives the
cost of `solve`, then hardly moves from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

OFFSET_K = 1  # the program's default offset, in quanta

# solve-dense: packed propagation over ~n*max/2 = 650 k time slots; the DP
# oracle (2^26 > n*B) stays small.
DENSE_N, DENSE_MAX = 26, 50_000
DENSE_INSTANCES = 8

# perturb: each operation enumerates trials * 2^14 perturbed arrivals. Small
# values make many subsets hit the target, so a detection stops its scan early
# except on NO instances under sub-half-quantum errors, which scan all 2^n
# arrivals: a fixed quarter of the operations, so p50 and p90 each fall inside
# one group of like-cost operations instead of between them.
PERTURB_N, PERTURB_MAX, PERTURB_TRIALS = 14, 100, 40
PERTURB_INSTANCES = 8

# cli: all five commands on small instances written as decimals with three
# fractional digits, so normalize rescales them; half of them also override
# the velocity factor.
CLI_N, CLI_MAX, CLI_DECIMALS = 10, 2000, 3
CLI_INSTANCES = 4
CLI_TRIALS = 20
CLI_MAX_CABLE_M = Fraction(3000)

WORKLOADS = ("solve-dense", "perturb", "cli")

Check = Callable[[int, dict], None]


@dataclass(frozen=True)
class Op:
    """One lightsum command line and the checker of its exit code and report."""

    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    round: tuple[Op, ...]
    samples: tuple[Op, ...] = ()  # checked once, after the timed loop


@dataclass(frozen=True)
class Instance:
    values: list[int]  # in quanta, as normalize must give them back
    target: int
    yes: bool
    velocity_factor: Fraction = Fraction(1)


def stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n values in [lo, hi], the i-th drawn from the i-th equal slice, shuffled."""
    width = (hi - lo + 1) / n
    values = [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def planted_yes(rng: random.Random, n: int, hi: int) -> Instance:
    values = stratified(rng, n, 1, hi)
    target = sum(values[i] for i in rng.sample(range(n), n // 2))
    return Instance(values, target, yes=True)


def parity_no(rng: random.Random, n: int, hi: int) -> Instance:
    values = [2 * v for v in stratified(rng, n, 1, hi // 2)]
    return Instance(values, sum(values) // 2 | 1, yes=False)


def yes_or_no(rng: random.Random, i: int, n: int, hi: int) -> Instance:
    return planted_yes(rng, n, hi) if i % 2 == 0 else parity_no(rng, n, hi)


def decimal_str(units: int, places: int) -> str:
    return str(Decimal(units).scaleb(-places))


def write_instance(path: Path, inst: Instance, places: int = 0) -> str:
    doc: dict[str, object] = {
        "set": [decimal_str(v, places) for v in inst.values],
        "target": decimal_str(inst.target, places),
    }
    if inst.velocity_factor != 1:
        vf = inst.velocity_factor
        doc["params"] = {"velocity_factor": str(Decimal(vf.numerator) / vf.denominator)}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def below_half_quantum(n: int, velocity_factor: Fraction) -> Fraction:
    """The largest length error, on a 1e-9 m grid, with n*error < quantum_length/2."""
    units = checks.quantum_length_m(velocity_factor) * 10**9 / (2 * n)
    return Fraction(-(-units.numerator // units.denominator) - 1, 10**9)


def meters(x: Fraction) -> str:
    return decimal_str(int(x * 10**9), 9)


def dump_check(path: Path, inst: Instance, exact: bool, code: int, report: dict) -> None:
    """Solve verdict, then the dumped profile: its invariants, and for small
    instances equality with the enumerated subset sums."""
    checks.check_solve(code, report, yes=inst.yes)
    pairs = checks.parse_dump(path.read_text(encoding="utf-8"))
    path.unlink()
    checks.check_profile_properties(pairs, inst.values, OFFSET_K)
    if exact:
        checks.check_dump_equals_enumeration(pairs, inst.values, OFFSET_K)


def echo_check(inst: Instance, inner: Check, code: int, report: dict) -> None:
    """Normalize gave back the integer quanta the instance was written from."""
    echo = report["instance_echo"]
    checks.require(echo["values"] == inst.values and echo["target"] == inst.target,
                   "normalize did not give back the instance's quanta")
    inner(code, report)


def dense_workload(rng: random.Random, workdir: Path) -> Workload:
    ops, samples = [], []
    for i in range(DENSE_INSTANCES):
        inst = yes_or_no(rng, i, DENSE_N, DENSE_MAX)
        path = write_instance(workdir / f"solve{i}.json", inst)
        ops.append(Op(("solve", path), partial(checks.check_solve, yes=inst.yes)))
        if i < 2:  # one YES and one NO profile are dumped and checked
            dump = workdir / f"solve{i}.profile"
            samples.append(Op(("solve", path, "--dump-profile", str(dump)),
                              partial(dump_check, dump, inst, False)))
    return Workload(tuple(ops), tuple(samples))


def perturb_workload(rng: random.Random, workdir: Path) -> Workload:
    n, vf = PERTURB_N, Fraction(1)
    errors = (below_half_quantum(n, vf), checks.quantum_length_m(vf) * 2 / 5)
    ops = []
    for i in range(PERTURB_INSTANCES):
        path = write_instance(workdir / f"perturb{i}.json", yes_or_no(rng, i, n, PERTURB_MAX))
        for err in errors:
            argv = ("perturb", path, "--max-error-m", meters(err),
                    "--trials", str(PERTURB_TRIALS), "--seed", str(rng.randrange(2**31)))
            ops.append(Op(argv, partial(checks.check_perturb, n=n, trials=PERTURB_TRIALS,
                                        max_error_m=err, velocity_factor=vf)))
    return Workload(tuple(ops))


def cli_instance(rng: random.Random, i: int) -> Instance:
    # One YES and three NO instances. A NO perturb scans all 2^n arrivals, so
    # the three NO perturbs are the costliest 15% of operations and p90 falls
    # among like-cost operations rather than between a YES and a NO perturb.
    make = planted_yes if i == 0 else parity_no
    while True:
        inst = make(rng, CLI_N, CLI_MAX)
        # One number not divisible by 10 pins the normalization scale.
        if any(v % 10 for v in inst.values + [inst.target]):
            vf = Fraction(3, 5) if i % 4 >= 2 else Fraction(1)
            return Instance(inst.values, inst.target, inst.yes, vf)


def cli_workload(rng: random.Random, workdir: Path) -> Workload:
    ops = []
    for i in range(CLI_INSTANCES):
        inst = cli_instance(rng, i)
        vf = inst.velocity_factor
        path = write_instance(workdir / f"cli{i}.json", inst, CLI_DECIMALS)
        dump = workdir / f"cli{i}.profile"
        err = below_half_quantum(CLI_N, vf)
        ops += [
            Op(("solve", path, "--dump-profile", str(dump)),
               partial(echo_check, inst, partial(dump_check, dump, inst, True))),
            Op(("compile", path),
               partial(echo_check, inst, partial(checks.check_compile, values=inst.values,
                                                 k=OFFSET_K, velocity_factor=vf))),
            Op(("analyze", path, "--max-cable-m", str(CLI_MAX_CABLE_M)),
               partial(checks.check_analyze, max_cable_m=CLI_MAX_CABLE_M, velocity_factor=vf)),
            Op(("demo-epsilon", path), checks.check_demo_epsilon),
            Op(("perturb", path, "--max-error-m", meters(err), "--trials", str(CLI_TRIALS),
                "--seed", str(rng.randrange(2**31))),
               partial(checks.check_perturb, n=CLI_N, trials=CLI_TRIALS,
                       max_error_m=err, velocity_factor=vf)),
        ]
    return Workload(tuple(ops))


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's instance files under workdir and return its operations."""
    rng = random.Random(f"{name}/{seed}")
    if name == "solve-dense":
        return dense_workload(rng, workdir)
    if name == "perturb":
        return perturb_workload(rng, workdir)
    if name == "cli":
        return cli_workload(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")
