"""Domain model: instances, physical parameters, and device layouts.

An instance is a set of positive numbers plus a target. Before anything is
simulated the numbers are rescaled by a single power of ten so that every one
of them is an integer count of delay quanta and no power of ten is common to
all of them; the device geometry is then a chain of stages, one per set
element, where each stage offers a short "skip" arc and a longer "take" arc.

Normalization converts an integral number with one int() and reads the digits
of a non-integral one only, so its time is linear in the digits written. An
instance file is read as bytes and decoded once, and every file without
"params" overrides shares one default PhysicalParams.

This module is shared contract: the simulator, the oracles, the feasibility
analysis and the CLI all build on the types defined here. Everything is
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .errors import InvalidValue, Overflow, ParseError
from .rational import parse_decimal, to_fraction

# Every delay the device or an oracle computes is below this many quanta, so
# times and sums are exact in int64 and a checked moment B + n*k, the sum of
# two of them, stays below 2^63. It is 1.4e15 m of fiber at the default
# quantum; the paper's 300 km cable encodes 10^9.
MAX_DELAY_QUANTA = 2**62

# The vacuum's light speed; a medium slows light through velocity_factor.
LIGHT_SPEED_M_S = 300_000_000


class Verdict(str, Enum):
    """Answer to "does some subset of the values sum to the target?"."""

    YES = "YES"
    NO = "NO"

    @classmethod
    def from_bool(cls, yes: bool) -> "Verdict":
        return cls.YES if yes else cls.NO


@dataclass(frozen=True)
class RawInstance:
    """A set of positive decimal numbers and a non-negative decimal target.

    Each number is parsed once, on construction, and kept as the exact
    Decimal; :func:`normalize` turns them into integer delay quanta.
    """

    values: tuple[Decimal, ...]
    target: Decimal

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(map(parse_decimal, self.values)))
        object.__setattr__(self, "target", parse_decimal(self.target))
        for v in self.values:
            if v <= 0:
                raise InvalidValue(f"set elements must be strictly positive, got {str(v)!r}")
        if self.target < 0:
            raise InvalidValue(f"target must be non-negative, got {str(self.target)!r}")

    @classmethod
    def from_values(
        cls, values: Iterable[int | str | Decimal], target: int | str | Decimal
    ) -> "RawInstance":
        """Build from any iterable of numbers."""
        return cls(values=tuple(values), target=target)


@dataclass(frozen=True)
class Instance:
    """A normalized instance: positive integer values, integer target, and the
    exact power-of-ten factor that maps the raw numbers onto these integers.
    The sum of the values and the target are below MAX_DELAY_QUANTA."""

    values: tuple[int, ...]
    target: int
    scale: Fraction

    def __post_init__(self) -> None:
        for v in self.values:
            if not isinstance(v, int) or v < 1:
                raise InvalidValue(f"normalized values must be integers >= 1, got {v!r}")
        if not isinstance(self.target, int) or self.target < 0:
            raise InvalidValue(f"normalized target must be an integer >= 0, got {self.target!r}")
        # The message names the bound only: the sum may have too many digits to print.
        if self.total >= MAX_DELAY_QUANTA or self.target >= MAX_DELAY_QUANTA:
            raise Overflow(
                f"the sum of the values or the target reaches {MAX_DELAY_QUANTA} quanta"
            )

    @classmethod
    def from_values(cls, values: Iterable[int], target: int) -> "Instance":
        """Convenience constructor for instances that are already integral."""
        return cls(values=tuple(values), target=target, scale=Fraction(1))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> int:
        return sum(self.values)


# Maps the digit bytes 0-9 of a Decimal's digit tuple onto ASCII, for int().
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")


def normalize(raw: RawInstance) -> Instance:
    """Rescale all values and the target jointly by one power of ten.

    The exponent is chosen so the least significant nonzero digit across the
    whole instance lands immediately before the decimal point: the smallest
    power of ten that makes everything an integer while leaving at least one
    number not divisible by ten. {0.001, 4} / 4.001 becomes {1, 4000} / 4001
    (scale 1000); {100, 2000} / 2100 becomes {1, 20} / 21 (scale 1/100).

    The same factor is applied to values and target; scaling them differently
    would change the answer. A sum of values or a target that reaches
    MAX_DELAY_QUANTA raises Overflow.

    An integral number, however it was written, is converted with one int();
    only a non-integral one reads its digits, and the time taken is linear in
    the digits written: "1." followed by 10^6 zeros is 1.
    """
    numbers = (*raw.values, raw.target)
    quanta = list(map(int, numbers))
    # (index, digits from the first nonzero to the last, as bytes 0-9, and
    # the exponent of the last) of every number that int() truncated
    fractional = []
    for i, (d, q) in enumerate(zip(numbers, quanta)):
        if d != q:
            _, digits, exp = d.as_tuple()
            kept = bytes(digits).rstrip(b"\0")
            fractional.append((i, kept, exp + len(digits) - len(kept)))
    if fractional:
        scale_exp = -min(least for _, _, least in fractional)
        # A number normalizes to at least 10^(adjusted + scale_exp), which is
        # past the bound once that exponent reaches its bit length; reject it
        # before any such power of ten is built (a long fraction makes
        # scale_exp huge). The message names the number by its place, since
        # its digits may be too many to print.
        for i, d in enumerate(numbers):
            if d and d.adjusted() + scale_exp >= MAX_DELAY_QUANTA.bit_length():
                where = "the target" if i == len(raw.values) else f"set[{i}]"
                raise Overflow(
                    f"{where} normalizes to at least 10^{d.adjusted() + scale_exp}, "
                    f"past the bound of {MAX_DELAY_QUANTA} quanta"
                )
        up = 10**scale_exp
        quanta = [q * up for q in quanta]
        for i, kept, least in fractional:
            quanta[i] = int(kept.translate(_DIGIT_CHARS)) * 10 ** (least + scale_exp)
    else:
        # Every number is an integer: divide out the tens they all share.
        common = math.gcd(*quanta)
        scale_exp = 0
        while common and common % 10 == 0:
            common //= 10
            scale_exp -= 1
        if scale_exp:
            down = 10**-scale_exp
            quanta = [q // down for q in quanta]
    return Instance(values=tuple(quanta[:-1]), target=quanta[-1], scale=Fraction(10) ** scale_exp)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the device, held as exact rationals.

    Numeric arguments may be given as int, str, Fraction or Decimal; anything
    but a Fraction goes through rational.parse_decimal, which refuses floats.
    Light runs at LIGHT_SPEED_M_S times velocity_factor. Defaults:
    picosecond delay quantum (the oscilloscope rise time), vacuum speed,
    ideal splitters, a 1 W source, photomultiplier gain 1e8 and a 1 nW
    detection threshold.
    """

    delay_quantum_s: Fraction = Fraction(1, 10**12)
    velocity_factor: Fraction = Fraction(1)
    offset_k_quanta: int = 1
    source_power_w: Fraction = Fraction(1)
    splitter_transmission: Fraction = Fraction(1)
    detector_gain: Fraction = Fraction(10**8)
    detection_threshold_w: Fraction = Fraction(1, 10**9)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "offset_k_quanta":
                continue
            object.__setattr__(self, f.name, to_fraction(getattr(self, f.name)))
        if isinstance(self.offset_k_quanta, bool) or not isinstance(self.offset_k_quanta, int):
            raise ParseError("offset_k_quanta must be an integer")
        if self.delay_quantum_s <= 0:
            raise InvalidValue("delay_quantum_s must be > 0")
        if not 0 < self.velocity_factor <= 1:
            raise InvalidValue("velocity_factor must be in (0, 1]")
        if self.offset_k_quanta < 1:
            raise InvalidValue("offset_k_quanta must be >= 1")
        if self.source_power_w <= 0:
            raise InvalidValue("source_power_w must be > 0")
        if not 0 < self.splitter_transmission <= 1:
            raise InvalidValue("splitter_transmission must be in (0, 1]")
        if self.detector_gain <= 0:
            raise InvalidValue("detector_gain must be > 0")
        if self.detection_threshold_w < 0:
            raise InvalidValue("detection_threshold_w must be >= 0")

    @property
    def quantum_length_m(self) -> Fraction:
        """Fiber length that delays a ray by exactly one quantum:
        LIGHT_SPEED_M_S * velocity_factor * quantum. 0.0003 m at the defaults."""
        return LIGHT_SPEED_M_S * self.velocity_factor * self.delay_quantum_s


@dataclass(frozen=True)
class Stage:
    """One chain link: a skip arc and a take arc, in integer delay quanta."""

    value: int
    skip_delay: int
    take_delay: int


@dataclass(frozen=True)
class DeviceLayout:
    """A chain of stages, each a skip arc and a take arc in delay quanta.

    The offset device has skip delay k and take delay a_i + k, so every
    start-to-destination path accumulates the constant n*k on top of its
    subset sum. The epsilon device has skip delay epsilon and take delay a_i.
    The longest path, the sum of the longer arcs, is below MAX_DELAY_QUANTA.
    """

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        for s in self.stages:
            if s.value < 1:
                raise InvalidValue(f"stage value must be >= 1, got {s.value}")
            if s.skip_delay < 1 or s.take_delay < 1:
                raise InvalidValue(f"stage {s} has an arc shorter than one quantum")
        if sum(max(s.skip_delay, s.take_delay) for s in self.stages) >= MAX_DELAY_QUANTA:
            raise Overflow(
                f"the longest path through the device reaches {MAX_DELAY_QUANTA} quanta"
            )

    @property
    def node_count(self) -> int:
        return len(self.stages) + 1


def compile_layout(instance: Instance, params: PhysicalParams) -> DeviceLayout:
    """Build the offset device for a normalized instance.

    Stage order follows instance order; an empty instance compiles to a
    single-node device with no stages.
    """
    k = params.offset_k_quanta
    return DeviceLayout(
        stages=tuple(Stage(a, k, a + k) for a in instance.values)
    )


def compile_epsilon_layout(instance: Instance, epsilon: int) -> DeviceLayout:
    """Build the flawed epsilon device: skip arcs of epsilon, take arcs of a_i.

    Kept for demonstration; a target reachable as subset_sum + m*epsilon
    triggers a spurious detection that the offset device avoids.
    """
    if epsilon < 1:
        raise InvalidValue("epsilon must be >= 1")
    return DeviceLayout(
        stages=tuple(Stage(value=a, skip_delay=epsilon, take_delay=a) for a in instance.values)
    )


def cable_lengths(layout: DeviceLayout, params: PhysicalParams) -> list[Fraction]:
    """Physical arc lengths in meters, stage by stage, skip arc then take arc.

    Each length is an exact positive integer multiple of quantum_length_m;
    nothing of the forbidden p*quantum + q form can ever be emitted.
    """
    q = params.quantum_length_m
    out: list[Fraction] = []
    for s in layout.stages:
        out.append(s.skip_delay * q)
        out.append(s.take_delay * q)
    return out


# --- instance files ---------------------------------------------------------
#
# UTF-8 JSON: {"set": [...], "target": ..., "params": {...}} where numbers may
# be decimal strings or JSON numbers (loaded as exact Decimals, never as binary
# doubles) and "params" optionally overrides the fields below.

# Shared by every document without overrides: PhysicalParams is frozen.
_DEFAULT_PARAMS = PhysicalParams()

# The params an instance document may override: every field of PhysicalParams.
INSTANCE_PARAM_KEYS = tuple(f.name for f in fields(PhysicalParams))


def parse_instance_document(doc: object) -> tuple[RawInstance, PhysicalParams]:
    """Validate a decoded instance document and apply its params overrides."""
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    unknown = set(doc) - {"set", "target", "params"}
    if unknown:
        raise ParseError(f"unknown instance fields: {sorted(unknown)}")
    if "set" not in doc or "target" not in doc:
        raise ParseError('instance document needs "set" and "target" fields')
    if not isinstance(doc["set"], list):
        raise ParseError('"set" must be an array')
    raw = RawInstance.from_values(doc["set"], doc["target"])

    overrides = doc.get("params", {})
    if not isinstance(overrides, dict):
        raise ParseError('"params" must be an object')
    bad = set(overrides) - set(INSTANCE_PARAM_KEYS)
    if bad:
        raise ParseError(f"unknown params fields: {sorted(bad)}")
    return raw, PhysicalParams(**overrides) if overrides else _DEFAULT_PARAMS


def load_instance_file(path: str | Path) -> tuple[RawInstance, PhysicalParams]:
    """Read and validate an instance file.

    The bytes are read and decoded in one step each: Path.read_text's text
    layer takes about twice as long for a small file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"), parse_float=Decimal)
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, malformed JSON, an integer past the
        # interpreter's digit limit, or arrays or objects nested past its
        # recursion limit
        raise ParseError(f"{path}: {exc}") from exc
    return parse_instance_document(doc)
