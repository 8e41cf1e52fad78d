"""Feasibility mathematics for a physical build of the device.

How large a number fits on a cable of given length, how fast the per-ray
power dies off across beam splitters, how many stages a given detector can
still see, how long the answer ray takes, and what slowing the light down
buys. All comparisons are exact rational arithmetic; boundary cases such as
2^26 versus 10^8 are decided by integer comparison, never by logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InvalidValue, Overflow
from .model import MAX_DELAY_QUANTA, Instance, PhysicalParams
from .rational import RationalLike, to_fraction


def max_encodable(max_cable_length_m: RationalLike, params: PhysicalParams) -> int:
    """Largest delay (in quanta) a single cable of the given length can encode.

    floor(length / quantum_length); 3 km at the default 0.0003 m quantum
    gives 10^7, 300 km gives 10^9. A cable of MAX_DELAY_QUANTA quanta or
    more, a delay no instance or device may reach, raises Overflow.
    """
    length = to_fraction(max_cable_length_m)
    if length <= 0:
        raise InvalidValue("cable length must be positive")
    quanta = length // params.quantum_length_m
    if quanta >= MAX_DELAY_QUANTA:
        raise Overflow(f"the cable encodes {MAX_DELAY_QUANTA} quanta or more")
    return quanta


def per_ray_power(n: int, params: PhysicalParams) -> Fraction:
    """Power of one ray after crossing n splitters: source * (transmission/2)^n.

    The destination node does not split, so a device for n values crosses
    exactly n splitters on every path.
    """
    if n < 0:
        raise InvalidValue("n must be >= 0")
    return params.source_power_w * (params.splitter_transmission / 2) ** n


def max_detectable_n(params: PhysicalParams) -> int:
    """Largest n whose worst case (a single ray) still clears the threshold.

    Conservative: coincident rays only add power. Returns 0 when even the
    unsplit beam is below threshold. The comparison gain * source * (p/q)^n
    >= threshold, with p/q = transmission/2, is cross-multiplied once into
    lhs * p^n >= rhs * q^n, so each stage costs two integer products.
    """
    threshold = params.detection_threshold_w
    if threshold <= 0:
        raise InvalidValue("detection_threshold_w must be > 0 for this bound")
    amplified = params.detector_gain * params.source_power_w
    lhs = amplified.numerator * threshold.denominator
    rhs = threshold.numerator * amplified.denominator
    p = params.splitter_transmission.numerator
    q = 2 * params.splitter_transmission.denominator
    n = 0
    while lhs * p >= rhs * q:
        lhs *= p
        rhs *= q
        n += 1
    return n


def required_source_power(n: int, params: PhysicalParams) -> Fraction:
    """Source power at which a single ray still meets the threshold after n stages."""
    if n < 0:
        raise InvalidValue("n must be >= 0")
    return (
        params.detection_threshold_w
        * (2 / params.splitter_transmission) ** n
        / params.detector_gain
    )


def answer_time(instance: Instance, params: PhysicalParams) -> Fraction:
    """Seconds until the solution ray would reach the destination: (B + n*k) * quantum."""
    moment = instance.target + instance.n * params.offset_k_quanta
    return moment * params.delay_quantum_s


def slow_light_rescale(params: PhysicalParams, factor: RationalLike) -> PhysicalParams:
    """Slow the light down by `factor`, shrinking every physical length.

    Delay quanta, and therefore verdicts, are untouched: only the meters per
    quantum change. Commercial fiber gives 0.6; reported slow-light setups
    reach 1e-7.
    """
    f = to_fraction(factor)
    if not 0 < f <= 1:
        raise InvalidValue("slow-light factor must be in (0, 1]")
    return replace(params, velocity_factor=params.velocity_factor * f)


@dataclass(frozen=True)
class FeasibilityReport:
    """Size, time and power budget for building one instance physically."""

    max_encodable_value: int
    max_cable_length_m: Fraction
    quantum_length_m: Fraction
    answer_time_s: Fraction
    max_detectable_n: int
    required_source_power_w: Fraction


def feasibility_report(
    instance: Instance, params: PhysicalParams, max_cable_length_m: RationalLike
) -> FeasibilityReport:
    """Combine the individual bounds into one report for this instance."""
    length = to_fraction(max_cable_length_m)
    return FeasibilityReport(
        max_encodable_value=max_encodable(length, params),
        max_cable_length_m=length,
        quantum_length_m=params.quantum_length_m,
        answer_time_s=answer_time(instance, params),
        max_detectable_n=max_detectable_n(params),
        required_source_power_w=required_source_power(instance.n, params),
    )
