"""Exception hierarchy shared by all lightsum modules."""


class LightsumError(Exception):
    """Base class for every error raised by this package."""


class ParseError(LightsumError):
    """Input text is not a finite decimal number or a well-formed instance file."""


class InvalidValue(LightsumError):
    """A numeric argument violates its documented domain."""


class Overflow(LightsumError):
    """A number is past a fixed bound: a decimal exponent beyond
    rational.MAX_DECIMAL_EXPONENT, or a delay that reaches
    model.MAX_DELAY_QUANTA = 2^62 quanta (the sum of an instance's values,
    its target, a layout's longest path, or the cable of max_encodable)."""


class StageMismatch(LightsumError):
    """An arrival profile was propagated through a different number of stages
    than the instance it is being checked against."""


class ResourceLimit(LightsumError):
    """An exact computation would exceed its memory or size budget.

    The result is never silently approximated; callers should pick a
    different solver or a smaller instance.
    """
