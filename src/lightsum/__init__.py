"""Simulator for an optical delay-line device that decides subset-sum instances.

The device is a chain of stages, one per set element; each stage offers a
short skip arc and a longer take arc, so the 2^n start-to-destination paths
enumerate every subset. A ray's total delay encodes its subset's sum, and the
decision reduces to watching the destination at one moment. This package
compiles instances into that geometry, propagates exact arrival profiles,
applies the detection rule, checks every verdict against classical solvers,
and works out the physical feasibility envelope (cable lengths, power decay,
timing, slow light).
"""

from .analysis import (
    FeasibilityReport,
    answer_time,
    feasibility_report,
    max_detectable_n,
    max_encodable,
    per_ray_power,
    required_source_power,
    slow_light_rescale,
)
from .errors import (
    InvalidValue,
    LightsumError,
    Overflow,
    ParseError,
    ResourceLimit,
    StageMismatch,
)
from .model import (
    DeviceLayout,
    Instance,
    PhysicalParams,
    RawInstance,
    Stage,
    Verdict,
    cable_lengths,
    compile_epsilon_layout,
    compile_layout,
    load_instance_file,
    normalize,
)
from .oracles import (
    OracleResult,
    solve_auto,
    solve_dp,
    solve_mitm,
)
from .perturb import PerturbationReport, perturb_and_classify
from .sim import (
    ArrivalProfile,
    DetectionReport,
    EpsilonDemoReport,
    SplitProfile,
    detect,
    epsilon_false_positive_demo,
    propagate,
    propagate_halves,
    write_profile,
)

__version__ = "0.1.0"
