"""Feasibility bounds: encodable sizes, power decay, timing, slow light."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightsum as ls
from lightsum import cli, model

P = ls.PhysicalParams()


# --- encodable values --------------------------------------------------------

def test_three_km_encodes_ten_million():
    assert ls.max_encodable(3000, P) == 10**7


def test_three_hundred_km_encodes_a_billion():
    assert ls.max_encodable(300000, P) == 10**9


def test_single_quantum_cable():
    assert ls.max_encodable("0.0003", P) == 1


def test_max_encodable_rejects_non_positive_lengths():
    with pytest.raises(ls.InvalidValue):
        ls.max_encodable(0, P)
    with pytest.raises(ls.InvalidValue):
        ls.max_encodable(-3, P)


def test_max_encodable_stops_below_the_delay_bound():
    bound, q = model.MAX_DELAY_QUANTA, P.quantum_length_m
    assert ls.max_encodable((bound - 1) * q, P) == bound - 1
    with pytest.raises(ls.Overflow):
        ls.max_encodable(bound * q, P)


@given(
    length=st.fractions(min_value="1/1000", max_value=10**6),
    grow=st.fractions(min_value=0, max_value=100),
)
def test_max_encodable_is_monotone_in_length(length, grow):
    assert ls.max_encodable(length + grow, P) >= ls.max_encodable(length, P)


# --- power chain -------------------------------------------------------------

def test_per_ray_power_without_splitters_is_the_source():
    assert ls.per_ray_power(0, P) == P.source_power_w


def test_per_ray_power_ten_ideal_stages():
    assert ls.per_ray_power(10, P) == Fraction(1, 1024)
    assert float(ls.per_ray_power(10, P)) == 0.0009765625


def test_per_ray_power_with_lossy_splitters():
    params = ls.PhysicalParams(splitter_transmission="0.5")
    assert ls.per_ray_power(4, params) == Fraction(1, 256)  # (1/4)^4


@given(n=st.integers(0, 80), trans=st.fractions(min_value="1/100", max_value=1),
       source=st.fractions(min_value="1/1000", max_value=1000))
def test_per_ray_power_halves_exactly_per_stage(n, trans, source):
    params = ls.PhysicalParams(splitter_transmission=trans, source_power_w=source)
    assert ls.per_ray_power(n + 1, params) == ls.per_ray_power(n, params) * trans / 2


def test_max_detectable_n_unity_gain():
    params = ls.PhysicalParams(detector_gain=1, detection_threshold_w=1)
    assert ls.max_detectable_n(params) == 0


def test_max_detectable_n_photomultiplier_gain():
    params = ls.PhysicalParams(detector_gain=10**8, detection_threshold_w=1)
    assert ls.max_detectable_n(params) == 26  # 2^26 <= 1e8 < 2^27


def test_max_detectable_n_gain_four():
    params = ls.PhysicalParams(detector_gain=4, detection_threshold_w=1)
    assert ls.max_detectable_n(params) == 2


def test_max_detectable_n_zero_when_nothing_is_detectable():
    params = ls.PhysicalParams(detector_gain=1, detection_threshold_w=2)
    assert ls.max_detectable_n(params) == 0


def _detectable_n_by_fractions(params):
    """The Fraction loop max_detectable_n once ran, kept as its reference."""
    amplified = params.detector_gain * params.source_power_w
    ratio = params.splitter_transmission / 2
    n = 0
    while amplified * ratio >= params.detection_threshold_w:
        amplified *= ratio
        n += 1
    return n


positive = st.fractions(min_value="1/1000000", max_value=10**12, max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(gain=positive, source=positive, threshold=positive,
       trans=st.fractions(min_value="1/1000", max_value=1, max_denominator=10**4),
       exact_at=st.none() | st.integers(0, 60))
def test_max_detectable_n_matches_the_fraction_loop(gain, source, threshold, trans, exact_at):
    if exact_at is not None:
        # A single ray meets the threshold exactly after exact_at stages.
        threshold = gain * source * (trans / 2) ** exact_at
    params = ls.PhysicalParams(detector_gain=gain, source_power_w=source,
                               splitter_transmission=trans, detection_threshold_w=threshold)
    n = ls.max_detectable_n(params)
    assert n == _detectable_n_by_fractions(params)
    if exact_at is not None:
        assert n == exact_at


def test_max_detectable_n_needs_a_positive_threshold():
    with pytest.raises(ls.InvalidValue):
        ls.max_detectable_n(ls.PhysicalParams(detection_threshold_w=0))


def test_required_source_power_inverts_the_chain():
    params = ls.PhysicalParams(splitter_transmission="0.8", detector_gain=10**6,
                               detection_threshold_w="1e-9")
    for n in (0, 3, 17):
        need = ls.required_source_power(n, params)
        tuned = ls.PhysicalParams(
            splitter_transmission="0.8", detector_gain=10**6,
            detection_threshold_w="1e-9", source_power_w=need,
        )
        assert tuned.detector_gain * ls.per_ray_power(n, tuned) \
            == tuned.detection_threshold_w


# --- timing ------------------------------------------------------------------

def test_answer_time_large_target():
    inst = ls.Instance.from_values([1, 2, 3, 4], 10**7)
    assert ls.answer_time(inst, P) == Fraction(10**7 + 4, 10**12)
    assert float(ls.answer_time(inst, P)) == 1.0000004e-05


def test_answer_time_degenerate():
    assert ls.answer_time(ls.Instance.from_values([], 0), P) == 0


def test_answer_time_with_offset_two():
    inst = ls.Instance.from_values([1, 1, 1], 5)
    params = ls.PhysicalParams(offset_k_quanta=2)
    assert ls.answer_time(inst, params) == Fraction(11, 10**12)


@given(target=st.integers(0, 10**9), n=st.integers(0, 30), k=st.integers(1, 10))
def test_answer_time_is_linear_in_the_checked_moment(target, n, k):
    inst = ls.Instance.from_values([1] * n, target)
    params = ls.PhysicalParams(offset_k_quanta=k)
    assert ls.answer_time(inst, params) == (target + n * k) * params.delay_quantum_s


# --- slow light --------------------------------------------------------------

def test_commercial_fiber_slowdown():
    slowed = ls.slow_light_rescale(P, "0.6")
    assert slowed.quantum_length_m == Fraction(18, 100000)  # 0.00018 m


def test_slow_light_identity():
    assert ls.slow_light_rescale(P, 1) == P


def test_slow_light_seven_orders_of_magnitude():
    slowed = ls.slow_light_rescale(P, "1e-7")
    assert slowed.quantum_length_m == Fraction(3, 10**11)
    assert ls.max_encodable(3000, slowed) == 10**14


@pytest.mark.parametrize("factor", [0, -1, "1.5", 2])
def test_slow_light_rejects_out_of_range_factors(factor):
    with pytest.raises(ls.InvalidValue):
        ls.slow_light_rescale(P, factor)


@given(
    values=st.lists(st.integers(1, 40), min_size=0, max_size=8),
    target=st.integers(0, 200),
    factor=st.fractions(min_value="1/10000000", max_value=1),
)
@settings(max_examples=40, deadline=None)
def test_slow_light_never_changes_the_verdict(values, target, factor):
    inst = ls.Instance.from_values(values, target)
    slowed = ls.slow_light_rescale(P, factor)
    before = ls.detect(ls.propagate_halves(ls.compile_layout(inst, P)), inst, P)
    after = ls.detect(ls.propagate_halves(ls.compile_layout(inst, slowed)), inst, slowed)
    assert before.verdict is after.verdict
    assert before.checked_moment == after.checked_moment
    lengths = ls.cable_lengths(ls.compile_layout(inst, P), P)
    slowed_lengths = ls.cable_lengths(ls.compile_layout(inst, slowed), slowed)
    assert slowed_lengths == [length * factor for length in lengths]


# --- the combined report -----------------------------------------------------

def test_feasibility_report_fields_and_invariant():
    inst = ls.Instance.from_values([1, 2, 3], 5)
    report = ls.feasibility_report(inst, P, 3000)
    assert report.max_encodable_value == report.max_cable_length_m // report.quantum_length_m
    # the CLI's one encoder writes every field, each Fraction as a string
    doc = json.loads(cli._render(report))
    assert sorted(doc) == [
        "answer_time_s",
        "max_cable_length_m",
        "max_detectable_n",
        "max_encodable_value",
        "quantum_length_m",
        "required_source_power_w",
    ]
    assert doc["max_encodable_value"] == 10**7
    assert doc["quantum_length_m"] == "0.0003"
    assert doc["answer_time_s"] == "0.000000000008"
