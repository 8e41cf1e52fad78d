"""Normalization, layout compilation, cable lengths, and instance files."""

from __future__ import annotations

import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightsum as ls
from lightsum import model
from lightsum.rational import parse_decimal

from helpers import has_subset_sum


# --- normalization -----------------------------------------------------------

def test_normalize_multiplies_small_decimals_up():
    inst = ls.normalize(ls.RawInstance.from_values(["0.001", "4"], "4.001"))
    assert inst.values == (1, 4000)
    assert inst.target == 4001
    assert inst.scale == Fraction(1000)


def test_normalize_divides_out_common_power_of_ten():
    inst = ls.normalize(ls.RawInstance.from_values(["100", "2000"], "2100"))
    assert inst.values == (1, 20)
    assert inst.target == 21
    assert inst.scale == Fraction(1, 100)


@pytest.mark.parametrize("values,target,quanta,scale", [
    # a negative scale exponent divides every number by 10^2
    (["100", "2000"], "2100", ((1, 20), 21), Fraction(1, 100)),
    (["1E+2", "2e3"], "2.1e3", ((1, 20), 21), Fraction(1, 100)),
    (["100.00", "2000"], 0, ((1, 20), 0), Fraction(1, 100)),
    # a positive one multiplies every number by 10^3
    (["0.001", "4"], "4.001", ((1, 4000), 4001), Fraction(1000)),
    (["1e-3", "4.000"], "4.0010", ((1, 4000), 4001), Fraction(1000)),
    (["0.001", "4"], 0, ((1, 4000), 0), Fraction(1000)),
])
def test_normalize_scales_by_the_exponent_in_either_direction(values, target, quanta, scale):
    inst = ls.normalize(ls.RawInstance.from_values(values, target))
    assert (inst.values, inst.target) == quanta
    assert all(type(v) is int for v in inst.values + (inst.target,))
    assert inst.scale == scale


def test_normalize_leaves_canonical_integers_alone():
    inst = ls.normalize(ls.RawInstance.from_values([3, 7], 10))
    assert inst.values == (3, 7)
    assert inst.target == 10
    assert inst.scale == Fraction(1)


def test_normalize_exponent_is_joint_across_values_and_target():
    # 15 pins the unit digit even though both set elements end in zero
    inst = ls.normalize(ls.RawInstance.from_values([10, 20], 15))
    assert inst.values == (10, 20)
    assert inst.target == 15
    assert inst.scale == Fraction(1)


def test_normalize_zero_target_does_not_pin_the_exponent():
    inst = ls.normalize(ls.RawInstance.from_values([10, 20], 0))
    assert inst.values == (1, 2)
    assert inst.target == 0
    assert inst.scale == Fraction(1, 10)


def test_normalize_empty_set_scales_target_alone():
    inst = ls.normalize(ls.RawInstance.from_values([], "5.5"))
    assert inst.values == ()
    assert inst.target == 55
    assert inst.scale == Fraction(10)


def test_normalize_accepts_exponent_notation():
    inst = ls.normalize(ls.RawInstance.from_values(["1e-3", "4"], "4.001"))
    assert inst.values == (1, 4000)
    assert inst.target == 4001


@pytest.mark.parametrize("bad", ["0", "-3", "0.0"])
def test_raw_instance_rejects_non_positive_values(bad):
    with pytest.raises(ls.InvalidValue):
        ls.RawInstance.from_values([bad], 1)


def test_raw_instance_rejects_negative_target():
    with pytest.raises(ls.InvalidValue):
        ls.RawInstance.from_values([1], "-1")


@pytest.mark.parametrize("bad", ["abc", "1/3", "", "NaN", "Infinity"])
def test_parse_rejects_non_decimal_strings(bad):
    with pytest.raises(ls.ParseError):
        parse_decimal(bad)


@pytest.mark.parametrize("where", ["set", "params"])
@pytest.mark.parametrize("bad,error", [
    (0.1, ls.ParseError),
    (True, ls.ParseError),
    (None, ls.ParseError),
    ("NaN", ls.ParseError),
    ("inf", ls.ParseError),
    ("1e2000", ls.Overflow),
])
def test_one_number_policy(bad, error, where):
    # Instance numbers and physical parameters go through the same parser,
    # so each input fails the same way in both places.
    with pytest.raises(error):
        if where == "set":
            ls.RawInstance.from_values([bad], 1)
        else:
            ls.PhysicalParams(source_power_w=bad)


def test_normalize_overflow_beyond_ceiling(monkeypatch):
    raw = ls.RawInstance.from_values(["1e30"], 1)
    with pytest.raises(ls.Overflow):
        ls.normalize(raw)
    monkeypatch.setattr(model, "MAX_DELAY_QUANTA", 10**31)
    assert ls.normalize(raw).values == (10**30,)


def test_instance_sum_and_target_stay_below_the_delay_bound():
    bound = model.MAX_DELAY_QUANTA
    assert ls.Instance.from_values([bound // 2, bound // 2 - 1], bound - 1).total == bound - 1
    for values, target in [([bound // 2, bound // 2], 1), ([1], bound), ([10**30] * 2, 0)]:
        with pytest.raises(ls.Overflow, match=str(bound)):
            ls.Instance.from_values(values, target)
    # five values of 1e18 sum past 2^62, though each one is below it
    with pytest.raises(ls.Overflow):
        ls.normalize(ls.RawInstance.from_values(["1000000000000000000"] * 5, 1))


decimal_number = st.builds(
    lambda m, e: str(Decimal(m).scaleb(e)),
    st.integers(1, 10**6),
    st.integers(-6, 3),
)


@given(values=st.lists(decimal_number, min_size=1, max_size=8), target=decimal_number)
def test_normalize_is_idempotent(values, target):
    first = ls.normalize(ls.RawInstance.from_values(values, target))
    again = ls.normalize(ls.RawInstance.from_values(first.values, first.target))
    assert again.values == first.values
    assert again.target == first.target
    assert again.scale == Fraction(1)


@given(
    values=st.lists(decimal_number, min_size=1, max_size=6),
    target=decimal_number,
    pick=st.data(),
)
@settings(max_examples=60)
def test_normalize_preserves_the_answer(values, target, pick):
    # half the time plant the target as an exact subset sum of the raw values
    if pick.draw(st.booleans()):
        subset = pick.draw(st.sets(st.integers(0, len(values) - 1)))
        planted = sum(Fraction(Decimal(values[i])) for i in subset)
        if planted > 0:
            target = str(Decimal(planted.numerator) / Decimal(planted.denominator))
    raw = ls.RawInstance.from_values(values, target)
    inst = ls.normalize(raw)
    raw_answer = has_subset_sum(
        [Fraction(Decimal(v)) for v in raw.values], Fraction(Decimal(raw.target))
    )
    scaled_answer = has_subset_sum(list(inst.values), inst.target)
    assert raw_answer == scaled_answer


@given(values=st.lists(decimal_number, min_size=0, max_size=8), target=decimal_number)
def test_normalize_scale_maps_raw_onto_integers_exactly(values, target):
    raw = ls.RawInstance.from_values(values, target)
    inst = ls.normalize(raw)
    for text, quanta in zip(raw.values, inst.values):
        assert Fraction(Decimal(text)) * inst.scale == quanta
    assert Fraction(Decimal(raw.target)) * inst.scale == inst.target
    # canonical: at least one normalized number keeps a nonzero unit digit
    nonzero = [v for v in inst.values + (inst.target,) if v != 0]
    if nonzero:
        assert any(v % 10 != 0 for v in nonzero)


def _least_digit_exponent(d):
    """Exponent of the least significant nonzero digit, or None when d == 0."""
    if d == 0:
        return None
    _, digits, exp = d.as_tuple()
    trailing = 0
    while trailing < len(digits) and digits[-1 - trailing] == 0:
        trailing += 1
    return int(exp) + trailing


def _normalize_by_exponent_walk(raw):
    """The exponent walk normalize once ran, kept as its reference: every
    number's least digit exponent, then each number through as_integer_ratio."""
    decimals = list(raw.values) + [raw.target]
    exponents = [e for e in map(_least_digit_exponent, decimals) if e is not None]
    scale_exp = -min(exponents) if exponents else 0
    for d in decimals:
        if d and d.adjusted() + scale_exp >= model.MAX_DELAY_QUANTA.bit_length():
            raise ls.Overflow(f"{d} normalizes past the bound")
    up, down = 10 ** max(scale_exp, 0), 10 ** max(-scale_exp, 0)

    def to_quanta(d):
        num, den = d.as_integer_ratio()
        q, r = divmod(num * up, den * down)
        assert r == 0
        return q

    quanta = [to_quanta(d) for d in decimals]
    return ls.Instance(values=tuple(quanta[:-1]), target=quanta[-1],
                       scale=Fraction(10) ** scale_exp)


def _outcome(route, raw):
    """(values, target, scale) of a normalized instance, or the error type."""
    try:
        inst = route(raw)
    except ls.LightsumError as exc:
        return type(exc)
    assert all(type(v) is int for v in inst.values + (inst.target,))
    return inst.values, inst.target, inst.scale


# A digit string with trailing zeros, placed by an exponent, and written in
# plain or exponent notation, as a Decimal or, when integral, as an int.
_digits = st.builds(lambda lead, zeros: lead + "0" * zeros,
                    st.integers(1, 10**8).map(str) | st.just("1"), st.integers(0, 12))


@st.composite
def _written_number(draw, zero=False):
    digits = "0" if zero else draw(_digits)
    d = Decimal(digits).scaleb(draw(st.integers(-14, 8)))
    forms = [str(d), f"{d:f}", f"{d:E}", d]
    if d == d.to_integral_value():
        forms.append(int(d))
    return draw(st.sampled_from(forms))


# Values whose quanta reach about 2^62, the bound, in either scale direction.
_near_the_bound = st.builds(
    lambda m, e: Decimal(m).scaleb(e),
    st.sampled_from([2**62 - 1, 2**62, 2**61, 2**61 + 1, 2**62 // 5, 10**18]),
    st.integers(-6, 2),
)


@settings(max_examples=250, deadline=None)
@given(values=st.lists(_written_number(), max_size=6),
       target=_written_number() | _written_number(zero=True),
       edge=st.none() | _near_the_bound)
def test_normalize_matches_the_exponent_walk(values, target, edge):
    raw = ls.RawInstance.from_values(values + ([] if edge is None else [edge]), target)
    assert _outcome(ls.normalize, raw) == _outcome(_normalize_by_exponent_walk, raw)


@pytest.mark.parametrize("values,target", [
    ([], 0), ([], "0.000"), ([], "0E+5"), (["5E+3"], 0), ([20, "3.0"], "1E+1"),
    (["0.5"], "0.00"), ([str(2**62)], 0), ([str(2**62 - 1)], 0), ([2**61] * 2, 0),
    (["4611686018427387.903"], 0), (["4611686018427387.904"], 0),
    (["0.1", "4611686018427387903"], 0), (["1." + "0" * 62 + "1"], 1),
])
def test_normalize_matches_the_exponent_walk_at_the_edges(values, target):
    raw = ls.RawInstance.from_values(values, target)
    assert _outcome(ls.normalize, raw) == _outcome(_normalize_by_exponent_walk, raw)


def test_normalize_takes_time_linear_in_the_digits():
    # as_integer_ratio on these takes seconds at 3*10^5 digits
    zeros = "1." + "0" * 300_000
    start = time.perf_counter()
    inst = ls.normalize(ls.RawInstance.from_values([zeros], zeros))
    assert time.perf_counter() - start < 1
    assert (inst.values, inst.target, inst.scale) == ((1,), 1, Fraction(1))
    start = time.perf_counter()
    with pytest.raises(ls.Overflow):
        ls.normalize(ls.RawInstance.from_values(["1." + "0" * 299_999 + "1"], 1))
    assert time.perf_counter() - start < 1


# --- physical parameters -----------------------------------------------------

def test_default_quantum_length_is_0_0003_m():
    assert ls.PhysicalParams().quantum_length_m == Fraction(3, 10000)


def test_velocity_factor_scales_quantum_length():
    p = ls.PhysicalParams(velocity_factor="0.6")
    assert p.quantum_length_m == Fraction(18, 100000)  # 0.00018


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delay_quantum_s": 0},
        {"velocity_factor": 0},
        {"velocity_factor": "1.5"},
        {"offset_k_quanta": 0},
        {"offset_k_quanta": -2},
        {"source_power_w": 0},
        {"splitter_transmission": 0},
        {"splitter_transmission": 2},
        {"detector_gain": 0},
        {"detection_threshold_w": -1},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ls.InvalidValue):
        ls.PhysicalParams(**kwargs)


# --- layout compilation ------------------------------------------------------

def test_compile_offset_layout_follows_skip_k_take_a_plus_k():
    inst = ls.Instance.from_values([1, 2, 3, 4], 5)
    layout = ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=1))
    assert [(s.skip_delay, s.take_delay) for s in layout.stages] == [
        (1, 2), (1, 3), (1, 4), (1, 5),
    ]
    assert layout.node_count == 5


def test_compile_empty_instance_single_node():
    layout = ls.compile_layout(ls.Instance.from_values([], 0), ls.PhysicalParams())
    assert layout.stages == ()
    assert layout.node_count == 1


def test_compile_structural_counts():
    inst = ls.Instance.from_values([1, 2, 4, 8], 6)
    layout = ls.compile_layout(inst, ls.PhysicalParams())
    assert len(layout.stages) == 4
    arcs = [d for s in layout.stages for d in (s.skip_delay, s.take_delay)]
    assert len(arcs) == 8
    assert all(d >= 1 for d in arcs)


def test_compile_is_deterministic():
    inst = ls.Instance.from_values([7, 7, 9], 14)
    p = ls.PhysicalParams(offset_k_quanta=3)
    assert ls.compile_layout(inst, p) == ls.compile_layout(inst, p)


def test_layout_validation_rejects_malformed_stages():
    for bad in [
        ls.Stage(value=0, skip_delay=1, take_delay=1),
        ls.Stage(value=2, skip_delay=0, take_delay=3),
        ls.Stage(value=2, skip_delay=1, take_delay=0),
    ]:
        with pytest.raises(ls.InvalidValue):
            ls.DeviceLayout(stages=(ls.Stage(value=1, skip_delay=1, take_delay=2), bad))


def test_layout_longest_path_stays_below_the_delay_bound():
    bound = model.MAX_DELAY_QUANTA
    # the instance fits; its longest path, sum(a_i) + n*k, is what reaches the bound
    inst = ls.Instance.from_values([bound // 2 - 2] * 2, 0)
    layout = ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=1))
    assert sum(s.take_delay for s in layout.stages) == bound - 2
    for k in (2, bound):
        with pytest.raises(ls.Overflow, match=str(bound)):
            ls.compile_layout(inst, ls.PhysicalParams(offset_k_quanta=k))
    small = ls.Instance.from_values([1, 2], 3)
    with pytest.raises(ls.Overflow):
        ls.compile_epsilon_layout(small, bound)


def test_compile_epsilon_layout():
    inst = ls.Instance.from_values([5, 9], 8)
    layout = ls.compile_epsilon_layout(inst, 2)
    assert [(s.skip_delay, s.take_delay) for s in layout.stages] == [(2, 5), (2, 9)]
    with pytest.raises(ls.InvalidValue):
        ls.compile_epsilon_layout(inst, 0)


# --- cable lengths -----------------------------------------------------------

def test_one_quantum_is_0_0003_m():
    inst = ls.Instance.from_values([1], 1)
    p = ls.PhysicalParams()
    lengths = ls.cable_lengths(ls.compile_layout(inst, p), p)
    assert lengths == [Fraction(3, 10000), Fraction(6, 10000)]


def test_ten_million_quanta_is_3_km():
    inst = ls.Instance.from_values([10**7 - 1], 1)  # take arc = a + k = 10^7
    p = ls.PhysicalParams()
    lengths = ls.cable_lengths(ls.compile_layout(inst, p), p)
    assert lengths[1] == Fraction(3000)


@given(
    values=st.lists(st.integers(1, 10**6), min_size=0, max_size=8),
    k=st.integers(1, 100),
)
def test_cable_lengths_are_positive_integer_multiples_of_the_quantum(values, k):
    inst = ls.Instance.from_values(values, 0)
    p = ls.PhysicalParams(offset_k_quanta=k)
    lengths = ls.cable_lengths(ls.compile_layout(inst, p), p)
    assert len(lengths) == 2 * len(values)
    for length in lengths:
        ratio = length / p.quantum_length_m
        assert ratio.denominator == 1 and ratio >= 1


# --- instance files ----------------------------------------------------------

def test_load_instance_file_mixed_number_forms(tmp_path):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"set": ["0.001", 4], "target": 4.001}), encoding="utf-8")
    raw, params = ls.load_instance_file(f)
    assert ls.normalize(raw).values == (1, 4000)
    assert params == ls.PhysicalParams()


def test_load_instance_file_params_override(tmp_path):
    f = tmp_path / "inst.json"
    f.write_text(
        json.dumps({
            "set": [1, 2],
            "target": 3,
            "params": {
                "offset_k_quanta": 5,
                "velocity_factor": 0.6,
                "detector_gain": "1e8",
            },
        }),
        encoding="utf-8",
    )
    _, params = ls.load_instance_file(f)
    assert params.offset_k_quanta == 5
    assert params.velocity_factor == Fraction(3, 5)
    assert params.detector_gain == Fraction(10**8)
    # untouched fields keep their defaults
    assert params.delay_quantum_s == Fraction(1, 10**12)


def test_documents_without_overrides_share_the_default_params(tmp_path):
    paths = []
    for i, doc in enumerate([{"set": [1], "target": 1}, {"set": [2], "target": 2, "params": {}},
                             {"set": [3], "target": 3, "params": {"offset_k_quanta": 5}}]):
        paths.append(tmp_path / f"inst{i}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    plain, empty, tuned = (ls.load_instance_file(p)[1] for p in paths)
    assert plain is empty and plain == ls.PhysicalParams()
    assert tuned.offset_k_quanta == 5 and plain.offset_k_quanta == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"set": [1]},
        {"target": 3},
        {"set": 1, "target": 3},
        {"set": [1], "target": 3, "extra": 1},
        {"set": [1], "target": 3, "params": {"light_speed_m_s": 1}},
        {"set": [1], "target": 3, "params": {"offset_k_quanta": "two"}},
        {"set": [True], "target": 3},
        [1, 2, 3],
    ],
)
def test_load_instance_file_rejects_malformed_documents(doc, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ls.ParseError):
        ls.load_instance_file(f)


def test_load_instance_file_rejects_broken_json(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json", encoding="utf-8")
    with pytest.raises(ls.ParseError):
        ls.load_instance_file(f)
