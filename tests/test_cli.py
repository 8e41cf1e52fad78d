"""End-to-end CLI behaviour: reports, exit codes, flags, file handling."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, fields
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightsum as ls
from lightsum import cli, model, sim
from lightsum.rational import fraction_str


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_solve_yes_instance(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    code, report, _ = run(capsys, ["solve", f])
    assert code == 0
    assert report["simulator"]["verdict"] == "YES"
    assert report["simulator"]["checked_moment"] == 8
    assert report["oracle"]["verdict"] == "YES"
    assert report["agreement"] is True
    assert report["instance_echo"] == {"values": [1, 2, 3], "target": 5, "scale": "1"}
    assert set(report["timing"]) == {
        "normalize_s", "compile_s", "propagate_s", "detect_s", "oracle_s",
    }


def test_solve_no_instance(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [2, 4], "target": 3})
    code, report, _ = run(capsys, ["solve", f])
    assert code == 1
    assert report["simulator"]["verdict"] == "NO"
    assert report["agreement"] is True


def test_solve_empty_set_zero_target(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [], "target": 0})
    code, report, _ = run(capsys, ["solve", f])
    assert code == 0
    assert report["simulator"]["verdict"] == "YES"
    assert report["simulator"]["ray_count_at_moment"] == 1


def test_solve_normalizes_decimals(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [0.001, 4], "target": 4.001})
    code, report, _ = run(capsys, ["solve", f])
    assert code == 0
    assert report["instance_echo"] == {
        "values": [1, 4000], "target": 4001, "scale": "1000",
    }


def test_solve_reports_are_deterministic_apart_from_timing(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [3, 5, 8], "target": 11})
    _, first, _ = run(capsys, ["solve", f])
    _, second, _ = run(capsys, ["solve", f])
    first.pop("timing")
    second.pop("timing")
    assert first == second


# Every command's whole report on one decimal instance, timing aside. With a
# splitter transmission of 0.3 the required source power has no finite decimal.
GOLDEN_INSTANCE = {
    "set": ["0.5", "1.25", "2"], "target": "2.5", "params": {"splitter_transmission": "0.3"},
}
GOLDEN_ECHO = {"scale": "100", "target": 250, "values": [50, 125, 200]}
GOLDEN_FEASIBILITY = {
    "answer_time_s": "0.000000000253",
    "max_cable_length_m": "3000",
    "max_detectable_n": 20,
    "max_encodable_value": 10000000,
    "quantum_length_m": "0.0003",
    "required_source_power_w": "1/337500000000000",
}
GOLDEN_REPORTS = [
    (["solve", "--max-cable-m", "3000"], {
        "agreement": True,
        "feasibility": GOLDEN_FEASIBILITY,
        "instance_echo": GOLDEN_ECHO,
        "oracle": {"solver_name": "dp", "verdict": "YES"},
        "simulator": {
            "amplified_power_w": "337500",
            "checked_moment": 253,
            "detectable": True,
            "per_ray_power_w": "0.003375",
            "ray_count_at_moment": 1,
            "verdict": "YES",
        },
        "stats": {"half_entries": [2, 4]},
    }),
    (["compile"], {
        "instance_echo": GOLDEN_ECHO,
        "node_count": 4,
        "quantum_length_m": "0.0003",
        "stages": [
            {"skip_m": "0.0003", "skip_quanta": 1, "stage": 0, "take_m": "0.0153",
             "take_quanta": 51, "value": 50},
            {"skip_m": "0.0003", "skip_quanta": 1, "stage": 1, "take_m": "0.0378",
             "take_quanta": 126, "value": 125},
            {"skip_m": "0.0003", "skip_quanta": 1, "stage": 2, "take_m": "0.0603",
             "take_quanta": 201, "value": 200},
        ],
    }),
    (["analyze"], GOLDEN_FEASIBILITY),
    (["demo-epsilon"], {
        "epsilon_checked_moment": 250,
        "epsilon_spurious": True,
        "epsilon_verdict": "NO",
        "offset_checked_moment": 253,
        "offset_correct": True,
        "offset_verdict": "YES",
        "oracle_verdict": "YES",
    }),
    (["perturb", "--max-error-m", "0.00003", "--trials", "200", "--seed", "7"], {
        "false_negatives": 0,
        "false_positives": 0,
        "max_arrival_error_s": "0.000000000000286385",
        "misclassified": 0,
        "trials": 200,
    }),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_REPORTS,
                         ids=[argv[0] for argv, _ in GOLDEN_REPORTS])
def test_golden_reports(tmp_path, capsys, argv, expected):
    f = write_instance(tmp_path, GOLDEN_INSTANCE)
    command, *flags = argv
    code = cli.main([command, f, *flags])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    # two-space indents and sorted keys, timing included
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    report.pop("timing", None)
    assert report == expected


def test_solve_k_flag_overrides_file_params(tmp_path, capsys):
    f = write_instance(
        tmp_path, {"set": [1, 2, 3], "target": 5, "params": {"offset_k_quanta": 7}}
    )
    code, report, _ = run(capsys, ["solve", f])
    assert report["simulator"]["checked_moment"] == 5 + 3 * 7
    code, report, _ = run(capsys, ["solve", f, "--k", "2"])
    assert report["simulator"]["checked_moment"] == 5 + 3 * 2


def test_solve_dump_profile(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 1], "target": 1})
    out = tmp_path / "profile.txt"
    code, _, _ = run(capsys, ["solve", f, "--dump-profile", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8") == "2 1\n3 2\n4 1\n"


def test_solve_feasibility_section(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    code, report, _ = run(capsys, ["solve", f, "--max-cable-m", "3000"])
    assert report["feasibility"]["max_encodable_value"] == 10**7


def test_compile_single_stage_lengths(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1], "target": 1})
    code, report, _ = run(capsys, ["compile", f])
    assert code == 0
    assert report["stages"] == [{
        "stage": 0, "value": 1, "skip_quanta": 1, "take_quanta": 2,
        "skip_m": "0.0003", "take_m": "0.0006",
    }]
    assert report["node_count"] == 2


def test_compile_empty_instance(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [], "target": 0})
    code, report, _ = run(capsys, ["compile", f])
    assert code == 0
    assert report["stages"] == []
    assert report["node_count"] == 1


def test_compile_reflects_normalization(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [0.001, 4], "target": 4.001})
    code, report, _ = run(capsys, ["compile", f])
    values = [row["value"] for row in report["stages"]]
    assert values == [1, 4000]
    assert report["stages"][0]["take_m"] == "0.0006"  # (1+1) quanta


def test_analyze_bounds(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    code, report, _ = run(capsys, ["analyze", f, "--max-cable-m", "3000"])
    assert code == 0
    assert report["max_encodable_value"] == 10**7
    code, report, _ = run(capsys, ["analyze", f, "--max-cable-m", "300000"])
    assert report["max_encodable_value"] == 10**9


def test_analyze_slow_light_scales_bounds(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    code, report, _ = run(capsys, ["analyze", f, "--slow-light", "1e-7"])
    assert report["max_encodable_value"] == 10**14
    assert report["quantum_length_m"] == "0.00000000003"


def test_demo_epsilon_spurious_case(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [5, 9, 10, 11], "target": 8})
    code, report, _ = run(capsys, ["demo-epsilon", f, "--epsilon", "1"])
    assert code == 0
    assert report["epsilon_verdict"] == "YES"
    assert report["offset_verdict"] == "NO"
    assert report["oracle_verdict"] == "NO"
    assert report["epsilon_spurious"] is True


@pytest.mark.parametrize("doc", [
    {"set": [5], "target": 5},
    {"set": [3, 3], "target": 6},
])
def test_demo_epsilon_agreement_cases(doc, tmp_path, capsys):
    f = write_instance(tmp_path, doc)
    code, report, _ = run(capsys, ["demo-epsilon", f])
    assert code == 0
    assert report["epsilon_verdict"] == report["oracle_verdict"] == "YES"


def test_demo_epsilon_dump_propagates_each_layout_once(tmp_path, capsys, monkeypatch):
    inst = ls.Instance.from_values([5, 9, 10, 11], 8)
    eps_layout = ls.compile_epsilon_layout(inst, 1)
    expected = io.StringIO()
    ls.write_profile(ls.propagate(eps_layout), expected)
    calls = {"propagate": [], "propagate_halves": []}

    def counting(name):
        fn = getattr(sim, name)

        def wrapper(layout):
            calls[name].append(layout)
            return fn(layout)

        return wrapper

    for name in calls:
        wrapper = counting(name)
        monkeypatch.setattr(sim, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    f = write_instance(tmp_path, {"set": [5, 9, 10, 11], "target": 8})
    dump = tmp_path / "eps.txt"
    code, report, _ = run(capsys, ["demo-epsilon", f, "--dump-profile", str(dump)])
    assert code == 0
    # both verdicts read the halves of their layout; only the dump builds
    # a whole profile
    assert calls["propagate"] == [eps_layout]
    assert len(calls["propagate_halves"]) == 2
    assert dump.read_text(encoding="utf-8") == expected.getvalue()


def test_perturb_zero_error(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [2, 4], "target": 3})
    code, report, _ = run(capsys, ["perturb", f, "--max-error-m", "0", "--trials", "50"])
    assert code == 0
    assert report["misclassified"] == 0
    assert report["trials"] == 50


def test_perturb_forbidden_lengths(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 1, 1], "target": 4})
    code, report, _ = run(capsys, [
        "perturb", f, "--max-error-m", "0.00012", "--trials", "300", "--seed", "0",
    ])
    assert code == 0
    assert report["misclassified"] >= 1


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, ["solve", "/nonexistent/inst.json"])
    assert code == 3
    assert "error" in err


def test_unparseable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, ["solve", str(path)])
    assert code == 3


def test_unreadable_numbers_and_bytes_are_input_errors(tmp_path, capsys):
    # an integer past the interpreter's 4300-digit limit, a file that is not
    # UTF-8, and a set and params nested 100 000 deep, past the recursion
    # limit of the JSON decoder
    path = tmp_path / "bad.json"
    deep = 100_000
    for content in (b'{"set": [1], "target": ' + b"9" * 5000 + b"}",
                    b'{"set": [1], "target": 1\xff}',
                    b'{"set": ' + b"[" * deep + b"]" * deep + b', "target": 1}',
                    b'{"set": [1], "target": 1, "params": ' + b'{"a": ' * deep + b"{}"
                    + b"}" * deep + b"}"):
        path.write_bytes(content)
        code, report, err = run(capsys, ["solve", str(path)])
        assert (code, report) == (3, None)
        assert err.startswith("error:") and "Traceback" not in err


def test_negative_value_is_an_input_error(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [-1], "target": 3})
    code, _, _ = run(capsys, ["solve", f])
    assert code == 3


def test_no_exact_solver_is_a_resource_error(tmp_path, capsys):
    # 45 values, past meet-in-the-middle's cap of 44, and a target of about
    # 1.1e9, past the DP's table budget of 1e8 bits: the device answers from
    # a left half of 22 enumerated paths and a dense right half of 23 unit
    # values, and then no oracle can check it
    rng = random.Random(45)
    large = [rng.randint(10**8 - 10**6, 10**8 - 1) for _ in range(22)]
    f = write_instance(tmp_path, {"set": large + [1] * 23, "target": sum(large[:11]) + 7})
    code, report, err = run(capsys, ["solve", f])
    assert (code, report) == (4, None)
    assert "no exact solver can handle n=45" in err


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["compile"],
    ["analyze"],
    ["demo-epsilon"],
    ["perturb", "--max-error-m", "0.00003", "--trials", "20"],
])
def test_stdout_holds_one_report_and_stderr_stays_empty(tmp_path, capsys, argv):
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    command, *flags = argv
    code = cli.main([command, f, *flags])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    report = json.loads(out)  # one document, nothing before or after it
    assert isinstance(report, dict)
    assert err == ""
    if command == "solve":
        # distinct arrival times of the 1- and 2-stage halves at k = 1
        assert report["stats"] == {"half_entries": [2, 4]}
    # --verbose is gone: every command refuses it as a usage error
    code = cli.main([command, f, *flags, "--verbose"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "usage" in err


@pytest.mark.parametrize("epsilon", ["0", "-3"])
@pytest.mark.parametrize("dump", [False, True])
def test_epsilon_below_one_is_an_input_error(tmp_path, capsys, epsilon, dump):
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    out = tmp_path / "eps.txt"
    flags = ["--dump-profile", str(out)] if dump else []
    code, report, err = run(capsys, ["demo-epsilon", f, "--epsilon", epsilon, *flags])
    assert (code, report) == (3, None)
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--bogus", "{f}"],
    ["compile", "{f}", "--seed", "1"],
    ["analyze", "{f}", "--dump-profile", "{out}"],
    ["perturb", "{f}", "--max-error-m", "0", "--oracle", "brute"],
    ["solve", "{f}", "--oracle", "mitm"],
])
def test_usage_errors_are_input_errors(tmp_path, capsys, argv):
    # argparse would exit 2, which is the disagreement code
    f = write_instance(tmp_path, {"set": [1], "target": 1})
    out = tmp_path / "p.txt"
    code, report, err = run(capsys, [a.format(f=f, out=out) for a in argv])
    assert code == 3
    assert report is None
    assert "usage" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [],
    ["bogus", "{f}"],
    ["-h"],
    ["--k", "2", "solve", "{f}"],
    ["solve"],
    ["solve", "-h"],
    ["solve", "{f}", "--verbose"],
    ["solve", "{f}", "extra", "--verbose"],
    ["solve", "--k=2", "{f}", "--oracle", "dp"],
    ["compile", "{f}", "--k", "x"],
    ["perturb", "{f}", "--max-error-m"],
    ["perturb", "{f}", "--max-error-m", "0.0001", "--tri", "3"],
    ["demo-epsilon", "--", "{f}"],
])
def test_command_parsers_read_argv_as_the_whole_parser_does(tmp_path, capsys, argv):
    # a command name first is parsed by that command's parser alone; the
    # namespace, the help, the usage error text and the exit code are the
    # whole parser's
    f = write_instance(tmp_path, {"set": [1], "target": 1})
    argv = [a.format(f=f) for a in argv]
    parser, _ = cli.build_parser()
    outcomes = []
    for parse in (parser.parse_args, cli._parse_args):
        try:
            outcome = vars(parse(argv))
        except SystemExit as exc:
            outcome = exc.code
        outcomes.append((outcome, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def test_dispatch_keeps_the_exit_codes(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1], "target": 1})
    for argv in ([], ["bogus", f]):
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: lightsum [-h]")
    assert cli.main(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: lightsum solve [-h]")


def test_overflow_message_names_the_place_not_the_digits(tmp_path, capsys):
    # "1." and 299 999 zeros then a 1 scales every number past the bound;
    # the message gives the first one's place and the exponent it reaches
    tail = "1." + "0" * 299_999 + "1"
    for doc, place in (({"set": [tail, 2], "target": 1}, "set[0]"),
                       ({"set": [], "target": tail}, "the target")):
        code, report, err = run(capsys, ["solve", write_instance(tmp_path, doc)])
        assert (code, report) == (3, None)
        assert len(err.encode()) < 200
        assert err.startswith(f"error: {place} normalizes to at least 10^300000,")


def test_help_exits_zero(capsys):
    assert cli.main(["solve", "--help"]) == 0
    assert "--dump-profile" in capsys.readouterr().out


@pytest.mark.parametrize("params,flags", [
    ({"source_power_w": "inf"}, []),
    ({}, ["--max-cable-m", "inf"]),
    ({}, ["--quantum-s", "inf"]),
    ({}, ["--slow-light", "inf"]),
])
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, params, flags):
    f = write_instance(tmp_path, {"set": [1, 2], "target": 3, "params": params})
    code, report, err = run(capsys, ["solve", f, *flags])
    assert code == 3
    assert report is None
    assert "finite" in err


def test_huge_decimal_exponents_are_input_errors(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 2], "target": "1e-20000"})
    code, _, err = run(capsys, ["solve", f])
    assert code == 3
    assert "ceiling" in err
    f = write_instance(tmp_path, {"set": [1, 2], "target": 3})
    code, _, err = run(capsys, ["analyze", f, "--max-cable-m", "1e5000"])
    assert code == 3
    assert "ceiling" in err
    # Exponents like these are rejected before 10^exponent is built, which
    # alone would take seconds to minutes.
    code, _, err = run(capsys, ["solve", f, "--quantum-s", "1e-10000000"])
    assert code == 3
    assert "ceiling" in err
    f = write_instance(tmp_path, {"set": ["1e10000000"], "target": 0})
    code, _, err = run(capsys, ["solve", f])
    assert code == 3
    assert "ceiling" in err


def test_reports_render_numbers_longer_than_str_allows(tmp_path, capsys):
    # per_ray_power_w = (t/2)^5 has about 5000 digits, past the limit on
    # converting an int to str
    t = "0." + "9" * 1000
    f = write_instance(tmp_path, {
        "set": [1, 2, 3, 4, 5], "target": 5, "params": {"splitter_transmission": t},
    })
    code, report, _ = run(capsys, ["solve", f])
    assert code == 0
    power = report["simulator"]["per_ray_power_w"]
    assert Fraction(Decimal(power)) == (Fraction(Decimal(t)) / 2) ** 5


def test_report_numbers_past_the_digit_bound_are_a_resource_limit(tmp_path, capsys):
    # per_ray_power_w of 80 stages has 80 080 decimal places, 266 000 bits
    # in its denominator; required_source_power_w of 1000 stages has a
    # numerator of a million digits. Both are refused without rendering them.
    for n, command in ((80, "solve"), (1000, "analyze")):
        f = write_instance(tmp_path, {
            "set": [1] * n, "target": n // 2, "params": {"splitter_transmission": "1e-1000"},
        })
        code, report, err = run(capsys, [command, f])
        assert (code, report) == (4, None), command
        assert f"past {cli.MAX_REPORT_DIGITS}" in err


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**90, 10**90) | st.integers(1, 6000).map(lambda k: 10**k - 1),
       st.integers(0, 400), st.integers(0, 400), st.sampled_from([1, 3, 7, 1001]))
def test_every_number_rendered_past_the_digit_bound_is_refused(numerator, twos, fives, odd):
    x = Fraction(numerator, 2**twos * 5**fives * odd)
    assert cli._render(x) == f'"{fraction_str(x)}"\n'
    # json renders a report's int fields itself
    report = ls.PerturbationReport(numerator, 0, 0, 0, Fraction(0))
    int_length = len(cli._render(numerator)) - 1
    for obj, length in ((x, len(fraction_str(x))), (report, int_length)):
        with mock.patch.object(cli, "MAX_REPORT_DIGITS", length - 1), \
                pytest.raises(ls.ResourceLimit):
            cli._render(obj)


def _reference_hook(obj):
    """The json.dumps hook reports were once rendered with, kept as the
    writer's reference: a Fraction as its fraction_str, a dataclass as the
    dict of its fields."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


class _Mood(str, Enum):
    CALM = "calm"
    ODD = "\u00f6\n\"\x07\U0001f600"


_leaves = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text() | st.fractions() | st.sampled_from(_Mood))
_trees = st.recursive(
    _leaves,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4) | st.builds(_Pair, kids, kids)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_report_writer_matches_json_dumps_byte_for_byte(tree):
    expected = json.dumps(tree, indent=2, sort_keys=True, default=_reference_hook) + "\n"
    assert cli._render(tree) == expected


@pytest.mark.parametrize("big", [-(10**400), Fraction(1, 2**1000), Fraction(10**400, 3)],
                         ids=["int", "decimal-fraction", "ratio"])
@pytest.mark.parametrize("place", [
    lambda x: x,
    lambda x: [1, x, 2],
    lambda x: (x,),
    lambda x: {"a": 1, "b": [[{"c": x}]]},
    lambda x: _Pair([], _Pair(x, None)),
], ids=["alone", "list", "tuple", "nested", "dataclass"])
def test_digit_cap_refuses_an_oversized_number_wherever_it_sits(big, place):
    text = cli._render(place(big))
    with mock.patch.object(cli, "MAX_REPORT_DIGITS", len(fraction_str(Fraction(big))) - 1), \
            pytest.raises(ls.ResourceLimit):
        cli._render(place(big))
    assert json.loads(text) == json.loads(json.dumps(place(big), default=_reference_hook))


def test_perturb_error_finer_than_the_grid_is_an_input_error(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [3, 5, 7], "target": 8})
    code, report, err = run(capsys, ["perturb", f, "--max-error-m", "1e-10"])
    assert code == 3
    assert report is None
    assert "grid" in err


def test_perturb_trials_past_the_arrival_cap_are_a_resource_limit(tmp_path, capsys):
    # 10^9 trials of 2^3 arrivals: rejected before the first trial runs
    f = write_instance(tmp_path, {"set": [3, 5, 7], "target": 8})
    code, report, err = run(capsys, [
        "perturb", f, "--max-error-m", "0", "--trials", "1000000000",
    ])
    assert code == 4
    assert report is None
    assert "resource limit" in err


def test_perturb_trials_the_exact_halves_decide_are_charged_their_draws(tmp_path, capsys):
    # cut within 0.1 quantum, 3 cables drift by less than half a quantum, so
    # every trial on {1, 2, 3} detects the pair on 5 without enumerating:
    # 300 000 trials are charged 6 draws and the fixed charge each
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    code, report, err = run(capsys, [
        "perturb", f, "--max-error-m", "0.00003", "--trials", "300000",
    ])
    assert (code, err) == (0, "")
    assert (report["trials"], report["misclassified"]) == (300000, 0)


def test_perturb_error_as_long_as_the_shortest_cable_answers(tmp_path, capsys):
    # errors of one quantum, the skip arcs' length: at seed 4 some draw cuts a
    # skip arc to exactly nothing, which delays its ray by 0; at k = 2 an
    # error one grid unit past a quantum answers too
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    for flags, trials in ((["--max-error-m", "0.0003", "--seed", "4"], 100000),
                          (["--max-error-m", "0.0003000003", "--k", "2"], 1)):
        code, report, err = run(capsys, ["perturb", f, *flags, "--trials", str(trials)])
        assert (code, err) == (0, ""), flags
        assert report["trials"] == trials


@pytest.mark.parametrize("error", ["0.0003000003", "1e999"])
def test_perturb_error_past_the_shortest_cable_is_an_input_error(tmp_path, capsys, error):
    # one grid unit past skip arcs of one quantum, and an error whose grid
    # bound passes 2^62, are refused before any draw
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    code, report, err = run(capsys, ["perturb", f, "--max-error-m", error, "--trials", "1"])
    assert (code, report) == (3, None)
    assert "shortest cable" in err


@pytest.mark.parametrize("error", ["0.00001", "0.00012", "0.00029"])
def test_perturb_reports_do_not_depend_on_the_offset(tmp_path, capsys, error):
    # every path and the moment carry the same n * k, so k moves no drift and
    # no verdict: {1, 2, 3} -> 5 cut within 1/30, 0.4 and 0.97 quantum reads
    # byte for byte the same report at k = 1, 10^6 and 2 * 10^12, where n * k
    # in grid units passes 2^62
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    reports = []
    for k in (1, 10**6, 2 * 10**12):
        code = cli.main(["perturb", f, "--k", str(k), "--max-error-m", error,
                         "--trials", "1000", "--seed", "3"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        reports.append(captured.out)
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_solve_answers_a_target_past_the_sum_before_any_oracle_cap(tmp_path, capsys):
    # 46 unit values pass meet-in-the-middle's cap and a target of 2e8 the
    # DP's table budget; the oracle answers NO before either cap, as the
    # device does
    f = write_instance(tmp_path, {"set": [1] * 46, "target": 200000000})
    code, report, err = run(capsys, ["solve", f])
    assert (code, err) == (1, "")
    assert report["agreement"] is True
    assert report["oracle"] == {"solver_name": "mitm", "verdict": "NO"}


@pytest.mark.parametrize("doc,entries", [
    # 12 values of 10^6: each half's 64 paths arrive at 7 distinct times
    ({"set": [10**6] * 12, "target": 3 * 10**6}, [7, 7]),
    # n = 13: a dense left half of 6 unit stages, 7 times, and an enumerated
    # right half of 7 stages, whose 128 paths arrive at 64 distinct times
    ({"set": [1] * 6 + [10**6 + i for i in range(7)], "target": 2000004}, [7, 64]),
])
def test_half_entries_count_distinct_times_of_repeated_paths(tmp_path, capsys, doc, entries):
    f = write_instance(tmp_path, doc)
    code, report, _ = run(capsys, ["solve", f])
    assert code == 0
    assert report["stats"] == {"half_entries": entries}


def test_a_moment_past_2_62_reads_no_ray(tmp_path, capsys):
    # k = 2^61 puts the moment at 2^62 - 1 + 2^61, reported as it is; read
    # from the halves' earliest paths it lies past both spans, and the
    # one-stage half keeps both of its times
    f = write_instance(tmp_path, {"set": [1], "target": 2**62 - 1})
    code, report, _ = run(capsys, ["solve", f, "--k", str(2**61)])
    assert code == 1
    assert report["simulator"]["checked_moment"] == 6917529027641081855
    assert report["simulator"]["ray_count_at_moment"] == 0
    assert report["stats"] == {"half_entries": [1, 2]}


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "cmd_solve", broken)
    f = write_instance(tmp_path, {"set": [1], "target": 1})
    code, _, err = run(capsys, ["solve", f])
    assert code == cli.EXIT_INTERNAL_ERROR == 5
    assert "Traceback" in err and "RuntimeError: injected" in err


def test_solve_reads_wide_values_from_the_halves(tmp_path, capsys):
    # n = 30 values to 1e9: the whole device's 2^30 paths would pass the
    # cap, each half has 2^15
    rng = random.Random(30)
    values = [rng.randint(1, 10**9) for _ in range(30)]
    codes = []
    for target in (sum(values[::3]), 2 * sum(values) // 3 + 1):
        f = write_instance(tmp_path, {"set": values, "target": target})
        code, report, _ = run(capsys, ["solve", f])
        assert report["agreement"] is True
        assert report["oracle"]["solver_name"] == "mitm"
        assert code == {"YES": 0, "NO": 1}[report["simulator"]["verdict"]]
        codes.append(code)
    assert codes[0] == 0  # a planted subset


def test_delays_past_the_bound_are_input_errors(tmp_path, capsys):
    bound = model.MAX_DELAY_QUANTA
    # a units digit pins the scale: 10^18 five times would normalize to 1
    big = "999999999999999999"
    cases = [
        ({"set": [big] * 5, "target": big}, ["solve"]),
        ({"set": [1, 2], "target": 3}, ["solve", "--k", str(bound)]),
        ({"set": [1, 2], "target": 3}, ["compile", "--k", str(bound)]),
        ({"set": [1, 2], "target": 3}, ["analyze", "--k", str(bound)]),
        ({"set": [1, 2], "target": 3}, ["demo-epsilon", "--epsilon", str(bound)]),
        ({"set": [1, 2], "target": 3}, ["perturb", "--k", str(bound), "--max-error-m", "0"]),
        ({"set": [1, 2], "target": 3},
         ["analyze", "--max-cable-m", fraction_str(bound * ls.PhysicalParams().quantum_length_m)]),
    ]
    for doc, (command, *flags) in cases:
        f = write_instance(tmp_path, doc)
        code, report, err = run(capsys, [command, f, *flags])
        assert (code, report) == (3, None), (command, flags)
        assert str(bound) in err


def test_perturb_past_the_grid_bound_is_a_resource_limit(tmp_path, capsys):
    # 1.2e13 quanta fit the bound; 1.2e19 grid units do not (a units digit
    # pins the scale: 3e12 would normalize to 3)
    f = write_instance(tmp_path, {"set": ["3000000000001"] * 4, "target": "12000000000004"})
    code, report, err = run(capsys, ["perturb", f, "--max-error-m", "0.00003"])
    assert (code, report) == (4, None)
    assert "grid" in err


def test_solve_values_far_above_the_target(tmp_path, capsys):
    # the DP oracle skips values above B instead of shifting its table by them
    f = write_instance(tmp_path, {"set": ["1000000000000000000"] * 4, "target": "1"})
    code, report, _ = run(capsys, ["solve", f])
    assert code == 1
    assert report["oracle"]["solver_name"] == "dp"
    assert report["agreement"] is True


def test_failed_dump_leaves_the_file_untouched(tmp_path, capsys, monkeypatch):
    # each half of 3 stages has 8 paths, the whole device 64
    monkeypatch.setattr(sim, "DENSE_PATHS_PER_SLOT", 2**64)
    monkeypatch.setattr(sim, "MAX_PROFILE_ENTRIES", 8)
    f = write_instance(tmp_path, {"set": [1, 2, 4, 8, 16, 32], "target": 5})
    # a whole profile of 8 paths fits, but the report fails first
    small = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5}, "small.json")
    long_power = write_instance(tmp_path, {
        "set": [1, 2, 3], "target": 5, "params": {"splitter_transmission": "1e-1000"},
    }, "long.json")
    monkeypatch.setattr(cli, "MAX_REPORT_DIGITS", 1000)
    out = tmp_path / "profile.txt"
    out.write_text("earlier dump\n", encoding="utf-8")
    for argv, expected, message in (
        (["solve", f], 4, "resource limit"),
        (["demo-epsilon", f], 4, "resource limit"),
        (["solve", small, "--max-cable-m", "-1"], 3, "must be positive"),
        (["solve", small, "--max-cable-m", "1e40"], 3, "quanta or more"),
        (["solve", long_power], 4, "digits"),
    ):
        code, report, err = run(capsys, [*argv, "--dump-profile", str(out)])
        assert (code, report) == (expected, None), argv
        assert message in err, argv
        assert out.read_text(encoding="utf-8") == "earlier dump\n", argv


def test_solve_refuses_long_halves_by_their_path_count(tmp_path, capsys, monkeypatch):
    # each half of 4 equal long stages has 16 paths, past a cap of 8, but
    # only 5 distinct times
    monkeypatch.setattr(sim, "MAX_PROFILE_ENTRIES", 8)
    f = write_instance(tmp_path, {"set": ["1000000001"] * 8, "target": "1000000001"})
    code, report, err = run(capsys, ["solve", f])
    assert (code, report) == (4, None)
    assert "2^4 paths" in err


def test_solve_refuses_long_dense_chains_before_propagating(tmp_path, capsys, monkeypatch):
    # each half of 20 000 unit values adds Python-int counts over 10 001
    # slots at each of its 10 000 stages: 1.6e10 word additions, about 15 s a half
    def propagated(*args):
        raise AssertionError("a dense chain past the cap was propagated")

    monkeypatch.setattr(sim, "_propagate_dense", propagated)
    f = write_instance(tmp_path, {"set": [1] * 20000, "target": 10000})
    code, report, err = run(capsys, ["solve", f])
    assert (code, report) == (4, None)
    assert "word additions" in err


@pytest.mark.parametrize("n, top", [(60, 10), (48, 100)])
def test_a_large_offset_k_solves_as_k_1_does(tmp_path, capsys, n, top):
    # k moves every path by n*k and widens no half, so at k = 10^6 each half
    # still runs dense over the slots it spans at k = 1
    rng = random.Random(n)
    values = [rng.randint(1, top) for _ in range(n)]
    f = write_instance(tmp_path, {"set": values, "target": sum(values[::2])})
    reports = []
    for k in (1, 10**6):
        code, report, err = run(capsys, ["solve", f, "--k", str(k)])
        assert (code, err) == (0, "")
        reports.append(report)
    near, far = reports
    assert far["simulator"]["checked_moment"] == near["simulator"]["checked_moment"] + n * (10**6 - 1)
    assert far["simulator"]["ray_count_at_moment"] == near["simulator"]["ray_count_at_moment"]
    assert far["stats"]["half_entries"] == near["stats"]["half_entries"]


# Instance documents as JSON text. Numbers are written bare or quoted, as
# integers, decimals or with exponents, some past the 2^62 bound or the
# exponent ceiling, next to values the loader refuses; a document may carry
# an unknown field or params overrides, a refused key among them.
_mantissas = st.integers(0, 10**7).map(str) | st.builds(
    "{}.{:03d}".format, st.integers(0, 999), st.integers(0, 999))
_written = st.builds(lambda m, e: m if e is None else f"{m}e{e}",
                     _mantissas, st.none() | st.integers(-25, 25) | st.just(2000))
_json_values = (st.integers(1, 40).map(str) | st.integers(-3, 2**63).map(str) | _written
                | _written.map(json.dumps)
                | st.sampled_from(["true", "false", "null", "[]", "[2]", '"x"', '"NaN"', "-0.5"]))
_params = st.dictionaries(
    st.sampled_from([*model.INSTANCE_PARAM_KEYS, "light_speed_m_s", "colour"]), _json_values,
    max_size=2)


@st.composite
def _documents(draw):
    # Half the numbers are small integers, so that many documents load.
    number = st.integers(1, 40).map(str) | _json_values
    fields = [f'"set": [{", ".join(draw(st.lists(number, max_size=6)))}]',
              f'"target": {draw(number)}']
    if draw(st.integers(0, 4)) == 0:
        fields.append('"extra": 1')
    if draw(st.integers(0, 2)) == 0:
        fields.append('"params": {%s}' % ", ".join(f"{json.dumps(k)}: {v}"
                                                   for k, v in draw(_params).items()))
    return "{%s}" % ", ".join(fields)


def _flag(name, values):
    """Either no flag, or `name` followed by one of `values`."""
    return st.none().map(lambda _: []) | values.map(lambda v: [name, str(v)])


_k = _flag("--k", st.integers(1, 5) | st.integers(-1, 2**62))
_argvs = st.one_of(
    st.tuples(st.just(["solve"]), _k),
    st.tuples(st.just(["compile"]), _k),
    st.tuples(st.just(["analyze"]), _k,
              _flag("--max-cable-m", st.sampled_from(["3000", "0.5", "-1", "1e40"]))),
    st.tuples(st.just(["demo-epsilon"]), _k,
              _flag("--epsilon", st.integers(-1, 10**6))),
    st.tuples(st.just(["perturb"]), _k,
              st.sampled_from(["0", "0.00001", "0.00003", "0.0001", "1e-10", "-1", "x"]).map(
                  lambda m: ["--max-error-m", m]),
              _flag("--trials", st.integers(0, 30)), _flag("--seed", st.integers(-5, 2**40))),
).map(lambda parts: [word for part in parts for word in part])


@settings(max_examples=150, deadline=2000)
@given(document=_documents(), argv=_argvs)
def test_every_command_exits_with_a_report_or_an_input_or_resource_error(
        tmp_path_factory, document, argv):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(document, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 3, 4), (document, argv, err.getvalue())
    if code <= 1:
        assert isinstance(json.loads(out.getvalue()), dict)
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue()


@pytest.fixture
def int_digit_limit_640():
    """The interpreter's int-to-str digit limit, lowered to 640 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


def test_ray_counts_past_the_int_digit_limit_are_written_whole(tmp_path, capsys,
                                                                int_digit_limit_640):
    # C(2200, 1100) has 661 digits; Decimal parses it back past the limit
    n = 2200
    f = write_instance(tmp_path, {"set": [1] * n, "target": n // 2})
    out = tmp_path / "profile.txt"
    out.write_text("earlier dump\n", encoding="utf-8")
    code = cli.main(["solve", f, "--dump-profile", str(out)])
    report = json.loads(capsys.readouterr().out, parse_int=Decimal)
    assert code == 0
    assert report["simulator"]["ray_count_at_moment"] == math.comb(n, n // 2)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [tuple(map(Decimal, line.split())) for line in lines] == [
        (n + j, math.comb(n, j)) for j in range(n + 1)
    ]
    # input parsing keeps the limit
    assert sys.get_int_max_str_digits() == 640


def test_parser_reuse_keeps_no_flags_between_calls(tmp_path, capsys):
    f = write_instance(tmp_path, {"set": [1, 2, 3], "target": 5})
    _, report, _ = run(capsys, ["solve", f, "--k", "5"])
    assert report["simulator"]["checked_moment"] == 5 + 3 * 5
    _, report, _ = run(capsys, ["solve", f])
    assert report["simulator"]["checked_moment"] == 5 + 3 * 1
    assert cli.build_parser() is cli.build_parser()
